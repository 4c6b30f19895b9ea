"""Character n-gram model: tokenization, counting, smoothing, backoff, persistence."""

import json
import re
import tracemalloc
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from decodelab import (
    ModelFormatError,
    NGramModel,
    TokenAlphabet,
    default_alphabet,
    detokenize,
    logits_from_masses,
    ngram,
    softmax,
    tokenize,
    train_ngram,
)

A = default_alphabet()
a, b, c = A.index_of("a"), A.index_of("b"), A.index_of("c")
BLANK = A.index_of(" ")


# -- frozen reference: the loop tokenizer and the per-context model ---------
#
# Copies of the tokenizer and of the model that kept one count array per
# context in a dict, before counts became dense matrices.  The shipped code
# must give the same tokens, the same JSON bytes and the same conditional
# and logit bits.


def reference_tokenize(text, alphabet=None):
    alphabet = alphabet or default_alphabet()
    blank = alphabet.index_of(" ")
    if blank is None:
        raise ValueError("alphabet has no blank token to absorb out-of-alphabet characters")
    out = []
    for ch in text:
        folded = ch.lower()
        tok = alphabet.index_of(folded) if len(folded) == 1 else None
        out.append(blank if tok is None else tok)
    return tuple(out)


def _ref_json_object(value, what):
    if not isinstance(value, dict):
        raise ModelFormatError(f"{what} must be a JSON object (got {type(value).__name__})")
    return value


def _ref_json_int(value, what):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ModelFormatError(f"{what} must be a JSON integer (got {json.dumps(value)})")
    return value


def _ref_json_number(value, what):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ModelFormatError(f"{what} must be a JSON number (got {json.dumps(value)})")
    try:
        return float(value)
    except OverflowError:
        raise ModelFormatError(f"{what} is beyond the float range") from None


class ReferenceNGramModel:
    def __init__(self, order, alpha, alphabet, tables):
        if order < 1:
            raise ValueError(f"order must be >= 1 (got {order})")
        if not (np.isfinite(alpha) and alpha >= 0):
            raise ValueError(f"alpha must be finite and >= 0 (got {alpha!r})")
        unigram = tables.get(1, {}).get(())
        if alpha == 0 and (unigram is None or unigram.sum() == 0):
            raise ValueError("alpha = 0 needs unigram counts with a positive total")
        self.order = int(order)
        self.alpha = float(alpha)
        self.alphabet = alphabet
        self._tables = tables

    def context_count(self, order=None):
        m = self.order if order is None else order
        return len(self._tables.get(m, {}))

    def conditional(self, context):
        d = self.alphabet.size
        ctx = tuple(int(t) for t in context)
        start = min(self.order, len(ctx) + 1)
        for m in range(start, 0, -1):
            ctx_m = ctx[len(ctx) - (m - 1) :] if m > 1 else ()
            counts = self._tables[m].get(ctx_m)
            total = int(counts.sum()) if counts is not None else 0
            if total > 0 or self.alpha > 0:
                if counts is None:
                    counts = np.zeros(d, dtype=np.int64)
                return (counts + self.alpha) / (total + self.alpha * d)

    def logits_for(self, context):
        return logits_from_masses(self.conditional(context))

    def to_json_dict(self):
        counts = {}
        for m, table in self._tables.items():
            level = {}
            for ctx, arr in table.items():
                nz = np.flatnonzero(arr)
                if nz.size:
                    key = ",".join(str(t) for t in ctx)
                    level[key] = {str(int(t)): int(arr[t]) for t in nz}
            counts[str(m)] = level
        return {
            "format": "decodelab-ngram",
            "format_version": 1,
            "order": self.order,
            "alpha": self.alpha,
            "alphabet": {"symbols": "".join(self.alphabet.symbols), "eos_index": self.alphabet.eos_index},
            "counts": counts,
        }

    def save(self, path):
        Path(path).write_text(json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n", encoding="utf-8")

    @classmethod
    def from_json_dict(cls, d):
        if not isinstance(d, dict) or d.get("format") != "decodelab-ngram":
            raise ModelFormatError("not a decodelab n-gram model document")
        if d.get("format_version") != 1:
            raise ModelFormatError(f"unsupported model format version {d.get('format_version')!r} (expected 1)")
        try:
            alpha = _ref_json_number(d["alpha"], "alpha")
            order = _ref_json_int(d["order"], "order")
            alphabet = TokenAlphabet(
                tuple(d["alphabet"]["symbols"]), _ref_json_int(d["alphabet"]["eos_index"], "eos_index")
            )
            size = alphabet.size
            counts = _ref_json_object(d["counts"], "counts")
            if order != len(counts) or set(counts) != {str(m) for m in range(1, order + 1)}:
                raise ModelFormatError(f"count tables must be exactly '1'..'{order}' (got {sorted(counts)})")
            tables = {m: {} for m in range(1, order + 1)}
            for m_str, level in counts.items():
                m = int(m_str)
                for key, sparse in _ref_json_object(level, f"count table {m_str!r}").items():
                    ctx = tuple(int(t) for t in key.split(",")) if key else ()
                    if len(ctx) != m - 1 or any(not 0 <= t < size for t in ctx):
                        raise ModelFormatError(f"bad context key {key!r} for order {m}")
                    arr = np.zeros(size, dtype=np.int64)
                    for tok_str, count in _ref_json_object(sparse, f"counts of context {key!r}").items():
                        tok = int(tok_str)
                        if type(count) is not int or count < 0 or not 0 <= tok < size:
                            raise ModelFormatError(f"bad count entry {tok_str!r}: {json.dumps(count)}")
                        arr[tok] = count
                    tables[m][ctx] = arr
            if () not in tables.get(1, {}):
                raise ModelFormatError("model document lacks unigram counts")
            return cls(order, alpha, alphabet, tables)
        except ModelFormatError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelFormatError(f"malformed model document: {exc}") from exc

    @classmethod
    def load(cls, path):
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ModelFormatError(f"model file is not valid JSON: {exc}") from exc
        return cls.from_json_dict(doc)


def reference_train_ngram(corpus, order, alpha, alphabet=None):
    alphabet = alphabet or default_alphabet()
    if order < 1:
        raise ValueError(f"order must be >= 1 (got {order})")
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0 (got {alpha!r})")
    toks = tuple(int(t) for t in corpus)
    if len(toks) < order:
        raise ValueError(f"corpus has {len(toks)} tokens but order-{order} training needs at least {order}")
    size = alphabet.size
    for t in toks:
        if not 0 <= t < size:
            raise ValueError(f"corpus token {t} outside alphabet of size {size}")
    tables = {m: {} for m in range(1, order + 1)}
    for m in range(1, order + 1):
        table = tables[m]
        for i in range(len(toks) - m + 1):
            ctx = toks[i : i + m - 1]
            nxt = toks[i + m - 1]
            arr = table.get(ctx)
            if arr is None:
                arr = np.zeros(size, dtype=np.int64)
                table[ctx] = arr
            arr[nxt] += 1
    return ReferenceNGramModel(order, alpha, alphabet, tables)


def _dumps(model) -> str:
    return json.dumps(model.to_json_dict(), sort_keys=True, indent=2)


class TestTokenize:
    def test_maps_characters_to_ids(self):
        assert tokenize("ab1.") == (0, 1, 27, 37)

    def test_folds_case(self):
        assert tokenize("AB") == tokenize("ab")

    def test_out_of_alphabet_becomes_blank(self):
        assert tokenize("a@b") == (a, BLANK, b)

    def test_multi_character_case_folds_become_blank(self):
        # one input character must stay one token
        assert tokenize("İ") == (BLANK,)

    def test_eos_glyph_is_tokenizable(self):
        assert tokenize("¶") == (A.eos_index,)

    @given(st.text(max_size=200))
    def test_total_and_length_preserving(self, text):
        toks = tokenize(text)
        assert len(toks) == len(text)
        assert all(0 <= t < A.size for t in toks)

    def test_detokenize_round_trips_in_alphabet_text(self):
        s = "the cat, 42 mice.¶"
        assert detokenize(tokenize(s)) == s

    # Multi-character case folds ("İ" -> "i̇", "ẞ" stays, "ﬁ" has no lower
    # form), letters whose lower form is in the alphabet, and the EOS glyph.
    SPECIALS = ["İ", "ẞ", "ß", "ﬁ", "Σ", "A", "Z", "a", " ", ".", ",", "¶", "\n", "\x00", "7"]

    @settings(max_examples=300)
    @given(
        st.text(alphabet=st.one_of(st.characters(), st.sampled_from(SPECIALS)), max_size=120),
        st.sampled_from([None, TokenAlphabet(tuple("ab İ¶"), 4), TokenAlphabet(tuple(" Aaß"), 0)]),
    )
    def test_matches_the_character_loop(self, text, alphabet):
        assert tokenize(text, alphabet) == reference_tokenize(text, alphabet)


class TestTokenArray:
    """The code-point table tokenizer ``cmd_train`` reads a corpus with,
    against the character loop, on what ``st.characters()`` does not draw."""

    ALPHABETS = [None, TokenAlphabet(tuple("ab İ¶"), 4), TokenAlphabet(tuple(" Aaß\U0001f600"), 0)]

    @pytest.mark.parametrize("alphabet", ALPHABETS)
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "\udcff",
            "a\udcffb\ud800",
            "\ud83d\ude00",  # a surrogate pair left unjoined is two code points
            "\U0001f600",
            "x\U0010ffff",
            "\U0010ffffA\U0001f600a",
            "İ ẞ ß ﬁ Σ ŉ",  # case folds that expand to two characters, and ones that do not
            "AbC¶.\x00\n",
        ],
    )
    def test_matches_the_character_loop(self, text, alphabet):
        got = ngram._token_array(text, alphabet)
        assert got.dtype == np.int64 and got.shape == (len(text),)
        assert tuple(got.tolist()) == reference_tokenize(text, alphabet)
        assert tokenize(text, alphabet) == reference_tokenize(text, alphabet)

    def test_an_alphabet_without_a_blank_is_refused_for_any_text(self):
        for text in ("", "ab"):
            with pytest.raises(ValueError, match="no blank token"):
                ngram._token_array(text, TokenAlphabet(tuple("ab"), 1))

    def test_the_table_of_the_largest_code_point_stays_near_one_megabyte(self):
        tracemalloc.start()
        try:
            ngram._token_array("\U0010ffff")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * 2**20  # one uint8 entry per code point up to U+10FFFF


class TestTrain:
    def test_unsmoothed_hand_count(self):
        m = train_ngram(tokenize("abab"), order=2, alpha=0.0)
        assert m.conditional((a,))[b] == 1.0
        assert m.conditional((b,))[a] == 1.0

    def test_smoothed_hand_count(self):
        # context 'a' seen twice, both followed by 'b': (2+1)/(2+40)
        m = train_ngram(tokenize("abab"), order=2, alpha=1.0)
        assert m.conditional((a,))[b] == pytest.approx(3.0 / 42.0, abs=1e-12)

    def test_unigram_hand_count(self):
        m = train_ngram(tokenize("aab"), order=1, alpha=0.0)
        assert m.conditional(())[a] == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert m.conditional(())[b] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_context_count_reports_top_order(self):
        m = train_ngram(tokenize("abab"), order=2, alpha=0.0)
        assert m.context_count() == 2
        assert m.context_count(1) == 1

    def test_corpus_shorter_than_order_rejected(self):
        with pytest.raises(ValueError):
            train_ngram(tokenize("a"), order=2, alpha=0.0)

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            train_ngram(tokenize("abab"), order=0, alpha=0.0)
        with pytest.raises(ValueError):
            train_ngram(tokenize("abab"), order=2, alpha=-0.5)

    @pytest.mark.parametrize(
        "order, alpha, message",
        [
            (True, 0.1, "order must be an integer (got True)"),
            (2.5, 0.1, "order must be an integer (got 2.5)"),
            (0, 0.1, "order must be >= 1 (got 0)"),
            (2, True, "alpha must be a number (got True)"),
            (2, "0.1", "alpha must be a number (got '0.1')"),
            (2, -0.5, "alpha must be finite and >= 0 (got -0.5)"),
            (2, float("nan"), "alpha must be finite and >= 0 (got nan)"),
            (2, float("inf"), "alpha must be finite and >= 0 (got inf)"),
        ],
        ids=["bool-order", "float-order", "zero-order", "bool-alpha", "string-alpha", "negative-alpha", "nan-alpha",
             "infinite-alpha"],
    )
    def test_order_and_alpha_are_refused_before_counting(self, order, alpha, message):
        # True used to train an order-1 model and NaN to count the whole corpus first
        corpus = tokenize("abab")
        levels = train_ngram(corpus, order=2, alpha=0.1)._levels
        with patch.object(np, "bincount", side_effect=AssertionError("counted")):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                train_ngram(corpus, order, alpha)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            NGramModel(order, alpha, A, levels)

    def test_training_is_deterministic(self):
        m1 = train_ngram(tokenize("the cat sat"), order=3, alpha=0.2)
        m2 = train_ngram(tokenize("the cat sat"), order=3, alpha=0.2)
        assert m1.to_json_dict() == m2.to_json_dict()


class TestConditional:
    def test_uses_only_trailing_context(self):
        m = train_ngram(tokenize("abab"), order=2, alpha=0.0)
        np.testing.assert_array_equal(m.conditional((c, c, a)), m.conditional((a,)))

    def test_unseen_context_with_smoothing_is_uniform(self):
        m = train_ngram(tokenize("abab"), order=2, alpha=1.0)
        np.testing.assert_allclose(m.conditional((c,)), 1.0 / 40.0, atol=1e-15)

    def test_unsmoothed_unseen_context_backs_off(self):
        m = train_ngram(tokenize("abab"), order=3, alpha=0.0)
        # (b, b) never occurs; order 2 knows 'b' is always followed by 'a'
        assert m.conditional((b, b))[a] == 1.0
        # (c, c) unseen at every order above the unigram
        cond = m.conditional((c, c))
        assert cond[a] == pytest.approx(0.5)
        assert cond[b] == pytest.approx(0.5)

    def test_short_context_uses_matching_order(self):
        m = train_ngram(tokenize("abab"), order=3, alpha=0.0)
        assert m.conditional((a,))[b] == 1.0
        assert m.conditional(())[a] == pytest.approx(0.5)

    @given(
        st.text(alphabet="ab c.", min_size=4, max_size=60),
        st.integers(min_value=1, max_value=4),
        st.sampled_from([0.0, 0.1, 1.0]),
        st.lists(st.integers(min_value=0, max_value=39), max_size=5),
    )
    def test_conditional_is_a_distribution(self, text, order, alpha, context):
        m = train_ngram(tokenize(text), order=order, alpha=alpha)
        cond = m.conditional(tuple(context))
        assert cond.min() >= 0.0
        assert abs(cond.sum() - 1.0) <= 1e-9


class TestLogits:
    def test_softmax_round_trips_the_conditional(self):
        m = train_ngram(tokenize("the cat sat on the mat"), order=3, alpha=0.1)
        ctx = tokenize("he")
        np.testing.assert_allclose(softmax(m.logits_for(ctx), 1.0).masses, m.conditional(ctx), atol=1e-9)

    def test_onehot_conditional_survives_the_log(self):
        m = train_ngram(tokenize("abab"), order=2, alpha=0.0)
        z = m.logits_for((a,))
        assert np.isfinite(z).all()
        p = softmax(z, 1.0)
        assert p.masses[b] == pytest.approx(1.0, abs=1e-9)

    def test_backoff_makes_logits_total(self):
        m = train_ngram(tokenize("abab"), order=4, alpha=0.0)
        for ctx in [(), (c,), (c, c, c), tuple(range(8))]:
            z = m.logits_for(ctx)
            assert z.shape == (40,)
            assert np.isfinite(z).all()


class TestPersistence:
    def test_save_load_round_trip(self, tmp_path):
        m = train_ngram(tokenize("the cat sat on the mat."), order=3, alpha=0.3)
        path = tmp_path / "model.json"
        m.save(path)
        loaded = NGramModel.load(path)
        assert loaded.to_json_dict() == m.to_json_dict()
        ctx = tokenize("at")
        np.testing.assert_array_equal(loaded.conditional(ctx), m.conditional(ctx))

    def test_saved_document_is_versioned(self, tmp_path):
        m = train_ngram(tokenize("abab"), order=2, alpha=0.0)
        path = tmp_path / "model.json"
        m.save(path)
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert doc["format"] == "decodelab-ngram"
        assert doc["format_version"] == 1

    def test_future_version_is_rejected(self, tmp_path):
        m = train_ngram(tokenize("abab"), order=2, alpha=0.0)
        doc = m.to_json_dict()
        doc["format_version"] = 999
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ModelFormatError):
            NGramModel.load(path)

    def test_alien_document_is_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"format": "something-else", "format_version": 1}), encoding="utf-8")
        with pytest.raises(ModelFormatError):
            NGramModel.load(path)

    def test_malformed_json_is_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ModelFormatError):
            NGramModel.load(path)

    def test_missing_unigram_table_is_rejected(self):
        m = train_ngram(tokenize("abab"), order=2, alpha=0.0)
        doc = m.to_json_dict()
        del doc["counts"]["1"]
        with pytest.raises(ModelFormatError):
            NGramModel.from_json_dict(doc)

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            NGramModel.load(tmp_path / "absent.json")


class TestMemoizedLogits:
    def test_memoized_logits_are_read_only_and_shared(self):
        m = train_ngram(tokenize("the cat sat on the mat"), order=3, alpha=0.1)
        z = m.logits_for(tokenize("the"))
        assert not z.flags.writeable
        with pytest.raises(ValueError):
            z[0] = 0.0
        # the same trailing order-1 = 2 tokens, "he": the same array
        assert m.logits_for(tokenize("she")) is z
        assert m.logits_for(list(tokenize("he"))) is z

    def test_short_contexts_are_keyed_whole(self):
        m = train_ngram(tokenize("abab cab"), order=4, alpha=0.0)
        ref = reference_train_ngram(tokenize("abab cab"), order=4, alpha=0.0)
        for ctx in [(), (a,), (c, a), (b,), (a, b), (c, c, a, b)]:
            assert m.logits_for(ctx).tobytes() == ref.logits_for(ctx).tobytes()

    def test_a_full_memo_starts_over(self, monkeypatch):
        monkeypatch.setattr(ngram, "MEMO_CELLS", 2 * A.size)
        m = train_ngram(tokenize("the cat sat on the mat"), order=2, alpha=0.1)
        ref = reference_train_ngram(tokenize("the cat sat on the mat"), order=2, alpha=0.1)
        for ctx in [(a,), (b,), (c,), (a,), (BLANK,)]:
            assert m.logits_for(ctx).tobytes() == ref.logits_for(ctx).tobytes()
            assert len(m._memo) <= 2


# Small custom alphabets and the default one.  Corpora draw from a few
# symbols of the alphabet, so that contexts repeat and backoff has work.
ALPHABETS = [
    TokenAlphabet(tuple("ab"), 1),
    TokenAlphabet(tuple("xy¶"), 2),
    TokenAlphabet(tuple("ab ."), 3),
    TokenAlphabet(tuple("01234"), 0),
    A,
]


@st.composite
def trained_pairs(draw):
    """(shipped model, reference model, corpus, contexts to query)."""
    alphabet = draw(st.sampled_from(ALPHABETS))
    d = alphabet.size
    used = draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=min(d, 5), unique=True))
    order = draw(st.integers(1, 6))
    corpus = draw(st.lists(st.sampled_from(used), min_size=order, max_size=120))
    alpha = draw(st.sampled_from([0.0, 0.1, 1.0]))
    seen = [tuple(corpus[i : i + j]) for i in range(len(corpus)) for j in range(order + 2) if i + j <= len(corpus)]
    contexts = draw(st.lists(
        st.one_of(
            st.sampled_from(seen),  # seen windows, short and long
            st.lists(st.integers(0, d - 1), max_size=order + 2).map(tuple),  # mostly unseen
        ),
        min_size=1, max_size=12,
    ))
    return (train_ngram(corpus, order, alpha, alphabet), reference_train_ngram(corpus, order, alpha, alphabet),
            corpus, contexts)


def _same_bits(model, ref, contexts):
    for ctx in contexts:
        assert model.conditional(ctx).tobytes() == ref.conditional(ctx).tobytes()
        first = model.logits_for(ctx)
        assert first.tobytes() == ref.logits_for(ctx).tobytes()
        assert model.logits_for(ctx).tobytes() == first.tobytes()  # from the memo


class TestDenseMatchesReference:
    """The dense model against the frozen per-context model, bit for bit."""

    @settings(max_examples=300)
    @given(trained_pairs())
    def test_json_bytes_and_context_counts_match(self, pair):
        model, ref, _, _ = pair
        assert _dumps(model) == _dumps(ref)
        for m in range(0, model.order + 2):
            assert model.context_count(m) == ref.context_count(m)
        assert model.context_count() == ref.context_count()

    @settings(max_examples=300)
    @given(trained_pairs())
    def test_conditional_and_logit_bits_match(self, pair):
        model, ref, _, contexts = pair
        _same_bits(model, ref, contexts)

    @settings(max_examples=200)
    @given(trained_pairs())
    def test_load_of_save_round_trips(self, pair):
        model, ref, _, contexts = pair
        text = _dumps(model)
        loaded = NGramModel.from_json_dict(json.loads(text))
        assert _dumps(loaded) == text
        for (keys, counts), (trained_keys, trained_counts) in zip(loaded._levels, model._levels):
            assert keys == trained_keys and np.array_equal(counts, trained_counts)
        _same_bits(loaded, ReferenceNGramModel.from_json_dict(json.loads(text)), contexts)

    def test_benchmark_sized_corpus_matches(self):
        text = ("the cat sat on the mat. a hat, 42 rats ran.¶ " * 400)[:15_000]
        toks = tokenize(text)
        model, ref = train_ngram(toks, 5, 0.1), reference_train_ngram(toks, 5, 0.1)
        assert _dumps(model) == _dumps(ref)
        _same_bits(model, ref, [toks[i : i + 6] for i in range(0, 3000, 7)])

    @pytest.mark.parametrize(
        "corpus",
        [
            [0.0, 1.9, 2.5, -0.5, 1.0, 39.99],
            [True, False, True, True],
            [np.int8(3), np.uint64(1), np.int64(3), 2],
            np.array([5, 1, 5, 39], dtype=np.uint8),
            np.array([2.7, 0.2, 2.0]),
            "1213",
        ],
        ids=["floats", "bools", "numpy-ints", "uint8-array", "float-array", "digit-strings"],
    )
    def test_a_corpus_trains_as_its_int_form(self, corpus):
        ints = list(map(int, corpus))
        for order in (1, 2, 3):
            assert _dumps(train_ngram(corpus, order, 0.1)) == _dumps(train_ngram(ints, order, 0.1))
            assert _dumps(train_ngram(corpus, order, 0.1)) == _dumps(reference_train_ngram(corpus, order, 0.1))

    def test_token_checks_keep_their_messages(self):
        for corpus, order in [((0, 1, 40, -1), 2), ((0, 40, 1), 2), ((0, -3, 2**70), 1), ((0, 2**70, -3), 1), ((1,), 2)]:
            with pytest.raises(ValueError) as shipped:
                train_ngram(corpus, order, 0.1)
            with pytest.raises(ValueError) as frozen:
                reference_train_ngram(corpus, order, 0.1)
            assert str(shipped.value) == str(frozen.value)


class TestArrayCorpus:
    """``train_ngram`` counts an integer array as it is, with the same levels as
    its tuple, and refuses a bad array with the words of its list."""

    @settings(max_examples=100)
    @given(st.lists(st.integers(0, 39), min_size=1, max_size=200), st.integers(1, 6),
           st.sampled_from([np.int64, np.uint8, np.int32, np.uint64]))
    def test_an_array_trains_as_its_tuple(self, corpus, order, dtype):
        if len(corpus) < order:
            return
        array = np.array(corpus, dtype=dtype)
        from_array, from_tuple = train_ngram(array, order, 0.1), train_ngram(tuple(corpus), order, 0.1)
        assert array.tolist() == corpus  # the corpus is not written to
        for (contexts, counts), (want_contexts, want_counts) in zip(from_array._levels, from_tuple._levels):
            assert contexts == want_contexts
            assert counts.dtype == want_counts.dtype == np.int64 and np.array_equal(counts, want_counts)

    def test_the_tokenized_benchmark_corpus_trains_as_its_tuple(self):
        text = ("The cat sat on the mat. A hat, 42 rats ran.¶ " * 400)[:15_000]
        assert _dumps(train_ngram(ngram._token_array(text), 5, 0.1)) == _dumps(train_ngram(tokenize(text), 5, 0.1))

    @pytest.mark.parametrize(
        "corpus, order",
        [
            (np.array([0, 2**64 - 1, 3], dtype=np.uint64), 2),
            (np.array([0, 1, -1, 5], dtype=np.int64), 2),
            (np.array([40, 0], dtype=np.int64), 1),
            (np.array([3], dtype=np.int64), 2),
            (np.array([], dtype=np.int64), 1),
        ],
        ids=["uint64-max", "int64-minus-one", "past-the-alphabet", "too-short", "empty"],
    )
    def test_a_bad_array_is_refused_as_its_list(self, corpus, order):
        with pytest.raises(ValueError) as from_array:
            train_ngram(corpus, order, 0.1)
        with pytest.raises(ValueError) as from_list:
            train_ngram(corpus.tolist(), order, 0.1)
        assert str(from_array.value) == str(from_list.value)
        with pytest.raises(ValueError) as frozen:
            reference_train_ngram(corpus.tolist(), order, 0.1)
        assert str(from_array.value) == str(frozen.value)


def _edit(doc, path, value):
    """A copy of ``doc`` with the entry at ``path`` replaced; a path that ends
    in ``("rename", old)`` moves that entry of a dict to the key ``value``."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for step in path[:-1]:
        node = node[step]
    last = path[-1]
    if isinstance(last, tuple):
        node[value] = node.pop(last[1])
    else:
        node[last] = value
    return doc


class TestLoaderMatchesReference:
    """Every rejection keeps its message, and every accepted document loads
    to the same counts, on single edits of a real model document."""

    DOC = ReferenceNGramModel.to_json_dict(reference_train_ngram(tokenize("abab cab."), 3, 0.1))
    VALUES = [None, True, False, -1, 0, 1, 7, 2.5, 4.0, "x", "1", [], [1], {}, {"0": 1}, {"0": 2.5},
              2**63 - 1]
    KEYS = ["", "0", "1", "01", " 1", "+1", "1_0", "-1", "40", "99", "a", "1,", ",", "0,1", "1,0", "01,1"]

    @staticmethod
    def _outcome(cls, doc):
        try:
            model = cls.from_json_dict(doc)
        except ModelFormatError as exc:
            return "error", str(exc)
        contexts = [(), (a,), (b,), (a, b), (c, a), (BLANK, c), (b, a, b)]
        return "model", _dumps(model), model.context_count(), [model.logits_for(x).tobytes() for x in contexts]

    @staticmethod
    def _unwritten_key(doc):
        """The refusal of the first count-table key, in document order, that
        ``save`` cannot have written, or None."""
        written = {str(t) for t in range(A.size)}
        counts = doc.get("counts")
        for m_str, level in counts.items() if isinstance(counts, dict) else ():
            for key, sparse in level.items() if isinstance(level, dict) else ():
                if key and not written.issuperset(key.split(",")):
                    return "error", f"bad context key {key!r} for order {int(m_str)}"
                for tok_str, count in sparse.items() if isinstance(sparse, dict) else ():
                    if tok_str not in written:
                        return "error", f"bad count entry {tok_str!r}: {json.dumps(count)}"
        return None

    @classmethod
    def _frozen_outcome(cls, doc):
        """The frozen loader's outcome, but for two intended changes:

        * a key that ``save`` cannot have written (``"01"``, ``"+1"``, ``"a"``,
          ``"1,"``) is refused with the message naming it, where that loader
          parsed it with ``int()``.  In a single edit such a key is the
          document's only defect, so no other refusal comes before it;
        * a context whose counts sum past 2^63 - 1 is refused, where that
          loader let the int64 row total wrap negative.
        """
        unwritten = cls._unwritten_key(doc)
        if unwritten is not None:
            return unwritten
        try:
            tables = ReferenceNGramModel.from_json_dict(doc)._tables
        except ModelFormatError:
            tables = {}
        for m in sorted(tables):
            for ctx in sorted(tables[m]):
                if sum(tables[m][ctx].tolist()) > 2**63 - 1:
                    return "error", f"counts of context {','.join(map(str, ctx))!r} sum past 2^63 - 1"
        return cls._outcome(ReferenceNGramModel, doc)

    @settings(max_examples=300)
    @given(st.data())
    def test_single_edits(self, data):
        doc = self.DOC
        level = data.draw(st.sampled_from(["1", "2", "3"]))
        key = data.draw(st.sampled_from(sorted(doc["counts"][level])))
        tok = data.draw(st.sampled_from(sorted(doc["counts"][level][key])))
        kind = data.draw(st.sampled_from(["count", "token", "context", "counts of a context", "table", "field"]))
        if kind == "count":
            edited = _edit(doc, ["counts", level, key, tok], data.draw(st.sampled_from(self.VALUES)))
        elif kind == "token":
            edited = _edit(doc, ["counts", level, key, ("rename", tok)], data.draw(st.sampled_from(self.KEYS)))
        elif kind == "context":
            edited = _edit(doc, ["counts", level, ("rename", key)], data.draw(st.sampled_from(self.KEYS)))
        elif kind == "counts of a context":
            edited = _edit(doc, ["counts", level, key], data.draw(st.sampled_from(self.VALUES)))
        elif kind == "table":
            edited = _edit(doc, ["counts", level], data.draw(st.sampled_from(self.VALUES)))
        else:
            field = data.draw(st.sampled_from([["order"], ["alpha"], ["alphabet", "eos_index"], ["counts"]]))
            edited = _edit(doc, field, data.draw(st.sampled_from(self.VALUES)))
        assert self._outcome(NGramModel, edited) == self._frozen_outcome(edited)

    @pytest.mark.parametrize("spelling", ["01", " 1", "+1", "1_0", "\u0661", "1,", ",1"])
    def test_keys_save_cannot_write_are_refused(self, spelling):
        # int() reads all but the last two as a token (the frozen loader took
        # "01" and "\u0661" as token 1), but save spells token 1 as "1" only.
        doc = _edit(self.DOC, ["counts", "1", "", ("rename", str(b))], spelling)
        with pytest.raises(ModelFormatError, match=rf"^bad count entry {re.escape(repr(spelling))}: \d+$"):
            NGramModel.from_json_dict(doc)
        for m, context in [(2, spelling), (3, f"{a},{spelling}"), (3, f"{spelling},{a}")]:
            doc = _edit(self.DOC, ["counts", str(m), ("rename", str(b) if m == 2 else f"{a},{b}")], context)
            with pytest.raises(ModelFormatError, match=rf"^bad context key {re.escape(repr(context))} for order {m}$"):
                NGramModel.from_json_dict(doc)

    def test_count_beyond_int64_is_a_format_error(self):
        # The per-context loader raised OverflowError here (a traceback, exit 1).
        doc = _edit(self.DOC, ["counts", "1", "", str(a)], 2**63)
        with pytest.raises(ModelFormatError, match=r"^bad count entry '0': 9223372036854775808$"):
            NGramModel.from_json_dict(doc)

    def test_counts_summing_past_int64_are_a_format_error(self):
        # Both loaders took this document, and its int64 unigram total wrapped
        # to -2^63: conditional(()) gave masses of -0.5.
        doc = _edit(self.DOC, ["counts", "1", ""], {str(a): 2**62, str(b): 2**62})
        with pytest.raises(ModelFormatError, match=r"^counts of context '' sum past 2\^63 - 1$"):
            NGramModel.from_json_dict(doc)
        assert self._frozen_outcome(doc) == self._outcome(NGramModel, doc)
        doc = _edit(self.DOC, ["counts", "2", str(a)], {str(a): 2**63 - 1, str(b): 1})
        with pytest.raises(ModelFormatError, match=rf"^counts of context '{a}' sum past 2\^63 - 1$"):
            NGramModel.from_json_dict(doc)

    def test_counts_summing_to_int64_max_load(self):
        doc = _edit(self.DOC, ["counts", "1", ""], {str(a): 2**62, str(b): 2**62 - 1})
        masses = NGramModel.from_json_dict(doc).conditional(())
        assert masses.min() > 0 and masses[a] == pytest.approx(0.5)


def _level_outcome(parse, m, level, tok_of):
    """A parser's count table for order ``m``, or its refusal."""
    try:
        contexts, matrix = parse(m, level, tok_of)
    except ModelFormatError as exc:
        return "error", str(exc)
    return "level", contexts, matrix.dtype, matrix.shape, matrix.tobytes()


def _loop_must_not_run(m, level, tok_of):
    raise AssertionError(f"the per-entry loop ran on the order-{m} table")


#: An alphabet past 255 symbols gives the bulk pass's context columns a wider dtype.
BULK_ALPHABETS = ALPHABETS + [TokenAlphabet(tuple(chr(0x4E00 + i) for i in range(300)), 7)]


@st.composite
def model_documents(draw):
    """The document of a model trained on a random corpus, and its token keys."""
    alphabet = draw(st.sampled_from(BULK_ALPHABETS))
    size = alphabet.size
    used = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=min(size, 6), unique=True))
    order = draw(st.integers(1, 5))
    corpus = draw(st.lists(st.sampled_from(used), min_size=order, max_size=80))
    doc = train_ngram(corpus, order, 0.1, alphabet).to_json_dict()
    return doc, {str(t): t for t in range(size)}


def _document(text, order):
    """The document of a model trained on ``text``, and its token keys."""
    return train_ngram(tokenize(text), order, 0.1).to_json_dict(), {str(t): t for t in range(A.size)}


class TestBulkLoaderMatchesLoop:
    """``_parse_level`` checks a count table in bulk and falls back to the
    per-entry loop, ``_checked_level``.  On real documents and on single edits
    of them, both give the same contexts and matrix or the same first refusal,
    the bulk pass never takes a table the loop refuses, and a real document
    never reaches the loop."""

    VALUES = [None, True, False, -1, 0, 1, 2.5, 4.0, "1", [], {}, {"0": 1}, 2**62, 2**63 - 1, 2**63, 2**64,
              -2**63, -2**63 - 1]
    KEYS = ["", "0", "1", "01", " 1", "+1", "-1", "40", "299", "300", "a", "1,", ",", "0,1", "1,0", "0,0,0", "0,,1",
            # Keys the byte pass must leave to the loop: non-ASCII digits, a
            # separator or a NUL inside a key, a part too long for any token,
            # and an empty part at either end.
            "\u0663", "\uff11", "1;2", "1\n2", "\0", "1\0", "1" * 30, ",1", "0,1,", ",0,1"]

    @staticmethod
    def _move_a_part(level, key, other):
        """``level`` with the last part of context ``key`` moved to the end of
        ``other``, a context or a token key of ``key``'s counts: the table's
        number of parts stays the same, but two keys have the wrong arity."""
        parts = key.split(",")
        moved = {key: ",".join(parts[:-1])}
        if other in level:
            moved[other] = other + "," + parts[-1]
            return {moved.get(k, k): v for k, v in level.items()}
        edited = {moved.get(k, k): v for k, v in level.items()}
        edited[moved[key]] = {(other + "," + parts[-1] if t == other else t): c for t, c in level[key].items()}
        return edited

    @staticmethod
    def _check_every_level(doc, tok_of):
        for m_str, level in doc["counts"].items():
            if not isinstance(level, dict):
                continue
            m = int(m_str)
            loop = _level_outcome(ngram._checked_level, m, level, tok_of)
            assert _level_outcome(ngram._parse_level, m, level, tok_of) == loop
            bulk = ngram._bulk_level(m, level, tok_of)
            if bulk is not None:
                assert loop == _level_outcome(lambda *_: bulk, m, level, tok_of)

    @settings(max_examples=300)
    @given(model_documents(), st.data())
    def test_single_edits(self, document, data):
        doc, tok_of = document
        m_str = data.draw(st.sampled_from(sorted(doc["counts"])))
        level = doc["counts"][m_str]
        key = data.draw(st.sampled_from(sorted(level)))
        toks = sorted(level[key])
        kind = data.draw(st.sampled_from(["count", "token", "context", "counts of a context", "row total", "extra",
                                          "move a part"]))
        if kind == "count":
            edited = _edit(doc, ["counts", m_str, key, data.draw(st.sampled_from(toks))],
                           data.draw(st.sampled_from(self.VALUES)))
        elif kind == "token":
            edited = _edit(doc, ["counts", m_str, key, ("rename", data.draw(st.sampled_from(toks)))],
                           data.draw(st.sampled_from(self.KEYS)))
        elif kind == "context":
            edited = _edit(doc, ["counts", m_str, ("rename", key)], data.draw(st.sampled_from(self.KEYS)))
        elif kind == "counts of a context":
            edited = _edit(doc, ["counts", m_str, key], data.draw(st.sampled_from(self.VALUES)))
        elif kind == "row total":  # just past 2^63 - 1, or at it
            top = data.draw(st.sampled_from([2**62, 2**62 - 1, 2**63 - 1]))
            edited = _edit(doc, ["counts", m_str, key], {t: top if i == 0 else 2**62 for i, t in enumerate(toks)})
        elif kind == "extra":  # one more context, its key drawn like a renamed one
            edited = _edit(doc, ["counts", m_str, data.draw(st.sampled_from(self.KEYS))], {toks[0]: 1})
        else:  # from a context of order 2 or more to another context or to one of its token keys
            assume(m_str != "1")
            other = data.draw(st.sampled_from(sorted(set(level) - {key}) + toks))
            edited = _edit(doc, ["counts", m_str], self._move_a_part(level, key, other))
        self._check_every_level(edited, tok_of)

    @pytest.mark.parametrize("spelling", ["01", "007", "\u0663", "\uff11", "1;2", "1\n2", "\0", "1\0", "1" * 30,
                                          ",1", "1,", ""])
    def test_keys_the_byte_pass_leaves_to_the_loop(self, spelling):
        doc, tok_of = _document("abcabd", 3)
        for m_str, level in doc["counts"].items():
            key = sorted(level)[-1]
            edits = [{**level, key: {spelling: 1}}]  # a token key
            if m_str != "1":
                context = ",".join(key.split(",")[:-1] + [spelling])
                edits.append({(context if k == key else k): v for k, v in level.items()})
            m = int(m_str)
            for edited in edits:
                assert ngram._bulk_level(m, edited, tok_of) is None
                outcome = _level_outcome(ngram._parse_level, m, edited, tok_of)
                assert outcome[0] == "error" and outcome == _level_outcome(ngram._checked_level, m, edited, tok_of)

    def test_a_part_moved_between_keys_is_refused(self):
        doc, tok_of = _document("abcabd", 3)
        level = doc["counts"]["3"]
        first, second = sorted(level)[:2]
        for other in (second, sorted(level[first])[0]):
            edited = self._move_a_part(level, first, other)
            assert ngram._bulk_level(3, edited, tok_of) is None
            outcome = _level_outcome(ngram._parse_level, 3, edited, tok_of)
            assert outcome[0] == "error" and outcome == _level_outcome(ngram._checked_level, 3, edited, tok_of)

    @settings(max_examples=150)
    @given(model_documents())
    def test_real_documents_never_reach_the_loop(self, document):
        doc, tok_of = document
        self._check_every_level(doc, tok_of)
        text = json.dumps(doc, sort_keys=True, indent=2)
        with patch.object(ngram, "_checked_level", _loop_must_not_run):
            assert _dumps(NGramModel.from_json_dict(json.loads(text))) == text

    def test_a_benchmark_sized_document_never_reaches_the_loop(self):
        text = ("the cat sat on the mat. a hat, 42 rats ran.¶ " * 400)[:15_000]
        model = train_ngram(tokenize(text), 5, 0.1)
        with patch.object(ngram, "_checked_level", _loop_must_not_run):
            assert _dumps(NGramModel.from_json_dict(model.to_json_dict())) == _dumps(model)

    @pytest.mark.parametrize(
        "table, refusal",
        [
            ({"0": 2**62, "1": 2**62}, "counts of context '' sum past 2^63 - 1"),
            ({"0": 2**63 - 1, "1": 1}, "counts of context '' sum past 2^63 - 1"),
            ({"0": 2**63, "1": 1}, "bad count entry '0': 9223372036854775808"),
            ({"0": 1, "1": -2**63}, "bad count entry '1': -9223372036854775808"),
            ({"0": 2**62, "1": 2**62 - 1}, None),  # at 2^63 - 1: the bulk pass leaves it to the loop, which loads it
        ],
        ids=["total-2^63", "total-2^63-via-max", "count-2^63", "count--2^63", "total-2^63-1"],
    )
    def test_counts_at_the_int64_edges(self, table, refusal):
        tok_of = {str(t): t for t in range(3)}
        assert ngram._bulk_level(1, {"": table}, tok_of) is None
        outcome = _level_outcome(ngram._parse_level, 1, {"": table}, tok_of)
        assert outcome == _level_outcome(ngram._checked_level, 1, {"": table}, tok_of)
        if refusal is None:
            assert outcome[0] == "level" and sum(np.frombuffer(outcome[4], dtype=np.int64).tolist()) == 2**63 - 1
        else:
            assert outcome == ("error", refusal)


class TestCountCellCap:
    def test_at_the_cap_loads_and_one_more_cell_is_refused(self, monkeypatch):
        model = train_ngram(tokenize("abab"), order=2, alpha=0.0)
        doc = model.to_json_dict()  # 1 + 2 contexts x 40 symbols = 120 cells
        monkeypatch.setattr(ngram, "MAX_COUNT_CELLS", 120)
        assert _dumps(NGramModel.from_json_dict(doc)) == _dumps(model)
        assert _dumps(train_ngram(tokenize("abab"), order=2, alpha=0.0)) == _dumps(model)
        monkeypatch.setattr(ngram, "MAX_COUNT_CELLS", 119)
        message = r"^the model needs 120 count cells \(contexts x alphabet size\), above the cap of 119$"
        with pytest.raises(ModelFormatError, match=message):
            NGramModel.from_json_dict(doc)
        with pytest.raises(ValueError, match=message):
            train_ngram(tokenize("abab"), order=2, alpha=0.0)

    def test_a_document_one_cell_over_the_cap_is_refused_before_allocating(self):
        assert ngram.MAX_COUNT_CELLS == 2**24
        # 673 symbols x (1 + 24,928) contexts = 2**24 + 1 cells, in a 0.4 MB document
        symbols = "".join(chr(0x4E00 + i) for i in range(673))
        trigrams = {f"{i // 673},{i % 673}": {"0": 1} for i in range(24_928)}
        doc = {"format": "decodelab-ngram", "format_version": 1, "order": 3, "alpha": 0.1,
               "alphabet": {"symbols": symbols, "eos_index": 0},
               "counts": {"1": {"": {"0": 1}}, "2": {}, "3": trigrams}}
        tracemalloc.start()
        try:
            with pytest.raises(ModelFormatError, match=r"needs 16777217 count cells .* above the cap of 16777216$"):
                NGramModel.from_json_dict(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20  # the refused matrices alone would take 128 MiB
