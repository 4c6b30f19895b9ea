"""The JSON value rules the three readers share, one refusal and one wording,
the echo of a refused value, and the spelling of the model and trace files."""

import json
import logging
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decodelab import (
    GenerationResult,
    ModelFormatError,
    NGramModel,
    RandomStream,
    SampleTrace,
    SamplerConfig,
    StageRecord,
    TokenAlphabet,
    generate,
    run_pipeline,
    tokenize,
)
from decodelab.autoregress import FORMAT_NAME, FORMAT_VERSION, STOP_EOS, STOP_MAX_LEN
from decodelab.cli import EXIT_OK, EXIT_USAGE, main
from decodelab.jsonvalues import (
    ECHO_CHARS,
    _FloatSpellings,
    array_parts,
    cut,
    dumps,
    echo,
    echo_repr,
    member,
    spell_array,
    spell_object,
)
from decodelab.ngram import train_ngram
from decodelab.sampler import STAGE_MIN_P, STAGE_SOFTMAX, STAGE_TOP_P, STAGES, spell_traces, trace_parts

MODEL_DOC = train_ngram(tokenize("abab cab."), 2, 0.1).to_json_dict()
TRACE_DOC = run_pipeline(np.array([3.0, 2.0, 1.0, -9.0]), SamplerConfig(1.0, 3), RandomStream(5))[1].to_json_dict()

#: ``FIELDS[reader][kind] = (field, name in the refusal, the field's kind)``; a
#: None field is the whole document.
FIELDS = {
    "model": {
        "integer": ("order", "order", "integer"),
        "number": ("alpha", "alpha", "number"),
        "object": ("counts", "counts", "object"),
    },
    "trace": {
        "integer": ("drawn_token", "drawn_token", "integer"),
        "number": ("drawn_uniform", "drawn_uniform", "number or null"),
        "object": (None, "trace", "object"),
    },
    "config": {
        "integer": ("top_k", "config key 'top_k'", "integer"),
        "number": ("top_p", "config key 'top_p'", "number"),
        "object": (None, "config file", "object"),
    },
}


def _refusal(reader, field, x, tmp_path, capsys) -> str:
    if reader == "model":
        with pytest.raises(ModelFormatError) as exc:
            NGramModel.from_json_dict({**MODEL_DOC, field: x})
        return str(exc.value)
    if reader == "trace":
        with pytest.raises(ValueError) as exc:
            SampleTrace.from_json_dict(x if field is None else {**TRACE_DOC, field: x})
        assert not isinstance(exc.value, ModelFormatError)
        return str(exc.value)
    model, config = tmp_path / "model.json", tmp_path / "cfg.json"
    model.write_text(json.dumps(MODEL_DOC), encoding="utf-8")
    config.write_text(json.dumps(x if field is None else {field: x}), encoding="utf-8")
    assert main(["generate", str(model), "--max-len", "2", "--config", str(config)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    return err[len("error: "):-1]


@pytest.mark.parametrize("reader", sorted(FIELDS))
@pytest.mark.parametrize(
    "kind, x, refusal",
    [
        ("integer", True, "{name} must be a JSON {kind} (got true)"),
        ("integer", 2.5, "{name} must be a JSON {kind} (got 2.5)"),
        ("number", "0.5", '{name} must be a JSON {kind} (got "0.5")'),
        ("object", [1], "{name} must be a JSON {kind} (got list)"),
        ("number", 10**400, "{name} is beyond the float range"),
    ],
    ids=["integer-true", "integer-2.5", "number-string", "object-list", "number-past-float"],
)
def test_the_three_readers_word_a_refusal_alike(tmp_path, capsys, reader, kind, x, refusal):
    field, name, field_kind = FIELDS[reader][kind]
    assert _refusal(reader, field, x, tmp_path, capsys) == refusal.format(name=name, kind=field_kind)


def test_echo_cuts_a_long_or_deep_value():
    deep = []
    for _ in range(100_000):
        deep = [deep]
    with pytest.raises(RecursionError):
        json.dumps(deep)
    assert echo(deep) == "[" * ECHO_CHARS + "..."
    assert echo([1] * 200_000) == ("[" + "1, " * ECHO_CHARS)[:ECHO_CHARS] + "..."
    short = {"a": [1, 2.5, None, True, "\u00e9"]}
    assert echo(short) == json.dumps(short)


def test_echo_repr_keeps_a_short_value_and_cuts_a_long_or_deep_one():
    shorts = [{"a": [1, 2.5, None, True, "\u00e9"], "b": {}}, "it's", 'say "x"', 2**70, -0.0, "x" * (ECHO_CHARS - 2)]
    for short in shorts:
        assert echo_repr(short) == repr(short)
    deep = []
    for _ in range(100_000):
        deep = [deep]
    assert echo_repr(deep) == "[" * ECHO_CHARS + "..."
    assert echo_repr([0] * 200_000) == ("[" + "0, " * ECHO_CHARS)[:ECHO_CHARS] + "..."
    assert echo_repr("x" * 200_000) == "'" + "x" * (ECHO_CHARS - 1) + "..."
    assert echo_repr({"k" * 200_000: 1}) == "{'" + "k" * (ECHO_CHARS - 2) + "..."
    assert echo_repr("\x00" * ECHO_CHARS) == repr("\x00" * ECHO_CHARS)[:ECHO_CHARS] + "..."


def test_cut_takes_no_part_past_the_cut():
    def parts():
        yield "a" * ECHO_CHARS
        yield "b"
        raise AssertionError("a part past the cut was taken")

    assert cut(parts()) == "a" * ECHO_CHARS + "..."
    assert cut(["ab", "", "c"]) == "abc"


@pytest.mark.parametrize("items", [[], ["1"], ["1", "[]", '"x"']])
@pytest.mark.parametrize("depth", [0, 2])
def test_array_parts_is_spell_array_in_parts(items, depth):
    parts = list(array_parts(iter(items), depth))
    assert "".join(parts) == spell_array(items, depth)
    assert len(parts) == len(items) + 1 if items else parts == ["[]"]


def reference_dumps(x) -> str:
    """How the model and trace files were spelled before ``jsonvalues`` spelled them."""
    return json.dumps(x, sort_keys=True, indent=2)


def compose(x, depth: int = 0, floats: _FloatSpellings | None = None) -> str:
    """``x`` spelled as the writers spell a file: objects and arrays laid out by
    ``member``, ``spell_object`` and ``spell_array``, floats by one
    ``_FloatSpellings`` per document, other scalars by ``dumps``."""
    floats = _FloatSpellings() if floats is None else floats
    if type(x) is dict:
        return spell_object([member(k, compose(x[k], depth + 1, floats)) for k in sorted(x)], depth)
    if type(x) is list:
        return spell_array([compose(v, depth + 1, floats) for v in x], depth)
    return floats[x] if type(x) is float else dumps(x)


#: Floats drawn from a small pool repeat within a document, as a trace's do.
_float_pool = st.sampled_from([0.0, -0.0, 0.5, -0.5, 0.1, 1 / 3, 5e-324, -5e-324, 1e308, -1e308, 1e16, 1e-7])
_floats = st.one_of(st.floats(allow_nan=False, allow_infinity=False), _float_pool)
_ints = st.one_of(st.integers(), st.integers(min_value=2**64 - 2, max_value=2**64 + 2), st.integers(-(2**200), 2**200))
#: Keys and strings with non-ASCII and control characters, quotes and backslashes.
_text = st.one_of(st.text(), st.text(alphabet=st.sampled_from("a\x00\x1f\x7f\n\t\"\\/é€\u2028\U0001f600"), max_size=6))
_scalars = st.one_of(st.none(), st.booleans(), _ints, _floats, _text)
#: Lists of one number type, as the writers' arrays are.
_leaves = st.one_of(_scalars, st.lists(_floats, max_size=8), st.lists(_ints, max_size=8),
                    st.lists(st.sampled_from([0, 1, True, False, 1.0, -0.0, 0.0, None]), max_size=6))
json_values = st.recursive(_leaves, lambda inner: st.one_of(st.lists(inner, max_size=5),
                                                            st.dictionaries(_text, inner, max_size=5)),
                           max_leaves=30)


class TestDumpsMatchesJsonDumps:
    """The layout helpers, ``_FloatSpellings`` and the scalar ``dumps`` compose
    to ``json.dumps(sort_keys=True, indent=2)`` for any JSON value."""

    @settings(max_examples=400)
    @given(json_values)
    def test_same_string_as_json_dumps(self, x):
        assert compose(x) == reference_dumps(x)

    @pytest.mark.parametrize("x", [
        {}, [], "", 0, -0.0, None, True,
        {"a": {}, "b": [], "c": {"d": {}, "e": [[]], "f": [{}]}},
        [[], {}, [[], [{}]], {"": {"": []}}],
        [1, True, 1.0, None], [True, False], [1, True], [0, False, 0.0, -0.0],
        [0.0, -0.0, 0.0, -0.0], {"a": [-0.0, 1.5], "b": [0.0, 1.5], "c": -0.0, "d": 0.0, "e": [0.0, -0.0]},
        {"a": [0.0, 1.0], "b": [-0.0, 1.0]}, {"a": 0.0, "b": [-0.0]}, [-0.0, [0.0], 0.0, [-0.0]],
        [5e-324, -5e-324, 1e308, 1.7976931348623157e308, 1e16, 1e-7, 0.1],
        [2**64, 2**64 + 1, -(2**70), 10**60], {"n": 2**64 + 1},
        {"é\x00\n\u2028\U0001f600": "\x1f\"\\/\x7f", "\t": ["\u00e9", "\ud7ff"]},
        {"b": 1, "a": 2, "B": 3, "": 4, "é": 5, "a\x00": 6},
    ], ids=repr)
    def test_named_values(self, x):
        assert compose(x) == reference_dumps(x)
        if type(x) not in (dict, list):
            assert dumps(x) == json.dumps(x)

    @pytest.mark.parametrize("x", [
        float("nan"), float("inf"), float("-inf"), [1.0, float("nan")], [float("inf")], [1, "a", float("-inf")],
        {"a": {"b": [0.5, float("nan")]}},
    ], ids=repr)
    def test_nan_and_the_infinities_raise_value_error(self, x):
        with pytest.raises(ValueError, match="^JSON has no spelling for the float"):
            compose(x)  # through _FloatSpellings
        if type(x) is float:
            with pytest.raises(ValueError, match="^JSON has no spelling for the float"):
                dumps(x)

    @pytest.mark.parametrize("x", [
        (1, 2), [1, (2,)], {"a": (1.0,)}, {1: "a"}, {"a": 1, 2: "b"}, {None: 1}, {(1, 2): 3}, {1.5: 1},
        {1, 2}, b"a", np.float64(0.5), [np.int64(1)], object(),
        [], {}, [1.0], {"a": 1}, np.int64(1), np.bool_(True),
    ], ids=repr)
    def test_other_types_and_keys_raise_type_error(self, x):
        # dumps spells one scalar: every container is a TypeError
        with pytest.raises(TypeError):
            dumps(x)

    def test_a_zero_is_never_spelled_as_the_other_zero(self):
        # the float memo keys 0.0 and -0.0 alike, so it must keep neither
        doc = [0.0, -0.0, [0.0, -0.0], [-0.0, 0.0], {"a": -0.0, "b": 0.0}]
        assert compose(doc) == reference_dumps(doc)
        assert compose(doc).count("-0.0") == 4


#: Non-ASCII and control characters, which tokenize folds or maps to a blank.
CORPUS = "the cat sat on the mat. the cat ate the rat. \u00c9t\u00e9 \x00\n"


class TestFilesAreSpelledAsJsonDumps:
    """The model and trace files: exactly ``json.dumps(sort_keys=True, indent=2)`` plus a newline."""

    @staticmethod
    def _doc_bytes(path):
        return (reference_dumps(json.loads(path.read_text(encoding="utf-8"))) + "\n").encode("utf-8")

    @pytest.mark.parametrize("alpha", ["-0.0", "0.1", "1e-300", "0"])
    def test_model_file(self, tmp_path, capsys, alpha):
        corpus, model = tmp_path / "corpus.txt", tmp_path / "model.json"
        corpus.write_text(CORPUS, encoding="utf-8")
        assert main(["train", str(corpus), str(model), "--order", "3", "--alpha", alpha]) == EXIT_OK
        assert model.read_bytes() == self._doc_bytes(model)
        assert json.loads(model.read_bytes())["alpha"] == float(alpha)
        assert (b'"alpha": -0.0,' in model.read_bytes()) == (alpha == "-0.0")

    @pytest.mark.parametrize("alpha", ["nan", "inf", "-inf"])
    def test_no_model_holds_a_float_json_cannot_spell(self, tmp_path, capsys, alpha):
        corpus, model = tmp_path / "corpus.txt", tmp_path / "model.json"
        corpus.write_text(CORPUS, encoding="utf-8")
        assert main(["train", str(corpus), str(model), f"--alpha={alpha}"]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: alpha must be ")
        assert not model.exists()

    @pytest.mark.parametrize("flags", [
        ["--temp", "1.1", "--top-k", "12", "--top-p", "0.9", "--min-p", "0.05"],
        ["--temp", "0"],
    ], ids=["sampled", "argmax"])
    def test_trace_file(self, tmp_path, capsys, flags):
        corpus, model, trace = tmp_path / "corpus.txt", tmp_path / "model.json", tmp_path / "trace.json"
        corpus.write_text(CORPUS, encoding="utf-8")
        assert main(["train", str(corpus), str(model), "--order", "3", "--alpha", "0.05"]) == EXIT_OK
        assert main(["generate", str(model), "--prompt", "the \u00e9", "--seed", "4", "--max-len", "60",
                     "--trace-out", str(trace), *flags]) == EXIT_OK
        assert trace.read_bytes() == self._doc_bytes(trace)
        assert json.loads(trace.read_bytes())["traces"]


#: Glyphs for custom alphabets, non-ASCII ones (a BMP glyph past Latin-1 and
#: one outside the BMP, spelled as a surrogate pair) among them.
_GLYPHS = "abcdefghijklmnopqrstuvwxyz0123456789 .,\u00e9\u20ac\u4e2d\U0001f600"


def _file(write) -> bytes:
    """The bytes ``write(path)`` puts in a file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "out.json"
        write(path)
        return path.read_bytes()


def _reference(doc) -> bytes:
    return (reference_dumps(doc) + "\n").encode("utf-8")


def _model_file(model) -> bytes:
    text = _file(model.save)
    assert text == _reference(model.to_json_dict())
    return text


def _trace_file(result, alphabet) -> bytes:
    doc = {"format": FORMAT_NAME, "format_version": FORMAT_VERSION, **result.to_json_dict(alphabet)}
    text = _file(lambda path: result.save(path, alphabet))
    assert text == _reference(doc)
    return text


@st.composite
def models(draw):
    """A model trained on a random corpus over a custom alphabet, up to order 12."""
    size = draw(st.integers(2, 14))
    glyphs = draw(st.permutations(_GLYPHS))[:size]
    alphabet = TokenAlphabet(tuple(glyphs), eos_index=draw(st.integers(0, size - 1)))
    order = draw(st.integers(1, 12))
    corpus = draw(st.lists(st.integers(0, size - 1), min_size=order, max_size=order + 40))
    alpha = draw(st.sampled_from([0.0, -0.0, 0.1, 1.0, 1e-300, 1 / 3]))
    return train_ngram(corpus, order, alpha, alphabet)


class TestWritersMatchTheDictForms:
    """``NGramModel.save`` and ``GenerationResult.save`` spell their files from
    the arrays; the bytes are those of ``json.dumps(sort_keys=True, indent=2)``
    of ``to_json_dict`` and a newline."""

    @settings(max_examples=150)
    @given(models(), st.data())
    def test_model_file(self, model, data):
        _model_file(model)
        # The same model loaded back, with a count table emptied or a context
        # whose table is {} added: the loader takes both, save drops the context.
        if model.order < 2:
            return
        m = data.draw(st.integers(2, model.order))
        doc = model.to_json_dict()
        if data.draw(st.booleans()):
            doc["counts"][str(m)] = {}
        else:
            ctx = data.draw(st.lists(st.integers(0, model.alphabet.size - 1), min_size=m - 1, max_size=m - 1))
            doc["counts"][str(m)][",".join(map(str, ctx))] = {}
        _model_file(NGramModel.from_json_dict(doc))

    @settings(max_examples=150)
    @given(models(), st.data())
    def test_trace_file(self, model, data):
        size = model.alphabet.size
        cfg = SamplerConfig(
            data.draw(st.sampled_from([0.0, 1e-3, 0.5, 1.0, 2.0])),
            data.draw(st.integers(1, size + 2)),
            data.draw(st.sampled_from([0.05, 0.5, 0.92, 1.0])),
            data.draw(st.sampled_from([0.0, 0.05, 0.3, 0.9])),
            data.draw(st.integers(0, 2**64 - 1)),
        )
        prompt = data.draw(st.lists(st.integers(0, size - 1), max_size=5))
        _trace_file(generate(model, cfg, prompt, max_len=data.draw(st.integers(1, 20))), model.alphabet)

    def test_keys_sort_as_strings(self):
        # Token 10 and table 10 come before token 2 and table 2 in the file.
        alphabet = TokenAlphabet(tuple(_GLYPHS[:14]), eos_index=13)
        text = _model_file(train_ngram(list(range(14)) * 3, 12, 0.1, alphabet)).decode("ascii")
        assert text.index('\n    "10": {') < text.index('\n    "2": {')
        assert text.index('\n        "10": 3') < text.index('\n        "2": 3')

    def test_three_digit_token_keys_sort_as_strings(self):
        # 120 glyphs: token keys "0".."119", so "100" < "11" < "2" in every table.
        alphabet = TokenAlphabet(tuple(map(chr, range(0x100, 0x178))), eos_index=119)
        corpus = np.random.default_rng(20).integers(0, 120, size=3000).tolist()
        corpus += [2, 7, 0, 1, 7, 0, 11, 7, 0, 100, 7, 0, 10, 7, 0]
        model = train_ngram(corpus, 3, 0.1, alphabet)
        text = _model_file(model).decode("ascii")
        for indent, opens in (("        ", ""), ("      ", "{")):  # unigram tokens, order-2 contexts
            spots = [text.index(f'\n{indent}"{key}": {opens}') for key in ("100", "11", "2")]
            assert spots == sorted(spots)
        # Order-3 contexts: "," sorts before every digit.
        spots = [text.index(f'\n      "{key}": {{') for key in ("1,7", "10,7", "100,7", "11,7", "2,7")]
        assert spots == sorted(spots)
        _trace_file(generate(model, SamplerConfig(1.0, 120, 0.9, seed=8), corpus[:4], max_len=30), alphabet)

    def test_an_empty_count_table_and_an_empty_context(self):
        doc = train_ngram(tokenize("abab cab."), 3, 0.1).to_json_dict()
        doc["counts"]["2"] = {}
        doc["counts"]["3"]["0,0"] = {}
        text = _model_file(NGramModel.from_json_dict(doc)).decode("ascii")
        assert '\n    "2": {},\n' in text
        assert '"0,0"' not in text
        doc["counts"]["3"] = {"0,0": {}}
        assert '\n    "3": {}\n' in _model_file(NGramModel.from_json_dict(doc)).decode("ascii")

    def test_non_ascii_glyphs(self):
        alphabet = TokenAlphabet(tuple("ab \u00e9\U0001f600"), eos_index=4)
        model = train_ngram([0, 3, 4, 1, 2, 3, 0], 2, 0.5, alphabet)
        text = _model_file(model).decode("ascii")
        assert '"symbols": "ab \\u00e9\\ud83d\\ude00"' in text
        result = generate(model, SamplerConfig(1.0, 5, seed=3), [3], max_len=12)
        assert "\\u00e9" in _trace_file(result, alphabet).decode("ascii")

    def test_argmax_traces(self):
        model = train_ngram(tokenize("abab cab."), 2, 0.1)
        text = _trace_file(generate(model, SamplerConfig(0.0, 3), tokenize("a"), max_len=5), model.alphabet)
        assert text.count(b'"drawn_uniform": null') == 5

    def test_an_eos_stop_after_one_token(self):
        alphabet = TokenAlphabet(tuple("ab\u00b6"), eos_index=2)
        model = train_ngram([0, 1, 2] * 4, 2, 0.0, alphabet)
        result = generate(model, SamplerConfig(1.0, 3, seed=1), [1], max_len=10)
        assert result.output_tokens == (2,) and result.stop_reason == STOP_EOS
        _trace_file(result, alphabet)

    def test_min_p_fallback_traces(self):
        # Near-uniform conditionals over 40 tokens: no mass reaches 0.5.
        model = train_ngram(tokenize("abc"), 2, 5.0)
        result = generate(model, SamplerConfig(1.0, 40, 1.0, 0.5, seed=2), tokenize("a"), max_len=6)
        for trace in result.traces:
            top_p, min_p = trace.stages[2:]
            assert (top_p.stage, min_p.stage) == (STAGE_TOP_P, STAGE_MIN_P)
            assert top_p.masses.max() < 0.5 and min_p.survivor_count == 1
        _trace_file(result, model.alphabet)


def _record(masses, index_map, stage=STAGE_SOFTMAX):
    return StageRecord(np.array(masses), np.array(index_map), stage=stage)


def _sampled(*records, u=0.5):
    """A sampled-mode trace through the four stages, each holding ``records[i]``."""
    return SampleTrace(tuple(_record(*r, stage=s) for r, s in zip(records, STAGES)), u)


class TestTraceMemoAndStream:
    """``trace_parts`` spells a stage record once per document and reuses it
    for every record equal in stage name and in the bytes of both arrays; the
    bytes stay those of ``json.dumps(to_json_dict, sort_keys=True, indent=2)``."""

    HALVES = ([0.5, 0.5], [0, 1])

    @staticmethod
    def _check(traces, alphabet=TokenAlphabet(tuple("abc"), 2)):
        for depth in (0, 1, 3):
            spelled = spell_traces(traces, depth)
            assert spelled == "".join(trace_parts(traces, depth))
            want = reference_dumps([t.to_json_dict() for t in traces])
            assert spelled == want.replace("\n", "\n" + "  " * depth)
        result = GenerationResult((0,), tuple(int(t.drawn_token) for t in traces), tuple(traces), STOP_MAX_LEN)
        return _trace_file(result, alphabet).decode("ascii")

    def test_equal_masses_under_different_stage_names(self):
        text = self._check([_sampled(*[self.HALVES] * 4), _sampled(*[self.HALVES] * 4, u=0.75)])
        assert all(text.count(f'"stage": "{s}"') == 2 for s in STAGES)

    def test_equal_masses_under_different_index_maps(self):
        other = ([0.5, 0.5], [1, 2])
        self._check([_sampled(*[self.HALVES] * 4), _sampled(self.HALVES, other, self.HALVES, other)])

    def test_one_index_map_under_different_masses(self):
        # The softmax stage's 0..D-1 recurs under new masses: its spelling is reused.
        ids = [0, 1, 2]
        text = self._check([_sampled(([0.5, 0.25, 0.25], ids), ([0.25, 0.25, 0.5], ids), ([0.2, 0.3, 0.5], ids),
                                     ([0.5, 0.5], [1, 2])),
                            _sampled(([0.1, 0.2, 0.7], ids), *[([0.5, 0.25, 0.25], ids)] * 3)])
        assert text.count('"index_map": [\n            0,\n            1,\n            2\n          ]') == 7

    def test_negative_and_positive_zero_masses_stay_apart(self):
        minus, plus = ([-0.0, 1.0], [0, 1]), ([0.0, 1.0], [0, 1])
        text = self._check([_sampled(minus, minus, plus, plus), _sampled(plus, minus, plus, minus)])
        assert text.count("-0.0,") == 4 and text.count(" 0.0,") == 4

    def test_an_empty_trace_list(self):
        assert spell_traces([], 2) == "[]" and list(trace_parts([], 2)) == ["[]"]
        assert '"traces": []' in self._check([])

    def test_argmax_traces(self):
        argmax = SampleTrace((_record([0.25, 0.75], [0, 1]),), None)
        again = SampleTrace((_record([0.25, 0.75], [0, 1]),), None)
        assert self._check([argmax, again, argmax]).count('"drawn_uniform": null') == 3

    def test_generated_traces_with_recurring_contexts(self):
        # Order 1 with T = 0.5: every token has one context, so every record recurs.
        model = train_ngram(tokenize("abab cab."), 1, 0.1)
        result = generate(model, SamplerConfig(0.5, 3, seed=11), tokenize("a"), max_len=30)
        _trace_file(result, model.alphabet)

    def test_the_writer_streams_one_trace_at_a_time(self):
        parts = trace_parts([_sampled(*[self.HALVES] * 4), "not a trace"], 1)
        first = next(parts)  # spelled before the second trace is looked at
        assert first.startswith("[\n    {") and first.endswith("}")
        with pytest.raises(AttributeError):
            next(parts)


class TestPhaseTiming:
    """With DECODELAB_LOG=DEBUG, every command logs one line per phase; stdout and files do not move."""

    @staticmethod
    def _run(tmp_path, capsys, tag):
        (tmp_path / tag).mkdir()
        corpus, model, trace = (tmp_path / tag / name for name in ("corpus.txt", "model.json", "trace.json"))
        corpus.write_text(CORPUS, encoding="utf-8")
        assert main(["train", str(corpus), str(model), "--order", "3"]) == EXIT_OK
        assert main(["generate", str(model), "--seed", "2", "--max-len", "30", "--trace-out", str(trace)]) == EXIT_OK
        sweep, sim, frames = tmp_path / tag / "sweep.csv", tmp_path / tag / "sim.csv", tmp_path / tag / "frames"
        assert main(["sweep", str(model), "--max-len", "10", "--temps", "0", "1", "--csv-out", str(sweep)]) == EXIT_OK
        assert main(["simulate", "--steps", "2", "--trials", "1", "--k-grid", "1", "4", "--csv-out", str(sim),
                     "--frames-out", str(frames)]) == EXIT_OK
        pgms = tuple(f.read_bytes() for f in sorted(frames.iterdir()))
        out = capsys.readouterr().out.replace(str(tmp_path / tag), "")  # the CSV paths differ by tag
        return out, model.read_bytes(), trace.read_bytes(), sweep.read_bytes(), sim.read_bytes(), pgms

    def test_one_debug_line_per_phase(self, tmp_path, capsys, caplog):
        quiet = self._run(tmp_path, capsys, "quiet")
        assert not [r for r in caplog.records if r.levelno == logging.DEBUG]
        with caplog.at_level(logging.DEBUG, logger="decodelab"):
            loud = self._run(tmp_path, capsys, "loud")
        phases = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
        names = ["train: read", "train: train", "train: write", "generate: load", "generate: sample",
                 "generate: write", "sweep: load", "sweep: sample", "sweep: write", "simulate: sample",
                 "simulate: write"]
        assert [m.rsplit(" took ", 1)[0] for m in phases] == names
        assert all(m.endswith(" s") and float(m.split(" took ")[1][:-2]) >= 0.0 for m in phases)
        assert loud == quiet
