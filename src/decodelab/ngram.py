"""Character-level n-gram language model with additive smoothing and backoff.

This is the desk-scale next-token model that feeds the sampler: it exposes
``logits_for(context)`` returning one finite score per alphabet token, so
``softmax(logits, 1)`` reproduces the smoothed conditional exactly (within
1e-9).

Smoothing and backoff semantics:

* ``P(next | ctx) = (count(ctx, next) + alpha) / (total(ctx) + alpha * D)``.
* With ``alpha > 0`` every context has a well-defined conditional (an
  entirely unseen context simply yields the uniform distribution), so no
  backoff occurs.
* With ``alpha = 0`` an unseen context makes the formula degenerate (0/0);
  the model then backs off to the next shorter context, down to the unigram,
  whose total the constructor requires to be positive when ``alpha = 0``.
* Zero conditional probabilities are floored at 1e-300 before the log so
  logits stay finite; the distortion (1e-300 of mass) is far below every
  tolerance in the package.

Storage: the counts of each order ``m`` are one dense ``(contexts, D)``
int64 matrix, rows in lexicographic context order, plus a map from context
key to row.  A context is held only as its key in the model file
(``"12,3,39,0"``, ``""`` for the empty context), so training, saving and
loading never build a token tuple per context.  Training counts an order in
one array pass; ``logits_for`` memoizes per trailing context and returns
read-only arrays that callers share and must not write to.

Model file: sparse JSON, ``counts[str(m)][context key][token key] = count``
for each nonzero count.  A token key is ``str(t)`` (``_token_keys``):
decimal, no sign, padding or leading zeros; a context key joins its tokens'
keys with ``","`` (``""`` for the empty context).  Loading refuses any other,
and ``jsonvalues.load`` refuses a file the decoder cannot read.  Loading
checks each count table in whole-table passes (one pass over the bytes of its
keys, value types, one int64 conversion, a bound on the row totals); a table
that fails any of them is checked again entry by entry, in document order,
and that loop alone words the refusal, naming the first bad entry.

Tokenization is per character: uppercase folds to lowercase, anything
outside the alphabet maps to the blank token, one token per input character.
The text's code points are mapped through a table indexed by code point, so
each distinct character is folded and looked up once.
"""

from __future__ import annotations

from itertools import chain
from pathlib import Path
from typing import Sequence

import numpy as np

from .jsonvalues import INTEGER, NUMBER, OBJECT, STRING, brackets, dumps, echo, echo_repr, member, spell_object, value
from .jsonvalues import load as load_json
from .probcore import TokenAlphabet, TokenId, default_alphabet, logits_from_masses
from .sampler import _check_int, _check_real

FORMAT_NAME = "decodelab-ngram"
FORMAT_VERSION = 1

#: The most count cells (contexts over all orders x alphabet size) a model
#: may hold: 2^24 int64 cells are 128 MiB.  Loading checks a document
#: against it before allocating anything, and training refuses to build a
#: model that loading would refuse.
MAX_COUNT_CELLS = 2**24

#: The most logit cells (memoized contexts x alphabet size) a model keeps
#: for ``logits_for``; the memo starts over when it is full.
MEMO_CELLS = 2**20

_INT64_MAX = 2**63 - 1

#: ``levels[m-1] = (contexts, counts)``: the keys of the order-m contexts
#: (m-1 token keys joined by ``","``) in lexicographic token order, and their
#: ``(len(contexts), D)`` counts.
Levels = list[tuple[list[str], np.ndarray]]


class ModelFormatError(ValueError):
    """A persisted model file does not match the expected schema or version."""


def _token_keys(size: int) -> list[str]:
    """Token ids ``0 .. size-1`` spelled as model documents spell them."""
    return [str(t) for t in range(size)]


def _check_order_alpha(order, alpha) -> tuple[int, float]:
    """``order`` and ``alpha`` as an int and a float: an integer order of at
    least 1 and a finite alpha of at least 0, not a bool, which reads as 0 or 1."""
    order = _check_int(order, "order")
    if order < 1:
        raise ValueError(f"order must be >= 1 (got {order})")
    _check_real(alpha, "alpha")
    alpha = float(alpha)
    if not 0.0 <= alpha < np.inf:  # NaN included
        raise ValueError(f"alpha must be finite and >= 0 (got {alpha!r})")
    return order, alpha


def _check_cells(cells: int, error: type[ValueError]) -> None:
    if cells > MAX_COUNT_CELLS:
        raise error(
            f"the model needs {cells} count cells (contexts x alphabet size), above the cap of {MAX_COUNT_CELLS}"
        )


def tokenize(text: str, alphabet: TokenAlphabet | None = None) -> tuple[TokenId, ...]:
    """Map text to token ids, one per character (a total function).

    Uppercase characters fold to lowercase; any character not in the
    alphabet (after folding) maps to the blank token.  The ids are those of
    :func:`_token_array`, as a tuple of ints.
    """
    return tuple(_token_array(text, alphabet).tolist())


def _token_array(text: str, alphabet: TokenAlphabet | None = None) -> np.ndarray:
    """:func:`tokenize` as an int64 array, through a table indexed by code point.

    The text is read as its UTF-32 code points (``surrogatepass``, so a lone
    surrogate, as argv hands undecodable bytes over, is one code point too).
    The table, of the narrowest dtype that holds the alphabet's ids, spans
    code points 0 to the text's largest; only the entries of code points in
    the text are written, each once, and one gather maps the text.
    """
    alphabet = alphabet or default_alphabet()
    blank = alphabet.index_of(" ")
    if blank is None:
        raise ValueError("alphabet has no blank token to absorb out-of-alphabet characters")
    codes = np.frombuffer(text.encode("utf-32-le", "surrogatepass"), dtype="<u4")
    if not codes.size:
        return np.zeros(0, dtype=np.int64)
    table = np.zeros(int(codes.max()) + 1, dtype=np.min_scalar_type(alphabet.size - 1))
    table[codes] = 1  # marks the code points the text holds
    points = np.flatnonzero(table).tolist()
    toks = []
    for folded in map(str.lower, map(chr, points)):
        # Some case folds expand to several characters; those are out-of-alphabet.
        tok = alphabet.index_of(folded) if len(folded) == 1 else None
        toks.append(blank if tok is None else tok)
    table[points] = toks
    return table[codes].astype(np.int64)


def detokenize(tokens: Sequence[TokenId], alphabet: TokenAlphabet | None = None) -> str:
    """Inverse of :func:`tokenize` on in-alphabet text: glyph per token id."""
    alphabet = alphabet or default_alphabet()
    return "".join(alphabet.symbols[t] for t in tokens)


class NGramModel:
    """Immutable n-gram counts plus the smoothing/backoff conditional.

    ``levels[m-1]`` holds order ``m``'s context keys (in lexicographic token
    order) and their dense ``(contexts, D)`` int64 count matrix, row ``i``
    counting what followed context ``i``, for every order ``m`` from 1 to
    ``order``; the lower orders exist to serve backoff queries.

    ``logits_for`` memoizes its result per trailing context (the last
    ``order - 1`` tokens, or the whole context when it is shorter) and
    returns read-only arrays that later calls share.
    """

    def __init__(self, order: int, alpha: float, alphabet: TokenAlphabet, levels: Levels):
        order, alpha = _check_order_alpha(order, alpha)
        totals = [counts.sum(axis=1).tolist() for _, counts in levels]
        if alpha == 0 and not (levels[0][0] == [""] and totals[0][0] > 0):
            raise ValueError("alpha = 0 needs unigram counts with a positive total")
        self.order = order
        self.alpha = alpha
        self.alphabet = alphabet
        self._levels = levels
        self._totals = totals
        self._rows = [dict(zip(contexts, range(len(contexts)))) for contexts, _ in levels]
        self._memo: dict[tuple, np.ndarray] = {}
        self._memo_limit = max(1, MEMO_CELLS // alphabet.size)

    def context_count(self, order: int | None = None) -> int:
        """Number of distinct contexts at the given order (default: top order)."""
        m = self.order if order is None else order
        return len(self._levels[m - 1][0]) if 1 <= m <= self.order else 0

    def conditional(self, context: Sequence[TokenId]) -> np.ndarray:
        """Smoothed next-token distribution given the trailing context."""
        d = self.alphabet.size
        # The trailing order - 1 tokens, each spelled as a context key spells it.
        parts = [str(int(t)) for t in context[max(0, len(context) - self.order + 1) :]]
        for m in range(len(parts) + 1, 0, -1):
            row = self._rows[m - 1].get(",".join(parts[len(parts) - m + 1 :]))
            total = 0 if row is None else self._totals[m - 1][row]
            if total > 0 or self.alpha > 0:
                counts = np.zeros(d, dtype=np.int64) if row is None else self._levels[m - 1][1][row]
                return (counts + self.alpha) / (total + self.alpha * d)
        # Unreachable: the constructor ensures the unigram level returns.

    def logits_for(self, context: Sequence[TokenId]) -> np.ndarray:
        """Log of the smoothed conditional, floored so every entry is finite.

        The array is read-only: it is memoized per trailing context and
        shared by every later call with the same one.
        """
        key = tuple(context[max(0, len(context) - self.order + 1) :])
        z = self._memo.get(key)
        if z is None:
            z = logits_from_masses(self.conditional(key))
            z.setflags(write=False)
            if len(self._memo) >= self._memo_limit:
                self._memo.clear()
            self._memo[key] = z
        return z

    # -- persistence -------------------------------------------------------

    def to_json_dict(self) -> dict:
        tok_keys = _token_keys(self.alphabet.size)
        counts: dict[str, dict[str, dict[str, int]]] = {}
        for m, (contexts, matrix) in enumerate(self._levels, start=1):
            # Row-major: rows ascending, and tokens ascending within a row.
            rows, toks = np.nonzero(matrix)
            values = matrix[rows, toks].tolist()
            keys = [tok_keys[t] for t in toks.tolist()]
            starts = np.flatnonzero(np.diff(rows, prepend=-1)).tolist()
            ends = starts[1:] + [len(values)]
            level: dict[str, dict[str, int]] = {}
            for row, s, e in zip(rows[starts].tolist(), starts, ends):
                level[contexts[row]] = dict(zip(keys[s:e], values[s:e]))
            counts[str(m)] = level
        return {
            "format": FORMAT_NAME,
            "format_version": FORMAT_VERSION,
            "order": self.order,
            "alpha": self.alpha,
            "alphabet": {
                "symbols": "".join(self.alphabet.symbols),
                "eos_index": self.alphabet.eos_index,
            },
            "counts": counts,
        }

    def save(self, path: str | Path) -> None:
        """Write the model file, ``json.dumps(self.to_json_dict(), sort_keys=True,
        indent=2)`` and a newline, spelled straight from the count matrices.
        Each count table is spelled and written in turn, so the whole file is
        never held as one string."""
        tok_keys = _token_keys(self.alphabet.size)
        # Keys sort as strings: table "10" comes before table "2".
        orders = sorted(range(1, self.order + 1), key=str)
        glyphs = [member("eos_index", dumps(self.alphabet.eos_index)),
                  member("symbols", dumps("".join(self.alphabet.symbols)))]
        # The document around the tables is spelled with a NUL in the place of
        # each (spelled JSON escapes every control character) and split there.
        head, *tails = spell_object([
            member("alpha", dumps(self.alpha)),
            member("alphabet", spell_object(glyphs, 1)),
            member("counts", spell_object([member(str(m), "\0") for m in orders], 1)),
            member("format", dumps(FORMAT_NAME)),
            member("format_version", dumps(FORMAT_VERSION)),
            member("order", dumps(self.order)),
        ], 0).split("\0")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(head)
            for m, tail in zip(orders, tails):
                fh.write(_spell_level(*self._levels[m - 1], tok_keys, 2))
                fh.write(tail)
            fh.write("\n")

    @classmethod
    def from_json_dict(cls, d: dict) -> "NGramModel":
        """The model a document as ``save`` writes it describes.

        Raises :class:`ModelFormatError` for any other document: another
        format or version; a field of the wrong JSON kind (``format_version``,
        ``order``, ``eos_index`` and each count are integers, ``alpha`` is a
        number, ``alphabet`` and every count table are objects, ``symbols``
        is a string); a key ``save`` cannot write; or counts the model
        cannot hold.
        """
        if not isinstance(d, dict) or d.get("format") != FORMAT_NAME:
            raise ModelFormatError("not a decodelab n-gram model document")
        if d.get("format_version") != FORMAT_VERSION:
            raise ModelFormatError(
                f"unsupported model format version {echo_repr(d.get('format_version'))} (expected {FORMAT_VERSION})"
            )
        try:
            value(d["format_version"], INTEGER, "format_version", ModelFormatError)  # true and 1.0 equal 1
            alpha = value(d["alpha"], NUMBER, "alpha", ModelFormatError)
            order = value(d["order"], INTEGER, "order", ModelFormatError)
            glyphs = value(d["alphabet"], OBJECT, "alphabet", ModelFormatError)
            alphabet = TokenAlphabet(tuple(value(glyphs["symbols"], STRING, "symbols", ModelFormatError)),
                                     value(glyphs["eos_index"], INTEGER, "eos_index", ModelFormatError))
            size = alphabet.size
            counts = value(d["counts"], OBJECT, "counts", ModelFormatError)
            # Check the order, the table set and the matrix sizes before
            # allocating anything, then walk the orders (not the document) in turn.
            if order < 1:
                raise ModelFormatError(f"order must be >= 1 (got {order})")
            if order != len(counts) or set(counts) != {str(m) for m in range(1, order + 1)}:
                raise ModelFormatError(f"count tables must be exactly '1'..'{order}' (got {echo_repr(sorted(counts))})")
            _check_cells(size * sum(len(v) for v in counts.values() if isinstance(v, dict)), ModelFormatError)
            tok_of = {key: t for t, key in enumerate(_token_keys(size))}
            levels = [_parse_level(m, value(counts[str(m)], OBJECT, f"count table '{m}'", ModelFormatError), tok_of)
                      for m in range(1, order + 1)]
            if not levels[0][0]:
                raise ModelFormatError("model document lacks unigram counts")
            return cls(order, alpha, alphabet, levels)
        except ModelFormatError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ModelFormatError(f"malformed model document: {exc}") from exc

    @classmethod
    def load(cls, path: str | Path) -> "NGramModel":
        return cls.from_json_dict(load_json(path, "model file", ModelFormatError))


def _spell_level(ctx_keys: list[str], matrix: np.ndarray, tok_keys: list[str], depth: int) -> str:
    """One order's count table, as ``to_json_dict`` holds it, spelled at
    ``depth``: every context with a nonzero count, and its nonzero counts.

    Members go in key order, and keys sort as strings (token "10" before
    "2"), so the cells are ranked by one key, context rank x D + token rank.
    The table is one join: each cell is its lead and its count, the lead
    being the separator and token key inside a context's object, or, at the
    first cell of a context, the context's opening; the brackets come from
    ``jsonvalues.brackets``."""
    rows, toks = np.nonzero(matrix)
    if not rows.size:
        return spell_object([], depth)
    ctx_rank, tok_rank = _string_ranks(ctx_keys), _string_ranks(tok_keys)
    # The keys are unique and nearly sorted already (context rank follows row
    # order closely); numpy's stable sort takes such keys fastest.
    ranked = np.argsort(ctx_rank[rows] * len(tok_keys) + tok_rank[toks], kind="stable")
    rows, toks = rows[ranked], toks[ranked]
    counts = map(int.__repr__, matrix[rows, toks].tolist())
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    opening, separator, closing = brackets("{}", depth)
    inner_opening, inner_separator, inner_closing = brackets("{}", depth + 1)
    heads = [member(key, "") for key in tok_keys]
    leads = np.array([inner_separator + head for head in heads], dtype=object)[toks]
    # A context's object opens at its first cell; the first context also opens the table.
    opens = np.array([inner_closing + separator + member(key, inner_opening) for key in ctx_keys], dtype=object)
    leads[starts] = opens[rows[starts]] + np.array(heads, dtype=object)[toks[starts]]
    leads[0] = opening + member(ctx_keys[rows[0]], inner_opening) + heads[toks[0]]
    parts = [inner_closing + closing] * (2 * len(leads) + 1)
    parts[0:-1:2], parts[1:-1:2] = leads.tolist(), counts
    return "".join(parts)


def _string_ranks(keys: list[str]) -> np.ndarray:
    """The rank of each key among ``keys`` sorted as strings."""
    ranks = np.empty(len(keys), dtype=np.int64)
    ranks[sorted(range(len(keys)), key=keys.__getitem__)] = np.arange(len(keys))
    return ranks


def _parse_level(m: int, level: dict, tok_of: dict[str, TokenId]):
    """One order's count table: its context keys in lexicographic token order
    and their matrix.  Each key part must be a key of ``tok_of``: only the
    spelling ``save`` writes is read, so no two keys name one context or token.

    The table is checked in bulk; if any bulk check fails, the entries are
    checked one by one, so the refusal names the first bad one."""
    parsed = _bulk_level(m, level, tok_of)
    return parsed if parsed is not None else _checked_level(m, level, tok_of)


def _bulk_level(m: int, level: dict, tok_of: dict[str, TokenId]):
    """What ``_checked_level`` returns, from whole-table passes, or None if
    any check fails."""
    keys, tables = list(level), list(level.values())
    if set(map(type, tables)) - {dict}:
        return None
    if m == 1 and keys not in ([], [""]):
        return None
    named = keys if m > 1 else []  # the unigram's context "" has no parts
    size = len(tok_of)
    ids = _key_ids(named, m - 1, list(chain.from_iterable(tables)), size)
    if ids is None:
        return None
    split = len(named) * (m - 1)
    if m == 1:
        ranked = np.arange(len(keys))
    else:  # lexsort's last key is its primary one; narrow keys radix-sort
        ranked = np.lexsort(ids[:split].astype(np.min_scalar_type(size)).reshape(len(keys), m - 1).T[::-1])
    counts = list(chain.from_iterable(map(dict.values, tables)))
    if set(map(type, counts)) - {int}:
        return None
    try:
        values = np.array(counts, dtype=np.int64)
    except OverflowError:  # a count past int64
        return None
    lengths = list(map(len, tables))
    # The row totals are int64: leave a table whose rows might pass the range to the loop.
    if values.size and (values.min() < 0 or int(values.max()) * max(lengths) > _INT64_MAX):
        return None
    rank_of = np.empty_like(ranked)
    rank_of[ranked] = np.arange(ranked.size)
    matrix = np.zeros((len(keys), size), dtype=np.int64)
    matrix[np.repeat(rank_of, lengths), ids[split:]] = values
    return [keys[i] for i in ranked.tolist()], matrix


def _key_ids(ctx_keys: list[str], width: int, tok_keys: list[str], size: int) -> np.ndarray | None:
    """The token ids that the parts of the context keys, ``width`` parts a
    key, and then the token keys, one part a key, spell, from one pass over
    the bytes of the keys joined by ``";"``; or None unless every key has its
    number of parts, each spelled as ``_token_keys(size)`` spells one: ASCII
    digits, no leading zero, a value below ``size``.  A key holding ``";"``
    adds a key end, so it fails too."""
    total = len(ctx_keys) * width + len(tok_keys)
    if not total:
        return np.zeros(0, dtype=np.int64)
    try:
        text = ";".join(chain(ctx_keys, tok_keys)) + ";"
    except TypeError:  # a key that is not a str
        return None
    if not text.isascii():
        return None
    raw = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    digits = raw - ord("0")  # the bytes below "0" wrap past 9
    ends = np.flatnonzero(digits > 9)  # every part ends at its first non-digit
    # The byte after each part: "," inside a context key, ";" at the end of every key.
    want = np.full(total, ord(";"), dtype=np.uint8)
    if width > 1:
        want[: len(ctx_keys) * width].reshape(-1, width)[:, :-1] = ord(",")
    if ends.size != total or not np.array_equal(raw[ends], want):
        return None
    lengths = np.diff(ends, prepend=-1) - 1
    places = len(str(size - 1))
    if lengths.min() < 1 or lengths.max() > places or ((digits[ends - lengths] == 0) & (lengths > 1)).any():
        return None  # an empty part, a part too long for a token, or a leading zero
    ids = np.zeros(total, dtype=np.int64)
    for place in range(places):  # the digit ``place`` bytes before each part's end, if the part has one
        ids += digits.take(ends - 1 - place, mode="clip") * np.where(lengths > place, 10**place, 0)
    return ids if ids.max() < size else None


def _checked_level(m: int, level: dict, tok_of: dict[str, TokenId]):
    """``_parse_level`` one entry at a time, in document order, raising at the
    first bad entry."""
    contexts, toks, values, lengths = [], [], [], []
    for key, sparse in level.items():
        ctx = tuple(map(tok_of.get, key.split(","))) if key else ()
        if len(ctx) != m - 1 or None in ctx:
            raise ModelFormatError(f"bad context key {echo_repr(key)} for order {m}")
        start = len(values)
        for tok_str, count in value(sparse, OBJECT, f"counts of context {echo_repr(key)}", ModelFormatError).items():
            tok = tok_of.get(tok_str)
            if tok is None or type(count) is not int or not 0 <= count <= _INT64_MAX:
                raise ModelFormatError(f"bad count entry {echo_repr(tok_str)}: {echo(count)}")
            toks.append(tok)
            values.append(count)
        # The row totals are int64: a sum past the range would wrap negative.
        if sum(values[start:]) > _INT64_MAX:
            raise ModelFormatError(f"counts of context {echo_repr(key)} sum past 2^63 - 1")
        contexts.append(ctx)
        lengths.append(len(values) - start)
    ranked = sorted(range(len(contexts)), key=contexts.__getitem__)
    matrix = np.zeros((len(contexts), len(tok_of)), dtype=np.int64)
    # Entry rows in document order, mapped to their lexicographic rank.
    matrix[np.repeat(np.argsort(ranked), lengths), toks] = values
    keys = list(level)
    return [keys[i] for i in ranked], matrix


def train_ngram(
    corpus: Sequence[TokenId],
    order: int,
    alpha: float,
    alphabet: TokenAlphabet | None = None,
) -> NGramModel:
    """Count all windows of every order from 1 to ``order`` over the corpus.

    Lower-order tables are counted directly from the corpus (not derived
    from the top order) so backoff conditionals are themselves exact window
    statistics.  Deterministic in its inputs.

    A 1-D integer ``ndarray`` corpus is counted as it is; any other corpus
    is read with one ``np.fromiter``, each token as ``int()`` reads it.  A
    corpus that is too short or holds a token outside ``0 .. D-1`` goes
    through ``int()`` token by token, which words the refusal, so an array
    and its list are refused alike.

    Each order is one array pass.  Window ``i`` of order ``m`` has the row
    ``r`` of its context, so its code ``r * D + next`` is below
    ``contexts * D <= n * D`` whatever the order and the alphabet size, its
    counts are one ``bincount`` of the codes, and the codes seen rank the
    m-grams lexicographically: their ranks are the rows of order ``m+1``'s
    contexts.
    """
    alphabet = alphabet or default_alphabet()
    order, alpha = _check_order_alpha(order, alpha)
    size = alphabet.size
    if isinstance(corpus, np.ndarray) and corpus.ndim == 1 and corpus.dtype.kind in "iu":
        toks = corpus  # an integer array is read as is
    else:
        try:
            # Each token as int() reads it: floats truncate, bools and numpy ints are taken.
            toks = np.fromiter(corpus, np.int64, count=len(corpus))
        except (OverflowError, TypeError, ValueError):  # int() and the checks below decide
            toks = None
    if toks is None or toks.size < order or not (0 <= toks.min() and toks.max() < size):
        tokens = list(map(int, corpus))
        if len(tokens) < order:
            raise ValueError(f"corpus has {len(tokens)} tokens but order-{order} training needs at least {order}")
        if not (0 <= min(tokens) and max(tokens) < size):
            bad = next(t for t in tokens if not 0 <= t < size)
            raise ValueError(f"corpus token {bad} outside alphabet of size {size}")
        toks = np.array(tokens, dtype=np.int64)
    toks = toks.astype(np.int64, copy=False)  # the codes below are int64
    n = toks.size
    tok_keys = np.array(_token_keys(size), dtype=object)
    comma_keys = "," + tok_keys  # an object array adds its strings one by one
    levels: Levels = []
    contexts = [""]
    codes = np.zeros(n, dtype=np.int64)  # every order-1 window has the empty context, row 0
    cells = 0
    for m in range(1, order + 1):
        # Window i = 0 .. n-m: codes[i] holds the row of its context; add
        # its next token, toks[i + m - 1] (in place: the arrays are corpus-sized).
        codes *= size
        codes += toks[m - 1 :]
        cells += len(contexts) * size
        _check_cells(cells, ValueError)
        counts = np.bincount(codes, minlength=len(contexts) * size)
        levels.append((contexts, counts.reshape(len(contexts), size)))
        if m < order:
            # Order m+1 conditions on the m-grams of every window but the last;
            # the codes seen there, in ascending order, are its context rows.
            seen = counts > 0
            seen[codes[-1]] = counts[codes[-1]] > 1
            rank = np.cumsum(seen)
            rank -= 1
            codes = rank[codes[:-1]]
            prefix, nxt = np.divmod(np.flatnonzero(seen), size)
            # A key is its prefix's key, then "," and the next token's key; order 2's prefix is "".
            keys = tok_keys[nxt] if m == 1 else np.array(contexts, dtype=object)[prefix] + comma_keys[nxt]
            contexts = keys.tolist()
    return NGramModel(order, alpha, alphabet, levels)
