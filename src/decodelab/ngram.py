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

Tokenization is per character: uppercase folds to lowercase, anything
outside the alphabet maps to the blank token, one token per input character.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

import numpy as np

from .probcore import TokenAlphabet, TokenId, default_alphabet, logits_from_masses

FORMAT_NAME = "decodelab-ngram"
FORMAT_VERSION = 1


class ModelFormatError(ValueError):
    """A persisted model file does not match the expected schema or version."""


def _json_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ModelFormatError(f"{what} must be a JSON object (got {type(value).__name__})")
    return value


def _json_int(value, what: str) -> int:
    # A JSON integer, not a float such as 2.5 or 4.0 and not a bool.
    if isinstance(value, bool) or not isinstance(value, int):
        raise ModelFormatError(f"{what} must be a JSON integer (got {json.dumps(value)})")
    return value


def _json_number(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ModelFormatError(f"{what} must be a JSON number (got {json.dumps(value)})")
    try:
        return float(value)
    except OverflowError:  # a JSON integer beyond the float range
        raise ModelFormatError(f"{what} is beyond the float range") from None


def tokenize(text: str, alphabet: TokenAlphabet | None = None) -> tuple[TokenId, ...]:
    """Map text to token ids, one per character (a total function).

    Uppercase characters fold to lowercase; any character not in the
    alphabet (after folding) maps to the blank token.
    """
    alphabet = alphabet or default_alphabet()
    blank = alphabet.index_of(" ")
    if blank is None:
        raise ValueError("alphabet has no blank token to absorb out-of-alphabet characters")
    out = []
    for ch in text:
        folded = ch.lower()
        # Some case folds expand to several characters; those are out-of-alphabet.
        tok = alphabet.index_of(folded) if len(folded) == 1 else None
        out.append(blank if tok is None else tok)
    return tuple(out)


def detokenize(tokens: Sequence[TokenId], alphabet: TokenAlphabet | None = None) -> str:
    """Inverse of :func:`tokenize` on in-alphabet text: glyph per token id."""
    alphabet = alphabet or default_alphabet()
    return "".join(alphabet.symbols[t] for t in tokens)


class NGramModel:
    """Immutable n-gram counts plus the smoothing/backoff conditional.

    ``tables[m]`` maps a length ``m-1`` context tuple to a dense count
    vector over the alphabet, for every order ``m`` from 1 to ``order``;
    the lower orders exist to serve backoff queries.
    """

    def __init__(
        self,
        order: int,
        alpha: float,
        alphabet: TokenAlphabet,
        tables: dict[int, dict[tuple[TokenId, ...], np.ndarray]],
    ):
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

    def context_count(self, order: int | None = None) -> int:
        """Number of distinct contexts at the given order (default: top order)."""
        m = self.order if order is None else order
        return len(self._tables.get(m, {}))

    def conditional(self, context: Sequence[TokenId]) -> np.ndarray:
        """Smoothed next-token distribution given the trailing context."""
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
        # Unreachable: the constructor ensures the unigram level returns.

    def logits_for(self, context: Sequence[TokenId]) -> np.ndarray:
        """Log of the smoothed conditional, floored so every entry is finite."""
        return logits_from_masses(self.conditional(context))

    # -- persistence -------------------------------------------------------

    def to_json_dict(self) -> dict:
        counts: dict[str, dict[str, dict[str, int]]] = {}
        for m, table in self._tables.items():
            level: dict[str, dict[str, int]] = {}
            for ctx, arr in table.items():
                nz = np.flatnonzero(arr)
                if nz.size:
                    key = ",".join(str(t) for t in ctx)
                    level[key] = {str(int(t)): int(arr[t]) for t in nz}
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
        Path(path).write_text(
            json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
        )

    @classmethod
    def from_json_dict(cls, d: dict) -> "NGramModel":
        if not isinstance(d, dict) or d.get("format") != FORMAT_NAME:
            raise ModelFormatError("not a decodelab n-gram model document")
        if d.get("format_version") != FORMAT_VERSION:
            raise ModelFormatError(
                f"unsupported model format version {d.get('format_version')!r} (expected {FORMAT_VERSION})"
            )
        try:
            alpha = _json_number(d["alpha"], "alpha")
            order = _json_int(d["order"], "order")
            alphabet = TokenAlphabet(
                tuple(d["alphabet"]["symbols"]), _json_int(d["alphabet"]["eos_index"], "eos_index")
            )
            size = alphabet.size
            counts = _json_object(d["counts"], "counts")
            # Check the order against the document before allocating anything per order.
            if order != len(counts) or set(counts) != {str(m) for m in range(1, order + 1)}:
                raise ModelFormatError(f"count tables must be exactly '1'..'{order}' (got {sorted(counts)})")
            tables: dict[int, dict[tuple[TokenId, ...], np.ndarray]] = {m: {} for m in range(1, order + 1)}
            for m_str, level in counts.items():
                m = int(m_str)
                for key, sparse in _json_object(level, f"count table {m_str!r}").items():
                    ctx = tuple(int(t) for t in key.split(",")) if key else ()
                    if len(ctx) != m - 1 or any(not 0 <= t < size for t in ctx):
                        raise ModelFormatError(f"bad context key {key!r} for order {m}")
                    arr = np.zeros(size, dtype=np.int64)
                    for tok_str, count in _json_object(sparse, f"counts of context {key!r}").items():
                        tok = int(tok_str)
                        # Checked inline (type() refuses bool and float): this runs once per stored count.
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
    def load(cls, path: str | Path) -> "NGramModel":
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ModelFormatError(f"model file is not valid JSON: {exc}") from exc
        return cls.from_json_dict(doc)


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
    """
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
    tables: dict[int, dict[tuple[TokenId, ...], np.ndarray]] = {m: {} for m in range(1, order + 1)}
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
    return NGramModel(order, alpha, alphabet, tables)
