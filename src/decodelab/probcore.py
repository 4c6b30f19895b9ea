"""Probability primitives for discrete token distributions.

Everything downstream (the staged sampler, the text and frame generators)
is built on the validated distribution and the three operations in this
module: temperature softmax, argmax decoding and Shannon entropy.  The
truncation stages in :mod:`decodelab.sampler` renormalize their own survivor
sets.

Conventions used throughout the package:

* All logarithms are natural, so entropies are in nats.
* A distribution may cover only a *subset* of the token alphabet (a survivor
  set after truncation); ``index_map`` records the original token index of
  each retained mass.
* Ties are always broken toward the lowest original token index, so every
  operation is fully deterministic.
* All values are immutable after construction and safe to share across
  threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

# Original-token index of a mass entry.
TokenId = int

#: Absolute tolerance on "masses sum to one".
MASS_TOL = 1e-9

#: Floor applied to masses before taking logs, so logit vectors stay finite.
#: The distortion (1e-300 of probability mass) is far below every tolerance
#: used anywhere in the package.
LOGIT_FLOOR = 1e-300

#: Default 40-glyph alphabet: 26 lowercase letters, 10 digits, blank,
#: period, comma, and an end-of-sentence marker (pilcrow).
DEFAULT_SYMBOLS = "abcdefghijklmnopqrstuvwxyz0123456789 .,¶"


@dataclass(frozen=True)
class TokenAlphabet:
    """Ordered alphabet of printable single-character glyphs.

    ``symbols[i]`` is the glyph of token ``i``; ``eos_index`` marks the
    end-of-sentence token that terminates autoregressive generation.
    """

    symbols: tuple[str, ...]
    eos_index: int

    def __post_init__(self) -> None:
        if len(self.symbols) < 2:
            raise ValueError(f"alphabet needs at least 2 symbols (got {len(self.symbols)})")
        for glyph in self.symbols:
            if not (isinstance(glyph, str) and len(glyph) == 1 and glyph.isprintable()):
                raise ValueError(f"alphabet glyphs must be single printable characters (got {glyph!r})")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("alphabet glyphs must be distinct")
        if not 0 <= self.eos_index < len(self.symbols):
            raise ValueError(f"eos_index must be in [0, {len(self.symbols)}) (got {self.eos_index})")

    @property
    def size(self) -> int:
        return len(self.symbols)

    @cached_property
    def _glyph_to_id(self) -> dict[str, int]:
        return {g: i for i, g in enumerate(self.symbols)}

    def index_of(self, glyph: str) -> int | None:
        """Token index of ``glyph``, or None if it is not in the alphabet."""
        return self._glyph_to_id.get(glyph)

    @property
    def eos_glyph(self) -> str:
        return self.symbols[self.eos_index]


@lru_cache(maxsize=1)
def default_alphabet() -> TokenAlphabet:
    """The 40-token default alphabet (letters, digits, blank, '.', ',', EOS)."""
    return TokenAlphabet(tuple(DEFAULT_SYMBOLS), eos_index=39)


def as_logits(values: Sequence[float] | np.ndarray) -> np.ndarray:
    """Validate a raw score vector: 1-D, at least one entry, all finite."""
    z = np.asarray(values, dtype=np.float64)
    if z.ndim != 1 or z.size == 0:
        raise ValueError(f"logits must form a non-empty 1-D vector (got shape {z.shape})")
    if not np.logical_and.reduce(np.isfinite(z)):  # the ufunc skips ndarray.all's Python wrapper
        raise ValueError("logits must be finite (no NaN or infinities)")
    return z


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@lru_cache(maxsize=64)
def token_ids(size: int) -> np.ndarray:
    """The read-only index map ``[0, 1, ..., size-1]`` of a full distribution."""
    return _freeze(np.arange(size, dtype=np.int64))


@dataclass(frozen=True, eq=False)
class ProbabilityDistribution:
    """Non-negative masses summing to one over a survivor set of tokens.

    ``index_map[i]`` is the original token index of ``masses[i]``; the
    default, None, gives a full distribution's ``[0, 1, ..., D-1]``.
    """

    masses: np.ndarray
    index_map: np.ndarray | None = None

    def __post_init__(self) -> None:
        # Copies, so freezing them never freezes the caller's own arrays.
        masses = np.array(self.masses, dtype=np.float64)
        if self.index_map is None:
            index_map = token_ids(masses.size)
        else:
            index_map = np.array(self.index_map, dtype=np.int64)
        object.__setattr__(self, "masses", _freeze(masses))
        object.__setattr__(self, "index_map", _freeze(index_map))
        if masses.ndim != 1 or masses.size == 0:
            raise ValueError("distribution must hold at least one mass")
        if masses.shape != index_map.shape:
            raise ValueError("masses and index_map must have equal length")
        if np.any(masses < 0):
            raise ValueError("masses must be non-negative")
        total = float(masses.sum())
        if not abs(total - 1.0) <= MASS_TOL:  # a NaN mass makes a NaN total, and fails too
            raise ValueError(f"masses must sum to 1 within {MASS_TOL} (got {total!r})")
        if np.any(index_map < 0) or np.unique(index_map).size != index_map.size:
            raise ValueError("index_map entries must be distinct non-negative token indices")

    @classmethod
    def _unchecked(cls, masses: np.ndarray, index_map: np.ndarray) -> "ProbabilityDistribution":
        # Hot-path constructor: callers guarantee the invariants.
        masses.setflags(write=False)
        index_map.setflags(write=False)
        self = object.__new__(cls)
        self.__dict__.update(masses=masses, index_map=index_map)
        return self

    def __len__(self) -> int:
        return int(self.masses.size)

    def dense(self, size: int) -> np.ndarray:
        """Expand to a length-``size`` vector with zeros on pruned tokens."""
        if size < int(self.index_map.max()) + 1:
            raise ValueError("size smaller than the largest retained token index")
        out = np.zeros(size, dtype=np.float64)
        out[self.index_map] = self.masses
        return out


def by_token_index(masses: np.ndarray, index_map: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``masses`` and ``index_map`` reordered to ascending original token index."""
    order = index_map.argsort()
    return masses[order], index_map[order]


def softmax(z: Sequence[float] | np.ndarray, temperature: float) -> ProbabilityDistribution:
    """Temperature softmax: ``P_i = exp(z_i / T) / sum_j exp(z_j / T)``.

    The maximum logit is subtracted before exponentiation, which leaves the
    result unchanged but avoids overflow at small temperatures.  ``T = 0``
    is rejected here; argmax decoding is a separate operation
    (:func:`argmax_onehot`), selected by the sampler when configured with
    zero temperature.
    """
    z = as_logits(z)
    if temperature <= 0:
        raise ValueError(f"temperature must be > 0 for softmax (got {temperature!r}); T = 0 means argmax mode")
    return ProbabilityDistribution._unchecked(softmax_masses(z, temperature), token_ids(z.size))


def softmax_masses(z: np.ndarray, temperature: float) -> np.ndarray:
    """The masses of :func:`softmax` for logits already checked by :func:`as_logits`.

    This is the one implementation of the softmax arithmetic; the sampler's
    kernels call it directly so that each logit vector is checked once.  A
    2-D ``z`` is a batch of logit rows: each row gets the same bits it would
    get on its own.
    """
    # Reduce over the last axis with keepdims=True, passed positionally
    # (axis, dtype, out, keepdims): keyword parsing would add about a
    # microsecond to every call of the 1-D sampling path.
    e = np.exp((z - np.maximum.reduce(z, -1, None, None, True)) / temperature)
    e /= np.add.reduce(e, -1, None, None, True)
    return e


def argmax_onehot(dist: ProbabilityDistribution) -> TokenId:
    """Index of the most probable token; ties go to the lowest original index."""
    masses = dist.masses
    if masses.size == 0:
        raise ValueError("cannot take the argmax of an empty distribution")
    # The ufunc reduces skip the Python wrappers of ndarray.max and .min.
    return int(np.minimum.reduce(dist.index_map[masses == np.maximum.reduce(masses)]))


def entropy(dist: ProbabilityDistribution) -> float:
    """Shannon entropy ``H = -sum_i P_i ln P_i`` in nats, with 0 ln 0 = 0."""
    p = dist.masses
    # ln p where p > 0 and 0 elsewhere, then times p: the same bits as p * ln p, without a warning to silence.
    terms = np.log(p, out=np.zeros_like(p), where=p > 0.0)
    terms *= p
    return float(-terms.sum())


def logits_from_masses(masses: Sequence[float] | np.ndarray) -> np.ndarray:
    """Log of a mass vector, floored at :data:`LOGIT_FLOOR` so entries stay finite.

    ``softmax(logits_from_masses(p), 1)`` reproduces a normalized ``p``
    within 1e-9 even when ``p`` contains exact zeros.
    """
    return np.log(np.maximum(np.asarray(masses, dtype=np.float64), LOGIT_FLOOR))
