"""The staged sampling pipeline: sort, top-k, top-p, min-p, seeded draw.

Stage order is fixed: temperature softmax, sort descending, top-k,
renormalize, top-p, renormalize, min-p, renormalize, restore original token
order, inverse-CDF draw.  Every truncation stage is followed by a
renormalization (including min-p, before the draw), and every stage's
survivor set is recorded in a :class:`SampleTrace`.

Two semantic points that differ between samplers in the wild and are pinned
here:

* **Top-p crossing entry is included**: the shortest prefix whose cumulative
  mass reaches ``top_p`` survives, *including* the entry that crosses the
  threshold.  Kept mass is therefore always >= ``top_p`` and at least one
  token always survives.
* **Min-p is an absolute floor**, not relative to the maximum mass: a token
  survives iff its (renormalized, post-top-p) mass is >= ``min_p``.  If no
  token qualifies, the single largest entry is kept (survivor guarantee).

``temperature = 0`` is accepted in :class:`SamplerConfig` and means argmax
mode: the pipeline is bypassed and the most probable token under
``softmax(z, 1)`` is returned deterministically.

:func:`run_pipeline` samples one logit vector; :func:`sample_rows` samples
every row of a logit matrix under one config, optionally with a top-k per
row: one array pass that cuts by the same private rules draws the tokens,
in a staging half whose rows a caller may keep and a draw half, and
:func:`run_pipeline`'s own staging writes each row's trace.  Given a
memo, :func:`run_pipeline` stages a recurring ``(logits, config)`` pair
once and only draws on later calls.

Randomness comes from :class:`RandomStream`, a Philox (4x64)
counter-based generator.  The algorithm identity is part of the external
contract: a given seed yields the identical uniform sequence on every
platform and in every run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .jsonvalues import (
    BOOL,
    INTEGER,
    NUMBER,
    NUMBER_OR_NULL,
    OBJECT,
    _FloatSpellings,
    array_parts,
    brackets,
    dumps,
    echo,
    member,
    spell_array,
    value,
    values,
)
from .probcore import (
    ProbabilityDistribution,
    TokenId,
    _lowest_argmax,
    argmax_onehot,
    as_logits,
    by_token_index,
    softmax,  # noqa: F401  (re-exported: perfbench's tracer wraps sampler.softmax)
    softmax_masses,
    token_ids,
)

STAGE_SOFTMAX = "after-softmax"
STAGE_TOP_K = "after-top-k"
STAGE_TOP_P = "after-top-p"
STAGE_MIN_P = "after-min-p"

#: Stage names in pipeline order.
STAGES = (STAGE_SOFTMAX, STAGE_TOP_K, STAGE_TOP_P, STAGE_MIN_P)
_SPELLED_STAGES = {name: dumps(name) for name in STAGES}

_U64_MAX = 2**64 - 1


def _check_int(x, name: str) -> int:
    """``x`` as an int if it is a Python or numpy integer: not a bool, which
    reads as 0 or 1, and not a float, which ``int()`` would truncate."""
    if not isinstance(x, (int, np.integer)) or isinstance(x, bool):
        raise ValueError(f"{name} must be an integer (got {x!r})")
    return int(x)


def _check_real(x, name: str) -> None:
    """Refuse ``x`` unless it is a Python or numpy integer or float: a bool
    reads as 0 or 1, so ``True`` would pass as a temperature or a top_p of 1,
    and a Python integer past the float range has no float to compare."""
    if not isinstance(x, (int, float, np.integer, np.floating)) or isinstance(x, bool):
        raise ValueError(f"{name} must be a number (got {x!r})")
    try:
        float(x)
    except OverflowError:
        raise ValueError(f"{name} is beyond the float range") from None


def _check_seed(seed) -> int:
    """``seed`` as an int: every seed, master or derived, is an integer in
    ``0 .. 2^64 - 1``, checked here and nowhere else."""
    seed = _check_int(seed, "seed")
    if not 0 <= seed <= _U64_MAX:
        raise ValueError(f"seed must fit in an unsigned 64-bit integer (got {seed})")
    return seed


@dataclass(frozen=True)
class SamplerConfig:
    """The four sampling knobs plus the seed.

    The canonical textual order is ``(T, k, top_p, min_p)``, e.g.
    ``(0.8, 40, 0.95, 0)``.  ``temperature = 0`` selects argmax mode.
    """

    temperature: float
    top_k: int
    top_p: float = 1.0
    min_p: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("temperature", "top_p", "min_p"):
            _check_real(getattr(self, name), name)
        if not np.isfinite(self.temperature) or self.temperature < 0:
            raise ValueError(f"temperature must satisfy T >= 0 (got {self.temperature!r})")
        if _check_int(self.top_k, "top_k") < 1:
            raise ValueError(f"top_k must satisfy k >= 1 (got {self.top_k})")
        if not 0.0 < self.top_p <= 1.0:
            raise ValueError(f"top_p must satisfy 0 < top_p <= 1 (got {self.top_p!r})")
        if not 0.0 <= self.min_p < 1.0:
            raise ValueError(f"min_p must satisfy 0 <= min_p < 1 (got {self.min_p!r})")
        _check_seed(self.seed)

    def shorthand(self) -> str:
        """Compact ``(T, k, top_p, min_p)`` rendering, e.g. ``(0.8, 40, 0.95, 0)``."""
        return f"({self.temperature:g}, {self.top_k}, {self.top_p:g}, {self.min_p:g})"


#: Philox's starting counter.  The generator copies it into its own state,
#: and it is read-only, so no stream can change it for the next one.
_ZERO_COUNTER = np.zeros(4, dtype=np.uint64)
_ZERO_COUNTER.setflags(write=False)


class RandomStream:
    """Seeded uniform stream backed by the Philox (4x64) counter-based generator.

    The generator algorithm is fixed and documented here because it is part
    of the reproducibility contract: the same 64-bit seed produces the
    identical sequence of ``next_uniform()`` values across runs and
    platforms.  One stream must be owned by exactly one generation sequence;
    parallel work derives per-sequence seeds with :func:`derive_seed`.
    """

    __slots__ = ("seed", "_gen")

    def __init__(self, seed: int):
        self.seed = _check_seed(seed)
        # Philox's default counter is zero; given explicitly, construction is cheaper.
        self._gen = np.random.Generator(np.random.Philox(self.seed, counter=_ZERO_COUNTER))

    def next_uniform(self) -> float:
        """Next pseudo-random double in [0, 1)."""
        return float(self._gen.random())

    def next_uniforms(self, n: int) -> np.ndarray:
        """The next ``n`` doubles in [0, 1): the values, in order, of ``n`` calls
        of :meth:`next_uniform`, leaving the stream at the same position."""
        return self._gen.random(n)


def derive_seed(master_seed: int, ordinal: int) -> int:
    """Deterministic per-sequence seed from a master seed and an ordinal.

    Implemented as ``SeedSequence(master_seed, spawn_key=(ordinal,))``, a
    fixed published hashing scheme, so sweep row ``i`` gets the same seed no
    matter where or in which order rows execute.  The ordinal is a
    non-negative integer of any size; a bool or a float is refused, as
    ``int()`` would give two ordinals one seed.
    """
    ordinal = _check_int(ordinal, "ordinal")
    if ordinal < 0:
        raise ValueError(f"ordinal must be non-negative (got {ordinal})")
    ss = np.random.SeedSequence(_check_seed(master_seed), spawn_key=(ordinal,))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _fields(d, keys: tuple[str, ...], what: str) -> list:
    """The values of ``keys`` in the JSON object ``d``, which must hold them all."""
    value(d, OBJECT, what)
    for key in keys:
        if key not in d:
            raise ValueError(f"{what} has no field {key!r}")
    return [d[key] for key in keys]


@dataclass(frozen=True, eq=False)
class StageRecord(ProbabilityDistribution):
    """Survivor set snapshot after one pipeline stage (post-renormalization)."""

    stage: str = field(kw_only=True)

    @property
    def survivor_count(self) -> int:
        return self.masses.size

    def to_json_dict(self) -> dict:
        return {
            "stage": self.stage,
            "survivor_count": self.survivor_count,
            "masses": self.masses.tolist(),
            "index_map": self.index_map.tolist(),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "StageRecord":
        """Read a record as ``to_json_dict`` writes it.

        Raises ValueError, naming the field, for a missing field, a value of
        the wrong JSON kind, a stage name not in :data:`STAGES`, a survivor
        count other than the number of masses and of indices, masses that
        are negative or do not sum to 1, and repeated or negative indices.
        """
        keys = ("stage", "survivor_count", "masses", "index_map")
        stage, count, masses, index_map = _fields(d, keys, "stage record")
        if stage not in STAGES:
            raise ValueError(f"stage must be one of {', '.join(STAGES)} (got {echo(stage)})")
        masses = values(masses, NUMBER, "masses")
        index_map = values(index_map, INTEGER, "index_map")
        if type(count) is not int or not count == len(masses) == len(index_map):
            raise ValueError(f"survivor_count must be a JSON integer equal to the number of masses ({len(masses)}) "
                             f"and of indices ({len(index_map)}) (got {echo(count)})")
        if max(index_map, default=0) >= 2**63:  # past int64
            raise ValueError(f"index_map entries must be below 2^63 (got {max(index_map)})")
        return cls(masses, index_map, stage=stage)  # checks the masses and the indices


@dataclass(frozen=True, eq=False)
class SampleTrace:
    """Per-stage instrumentation of one pipeline run.

    ``stages`` holds one record per executed stage in pipeline order;
    ``drawn_uniform`` is the unit-interval value consumed by the draw, a
    number in ``[0, 1)`` as every stream yields (None in argmax mode, which
    draws nothing); the rest is derived from them.  :func:`spell_traces`
    writes traces to a file and :meth:`from_json_dict` reads one back.
    """

    stages: tuple[StageRecord, ...]
    drawn_uniform: float | None

    def __post_init__(self) -> None:
        # The kernels' _trace skips this check: their uniforms come from a stream.
        u = self.drawn_uniform
        if u is not None:
            _check_real(u, "drawn_uniform")
            if not 0.0 <= u < 1.0:  # NaN included
                raise ValueError(f"drawn_uniform must be in [0, 1), or None in argmax mode (got {u!r})")

    @property
    def final(self) -> StageRecord:
        """The last executed stage (the distribution actually sampled)."""
        return self.stages[-1]

    @property
    def argmax_mode(self) -> bool:
        return self.drawn_uniform is None

    @cached_property
    def drawn_token(self) -> TokenId:
        """The softmax stage's argmax in argmax mode, else the final stage's draw at ``drawn_uniform``."""
        if self.argmax_mode:
            return argmax_onehot(self.stages[0])
        return _pick(_cdf(self.final.masses, self.final.index_map), self.drawn_uniform)

    def to_json_dict(self) -> dict:
        return {
            "argmax_mode": self.argmax_mode,
            "stages": [s.to_json_dict() for s in self.stages],
            "drawn_token": int(self.drawn_token),
            "drawn_uniform": None if self.drawn_uniform is None else float(self.drawn_uniform),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "SampleTrace":
        """Read a trace as ``to_json_dict`` writes it, and nothing the
        pipeline cannot write: int() or bool() would turn a drawn_token of
        2.7 into 2 and an argmax_mode of "false" into True.

        Raises ValueError, naming the field, for a missing field, a value of
        the wrong JSON kind, any refusal of :meth:`StageRecord.from_json_dict`,
        stages other than the softmax stage alone (argmax mode) or all four
        in order, an index outside the softmax stage's ``0 .. D-1``, a
        drawn token that is not a final survivor, a drawn uniform outside
        ``[0, 1)`` or null outside argmax mode, and a drawn token other than
        the one the stages and the uniform select.
        """
        keys = ("drawn_token", "argmax_mode", "drawn_uniform", "stages")
        token, argmax_mode, u, stages = _fields(d, keys, "trace")
        token = value(token, INTEGER, "drawn_token")
        argmax_mode = value(argmax_mode, BOOL, "argmax_mode")
        u = value(u, NUMBER_OR_NULL, "drawn_uniform")
        stages = tuple(StageRecord.from_json_dict(s) for s in values(stages, OBJECT, "stages"))
        names = tuple(r.stage for r in stages)
        expected = STAGES[:1] if argmax_mode else STAGES
        if names != expected:
            raise ValueError(f"stages must be {', '.join(expected)} (got {', '.join(names) or 'none'})")
        size, top = stages[0].survivor_count, max(r.index_map.max() for r in stages)
        if top >= size:
            raise ValueError(f"index_map entries must be below {size}, the softmax stage's size (got {top})")
        if token not in stages[-1].index_map.tolist():
            raise ValueError(f"drawn_token must be one of the final stage's survivors (got {token})")
        if (u is None) != argmax_mode or not (u is None or 0.0 <= u < 1.0):
            raise ValueError(f"drawn_uniform must be in [0, 1), or null in argmax mode alone (got {echo(u)})")
        trace = cls(stages, u)
        if token != trace.drawn_token:
            raise ValueError(f"drawn_token must be {trace.drawn_token}, which the stages and uniform select "
                             f"(got {token})")
        return trace


def spell_traces(traces: Sequence[SampleTrace], depth: int) -> str:
    """``[t.to_json_dict() for t in traces]`` as ``json.dumps(sort_keys=True, indent=2)``
    spells it at nesting level ``depth``, spelled straight from the stage arrays."""
    return "".join(trace_parts(traces, depth))


def trace_parts(traces: Sequence[SampleTrace], depth: int) -> Iterator[str]:
    """:func:`spell_traces` in parts, one per trace, spelled as they are taken.

    Each distinct ``stages`` tuple is spelled once, and so is each distinct
    index map: tokens staged once and drawn again share one tuple, and the
    softmax stage's ``0 .. D-1`` is one array in every trace.  Both memos are
    keyed by identity, and each entry holds its object, so no id is reused
    while the document is written.  A record is one join of its spelled
    arrays and its keys and brackets, which are spelled once per document,
    as are the trace's own member keys.
    """
    floats = _FloatSpellings()  # one per document, like the memos
    spelled_stages: dict[int, tuple[tuple[StageRecord, ...], str]] = {}
    index_maps: dict[int, tuple[np.ndarray, str]] = {}
    r_open, r_sep, r_close = brackets("{}", depth + 3)
    index_head, masses_head = r_open + member("index_map", ""), r_sep + member("masses", "")
    # What follows the masses: the stage name, then the survivor count's key.
    stage_tails = {name: r_sep + member("stage", spelled) + r_sep + member("survivor_count", "")
                   for name, spelled in _SPELLED_STAGES.items()}
    t_open, t_sep, t_close = brackets("{}", depth + 1)
    argmax_head, token_head = t_open + member("argmax_mode", ""), t_sep + member("drawn_token", "")
    uniform_head, stages_head = t_sep + member("drawn_uniform", ""), t_sep + member("stages", "")

    def spell_record(record: StageRecord) -> str:
        masses, index_map = record.masses, record.index_map
        entry = index_maps.get(id(index_map))
        if entry is None:
            entry = index_maps[id(index_map)] = (
                index_map, spell_array(list(map(int.__repr__, index_map.tolist())), depth + 4))
        return "".join((index_head, entry[1], masses_head,
                        spell_array(list(map(floats.__getitem__, masses.tolist())), depth + 4),
                        stage_tails[record.stage], int.__repr__(masses.size), r_close))

    def spell_trace(t: SampleTrace) -> str:
        entry = spelled_stages.get(id(t.stages))
        if entry is None:
            entry = spelled_stages[id(t.stages)] = (
                t.stages, spell_array(list(map(spell_record, t.stages)), depth + 2))
        u = t.drawn_uniform
        return "".join((argmax_head, "true" if u is None else "false", token_head, int.__repr__(int(t.drawn_token)),
                        uniform_head, "null" if u is None else floats[float(u)], stages_head, entry[1], t_close))

    return array_parts(map(spell_trace, traces), depth)


def sort_descending(dist: ProbabilityDistribution) -> ProbabilityDistribution:
    """Sorted view: masses non-increasing, ties by ascending original index."""
    order = np.lexsort((dist.index_map, -dist.masses))
    return ProbabilityDistribution._unchecked(dist.masses[order], dist.index_map[order])


def top_k_filter(sorted_dist: ProbabilityDistribution, k: int) -> ProbabilityDistribution:
    """Keep the first ``min(k, n)`` entries of a descending-sorted distribution."""
    if k < 1:
        raise ValueError(f"top_k must satisfy k >= 1 (got {k})")
    return _prefix(sorted_dist, k)


def top_p_filter(sorted_dist: ProbabilityDistribution, top_p: float) -> ProbabilityDistribution:
    """Keep the shortest prefix whose cumulative mass reaches ``top_p``.

    The entry that crosses the threshold is included, so at least one token
    survives and the kept mass is always >= ``top_p``.  Input must be sorted
    descending and normalized.
    """
    return _prefix(sorted_dist, _top_p_length(sorted_dist.masses, top_p))


def min_p_filter(dist: ProbabilityDistribution, min_p: float) -> ProbabilityDistribution:
    """Keep entries whose mass is at least the absolute floor ``min_p``.

    Input must be sorted descending, so the survivors are a prefix; the
    floor applies to the masses as given (in the pipeline: renormalized
    after top-p).  If nothing qualifies, the single largest entry is kept
    (the survivor guarantee), ties going to the lowest original token index.
    This is the *absolute* min-p semantics; some samplers elsewhere scale
    the floor by the maximum mass, this one does not.
    """
    if min_p == 0.0:  # masses are non-negative: everything survives
        return dist
    length = _min_p_length(dist.masses, min_p)
    if length == 0:
        return ProbabilityDistribution._unchecked(np.array([1.0]), np.array([argmax_onehot(dist)]))
    return _prefix(dist, length)


def _prefix(dist: ProbabilityDistribution, length: int) -> ProbabilityDistribution:
    # The first `length` entries, renormalized; the input itself when that is all of them.
    if length >= dist.masses.size:
        return dist
    return ProbabilityDistribution._unchecked(_renormalize(dist.masses[:length]), dist.index_map[:length])


def _top_p_length(masses: np.ndarray, top_p: float):
    # The cumulative masses below top_p, plus the crossing entry; a length past the end keeps everything.
    return np.add.reduce(np.add.accumulate(masses, -1) < top_p, -1) + 1


def _min_p_length(masses: np.ndarray, min_p: float):
    # The masses at or above the floor: a prefix, as every renormalization keeps a row descending.
    return np.add.reduce(masses >= min_p, -1)


def _renormalize(kept: np.ndarray) -> np.ndarray:
    # A kept prefix divided by its own sum: its bits are every truncation's trace bytes.
    return kept / np.add.reduce(kept, -1, None, None, True)


def _cdf(masses: np.ndarray, index_map: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # The survivors' cumulative masses in ascending original token order, and
    # the token at each position: what the inverse-CDF draw searches.
    if masses.size == 1:  # _pick draws the one survivor without a search
        return masses, index_map
    masses, index_map = by_token_index(masses, index_map)
    return np.add.accumulate(masses), index_map


def _pick(cdf: tuple[np.ndarray, np.ndarray], u: float | None) -> TokenId:
    # The first token whose cumulative mass exceeds u; a lone survivor needs no u.
    cum, index_map = cdf
    if cum.size == 1:
        return int(index_map[0])
    pos = int(cum.searchsorted(u, "right"))
    if pos >= cum.size:  # u beyond a rounded-down total
        pos = cum.size - 1
    return int(index_map[pos])


# Hot-path constructors for the frozen trace dataclasses: the kernel passes
# read-only arrays, well-typed values and the token it drew, so __init__ is skipped.


def _record(stage: str, masses: np.ndarray, index_map: np.ndarray) -> StageRecord:
    record = object.__new__(StageRecord)
    record.__dict__.update(masses=masses, index_map=index_map, stage=stage)
    return record


def _trace(stages: tuple[StageRecord, ...], token: TokenId, u: float | None) -> SampleTrace:
    trace = object.__new__(SampleTrace)
    trace.__dict__.update(stages=stages, drawn_uniform=u, drawn_token=token)
    return trace


#: What every stage before the draw leaves for it, a function of the logits and
#: the four knobs alone: the read-only stage records and the final stage's
#: token-order CDF with its index map (in argmax mode, the one survivor).
_Staged = tuple[tuple[StageRecord, ...], tuple[np.ndarray, np.ndarray]]


def _staged(z: Sequence[float] | np.ndarray, cfg: SamplerConfig) -> _Staged:
    z = as_logits(z)
    if cfg.temperature == 0.0:
        p = softmax_masses(z, 1.0)
        p.setflags(write=False)
        ids = token_ids(p.size)
        best = int(p.argmax())  # the first maximum: ties go to the lowest index
        return (_record(STAGE_SOFTMAX, p, ids),), (p[best : best + 1], ids[best : best + 1])

    p = softmax_masses(z, cfg.temperature)
    p.setflags(write=False)
    # The index map is 0..D-1 here, so a stable sort of -p orders ties by
    # ascending token index, exactly as sort_descending does.
    order = (-p).argsort(kind="stable")
    ranked = ProbabilityDistribution._unchecked(p[order], order)
    # Each truncation stays one call of its public stage function, so its
    # arithmetic exists once and a tracer can count its calls and no-ops.
    p1 = top_k_filter(ranked, cfg.top_k)
    p2 = top_p_filter(p1, cfg.top_p)
    p3 = min_p_filter(p2, cfg.min_p)
    stages = (
        _record(STAGE_SOFTMAX, p, token_ids(p.size)),
        _record(STAGE_TOP_K, p1.masses, p1.index_map),
        _record(STAGE_TOP_P, p2.masses, p2.index_map),
        _record(STAGE_MIN_P, p3.masses, p3.index_map),
    )
    return stages, _cdf(p3.masses, p3.index_map)


def run_pipeline(
    z: Sequence[float] | np.ndarray,
    cfg: SamplerConfig,
    rng: RandomStream,
    *,
    want_trace: bool = True,
    memo: dict[tuple, _Staged] | None = None,
) -> tuple[TokenId, SampleTrace | None]:
    """Run the full staged pipeline on a logit vector and draw one token.

    Executes softmax(z, T), sort, top-k, top-p, min-p (each truncation
    followed by renormalization), restores original token order, and draws.
    With ``cfg.temperature == 0`` the sampling stages are bypassed entirely:
    the argmax of ``softmax(z, 1)`` is the one survivor, drawn without a
    uniform, and the trace is marked ``argmax_mode``.

    ``want_trace=False`` returns None for the trace: it skips only building
    the :class:`SampleTrace` object and changes no computed value or the
    random stream position.

    ``memo``, a dict the caller owns and starts empty, keeps the stages of
    every ``(logits, config)`` pair it has seen, keyed by the four knobs and
    the shape and bytes of the logits as float64, never by the array's
    identity.  A pair seen before is neither checked nor staged again: the
    call draws one uniform (none in argmax mode) on the stored token-order
    CDF, and its trace shares the stored read-only stage records.  Tokens,
    trace bytes and the stream position are those of a call without a memo.
    """
    if memo is None:
        stages, cdf = _staged(z, cfg)
    else:
        z = np.asarray(z, dtype=np.float64)
        key = (cfg.temperature, cfg.top_k, cfg.top_p, cfg.min_p, z.shape, z.tobytes())
        staged = memo.get(key)
        if staged is None:
            staged = memo[key] = _staged(z, cfg)
        stages, cdf = staged
    u = None if cfg.temperature == 0.0 else rng.next_uniform()
    token = _pick(cdf, u)
    return token, _trace(stages, token, u) if want_trace else None


def _cut_rows(masses: np.ndarray, kept: np.ndarray, before: np.ndarray | int) -> np.ndarray:
    # Rows whose survivor count fell (kept < before) keep their first `kept`
    # entries, renormalized, and zeros after them; other rows are unchanged.
    # Rows are renormalized in groups of equal length, one contiguous block
    # and one add.reduce per group, which gives each row the bits of the
    # 1-D reduce over its own prefix.
    shrunk = kept < before
    if not shrunk.any():
        return masses
    out = masses.copy()
    for length in np.unique(kept[shrunk]):
        rows = np.flatnonzero(shrunk & (kept == length))
        out[rows, :length] = _renormalize(masses[rows, :length])
        out[rows, length:] = 0.0
    return out


def _row_ks(top_k, n: int) -> np.ndarray:
    """The per-row k of :func:`sample_rows`: ``n`` integers, each at least 1."""
    ks = np.asarray(top_k)
    if ks.shape != (n,):
        raise ValueError(f"per-row top_k for {n} rows must have shape ({n},) (got {ks.shape})")
    if ks.dtype.kind not in "iu":  # signed or unsigned integers: not bool ("b") or float ("f")
        raise ValueError(f"per-row top_k must hold integers (got dtype {ks.dtype})")
    if ks.min() < 1:
        i = int((ks < 1).argmax())
        raise ValueError(f"the top_k of row {i} must satisfy k >= 1 (got {ks[i]})")
    return ks


#: What the staging half of :func:`sample_rows` leaves for its draw half, one
#: entry per row: the final stage's cumulative masses in token order (zero
#: columns in argmax mode, which draws nothing); the draw clamp's token, the
#: highest surviving token, for a row whose total rounds below 1 (else -1: no
#: uniform passes that total); and the forced token: the min-p fallback
#: winner, the argmax in argmax mode, else -1.
_StagedRows = tuple[np.ndarray, np.ndarray, np.ndarray]


def _stage_rows(z: np.ndarray, cfg: SamplerConfig, n1: np.ndarray) -> _StagedRows:
    """The staging half of :func:`sample_rows`: checked ``(N, D)`` logits in,
    row ``i`` cut to its first ``n1[i]`` sorted entries by top-k.  Each row's
    result is per-row arithmetic that does not depend on the other rows."""
    n, size = z.shape
    if cfg.temperature == 0.0:
        best = softmax_masses(z, 1.0).argmax(axis=1)  # the first maximum: ties go to the lowest index
        return np.empty((n, 0)), best, best
    # Only the staged rows leave the array pass, so each stage's masses are
    # dropped as soon as the next stage's exist.
    p = softmax_masses(z, cfg.temperature)
    # A stable sort of -p orders ties by ascending token index, as in run_pipeline.
    order = (-p).argsort(axis=1, kind="stable")
    row = np.arange(n)[:, None]
    ranked = p[row, order]
    del p
    # Survivor counts after top-k, top-p and min-p; every stage's masses keep
    # the full width D, with zeros after each row's survivors.
    p1 = _cut_rows(ranked, n1, size)
    del ranked  # p1 is ranked itself when no row is cut
    # Past a row's survivors its cumulative mass stays at its total: cap at n1.
    n2 = np.minimum(_top_p_length(p1, cfg.top_p), n1)
    p2 = _cut_rows(p1, n2, n1)
    del p1
    forced = np.full(n, -1)
    if cfg.min_p == 0.0:
        n3, p3 = n2, p2
    else:
        n3 = _min_p_length(p2, cfg.min_p)  # the zeros after the survivors never count
        fallback = np.flatnonzero(n3 == 0)
        if fallback.size:
            # No survivor: keep the largest mass, ties to the lowest token index.
            # Renormalizing can tie entries that were ordered apart, so the
            # winner is not always at position 0.  The staged row keeps position
            # 0, whose mass renormalizes to x / x = 1.0, and the winner is forced.
            forced[fallback] = _lowest_argmax(p2[fallback], order[fallback])
            n3[fallback] = 1
        p3 = _cut_rows(p2, n3, n2)
    del p2
    # Survivors back in token order (other tokens hold 0.0, and adding 0.0 is
    # exact); the cumulative sums are taken in place, without a second array.
    cum = np.empty_like(p3)
    cum[row, order] = p3
    del p3
    np.add.accumulate(cum, axis=1, out=cum)
    # Only a row whose total rounds below 1 can be passed by a uniform.
    clamp = np.full(n, -1)
    short = np.flatnonzero(cum[:, -1] < 1.0)
    clamp[short] = np.where(token_ids(size) < n3[short, None], order[short], -1).max(axis=1)
    return cum, clamp, forced


def _draw_rows(staged: _StagedRows, u: np.ndarray | None, rows: np.ndarray | None = None) -> np.ndarray:
    """The draw half of :func:`sample_rows`: the int64 token of each row of
    ``staged`` (of ``rows`` of it, when given) at its uniform, None in argmax
    mode.  The token is the first one whose cumulative mass exceeds the
    uniform; past the total, the highest surviving token; a forced token
    replaces either."""
    cum, clamp, forced = staged if rows is None else (a[rows] for a in staged)
    if u is None:
        return forced
    # Each row's cumulative masses never decrease, so the first one above u
    # ends the run of those at or below it.
    tokens = (cum > u[:, None]).argmax(axis=1)
    clamped = np.flatnonzero(cum[:, -1] <= u)
    tokens[clamped] = clamp[clamped]
    return np.where(forced < 0, tokens, forced)


def sample_rows(
    z: np.ndarray,
    cfg: SamplerConfig,
    u: np.ndarray | None,
    *,
    top_k: np.ndarray | None = None,
    want_traces: bool = True,
) -> tuple[np.ndarray, tuple[SampleTrace, ...] | None]:
    """Run the staged pipeline on every row of an ``(N, D)`` logit matrix.

    Row ``i`` gets exactly the token and trace that :func:`run_pipeline`
    gives for ``z[i]`` and ``cfg`` when the stream's next uniform is
    ``u[i]``; the rows share one config.  ``top_k``, an ``(N,)`` integer
    array, gives each row its own k in place of ``cfg.top_k``, so row ``i``
    is sampled as under ``replace(cfg, top_k=top_k[i])``.  In argmax mode
    (``cfg.temperature == 0``) nothing is drawn and ``u`` is not read, so
    the caller takes no uniforms (pass None).

    The tokens come from one array pass in two halves.  The staging half
    cuts each stage as a per-row prefix by the rules the public filters use
    and scatters the survivors to token order, where a cumulative sum per
    row gives the sequential sums; the draw half searches those sums at each
    row's uniform.  Each row's trace is :func:`run_pipeline`'s own staging
    of that row.

    Returns the ``(N,)`` int64 tokens and, unless ``want_traces=False``, one
    trace per row.  Raises ValueError for a per-row ``top_k`` of another
    shape or of a float or bool dtype, and, naming the first such row, for
    a k below 1 and a uniform outside ``[0, 1)`` (NaN included), which no
    stream yields.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.size == 0:
        raise ValueError(f"logits must form a non-empty 2-D matrix (got shape {z.shape})")
    as_logits(z.ravel())  # every entry finite
    n, size = z.shape
    if top_k is None:
        n1 = np.full(n, min(cfg.top_k, size))
    else:
        ks = _row_ks(top_k, n)
        n1 = np.minimum(ks, size).astype(np.int64)  # uint64 and int64 would mix to float64
    if cfg.temperature == 0.0:
        u = None
    else:
        if u is None or np.shape(u) != (n,):
            raise ValueError(f"sampling {n} rows needs {n} uniforms")
        u = np.asarray(u, dtype=np.float64)
        outside = ~((u >= 0.0) & (u < 1.0))  # NaN included
        if outside.any():
            i = int(outside.argmax())
            raise ValueError(f"the uniform of row {i} must be in [0, 1) (got {float(u[i])!r})")
    tokens = _draw_rows(_stage_rows(z, cfg, n1), u)
    if not want_traces:
        return tokens, None
    # Each row's trace is run_pipeline's staging of that row, so the kernels' traces agree by construction.
    cfgs = [cfg] * n if top_k is None else [replace(cfg, top_k=k) for k in ks.tolist()]
    uniforms = [None] * n if u is None else u.tolist()
    return tokens, tuple(_trace(_staged(z[i], cfgs[i])[0], int(tokens[i]), uniforms[i]) for i in range(n))
