"""Autoregressive next-frame prediction over grids of discrete patch tokens.

A frame is an ``H x W`` integer array of patch tokens in ``[0, V)``.  The
synthetic world model assigns each patch a conditional distribution over the
next frame's token at the same position, given that patch's previous token
and its 4-neighborhood:

* a fixed ``stay_mass`` sits on "repeat the previous token", and the
  construction guarantees it strictly exceeds every other single mass, so the
  conditional *mode* is always "stay";
* the remaining mass is spread over the other tokens, shaped by a seeded
  per-token bias and by how often a token appears among the 4 neighbors, with
  deviations capped so the mode invariant and positivity are provable rather
  than empirical.

That makes the central phenomenon exact: under argmax decoding (top-k with
k = 1, or zero temperature) every patch repeats, so a rollout is frozen on
its prompt frame from the first prediction onward, for every seed and every
valid world.  Widening the sampler (larger k) admits non-stay tokens and the
per-frame novelty grows with k.  A rollout's frames sit in one array, and its
freeze index is read from the per-step novelty, which is 0 exactly when a
frame repeats its predecessor.

Patches are sampled independently given the previous frame (there is no
within-frame autoregression), in row-major order from the rollout's own
random stream, so rollouts are cheap, analytic, and fully deterministic per
seed.  The rollouts of a :func:`k_sweep` advance in lock-step, and one
memo per call keeps the staged row of every patch context it has seen: the
patch's k, its previous token and its sorted in-grid neighbor tokens,
which alone fix its conditional.  Each step builds the conditionals of the
contexts the memo lacks as one matrix and stages them in one call of the
staging half of :func:`~decodelab.sampler.sample_rows`; every patch then
draws from its context's row with its own uniform.  Each rollout takes its
patches' uniforms from its own stream in row-major order, and each patch
gets the same arithmetic as when sampled alone, so a rollout's frames do
not depend on which rollouts step beside it.  :func:`rollout` and
:func:`predict_frame` are the one-rollout case of the same loop and step,
and only the latter asks for traces.  One staging call and the memo's
store each hold at most ``_CELLS_PER_CALL`` (patch, token) cells; a larger
sweep runs in batches of whole rollouts.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .probcore import logits_from_masses
from .sampler import (
    RandomStream,
    SampleTrace,
    SamplerConfig,
    _check_int,
    _check_real,
    _check_seed,
    _draw_rows,
    _stage_rows,
    _staged,
    _trace,
    derive_seed,
    run_pipeline,  # noqa: F401  (re-exported: perfbench's tracer wraps framesim.run_pipeline)
)

#: A frame: 2-D integer array of patch tokens, shape (height, width).
FrameGrid = np.ndarray

#: Fraction of the deviation budget actually used; keeps the mode and
#: positivity invariants strict rather than marginal.
_DEVIATION_HEADROOM = 0.9

#: The largest ``neighbor_gain``, a quarter of the largest float: a token
#: bias (at most 1 in size) plus four such gains rounds to a finite float.
MAX_NEIGHBOR_GAIN = sys.float_info.max / 4

#: The most (patch, token) cells that one staging call of a lock-step
#: rollout holds, and that its patch-context memo keeps: the
#: ``height * width * vocab`` that ``simulate`` allows a single frame step,
#: so a sweep's working set is that of a few steps.
_CELLS_PER_CALL = 2**20


@dataclass(frozen=True, eq=False)
class WorldModel:
    """Synthetic per-patch conditional model with a guaranteed "stay" mode.

    Immutable after construction; built by :func:`build_world`.
    """

    height: int
    width: int
    vocab: int
    stay_mass: float
    neighbor_gain: float
    seed: int
    token_bias: np.ndarray  # (vocab,) seeded values in [-1, 1]

    def conditional(self, stay: int, neighbors: Iterable[int]) -> np.ndarray:
        """Next-token distribution for a patch.

        ``stay`` is the patch's token in the previous frame; ``neighbors``
        are the previous-frame tokens of its in-grid 4-neighborhood (0 to 4
        values: a 1x1 grid has none, a 1xW grid two at most).  The result
        sums to one and its argmax is ``stay``.  Every token must be an
        integer (not a float or a bool) in ``0 .. vocab - 1``.
        """
        v = self.vocab
        if not 0 <= _check_int(stay, "stay token") < v:
            raise ValueError(f"stay token {stay} outside vocabulary of size {v}")
        tokens = np.array([_check_int(t, "neighbor token") for t in neighbors])  # object dtype past int64
        outside = (tokens < 0) | (tokens >= v)
        if outside.any():
            raise ValueError(f"neighbor token {tokens[outside][0]} outside vocabulary of size {v}")
        rows = np.zeros(tokens.size, dtype=np.int64)
        return _conditionals(self, np.array([stay]), rows, tokens.astype(np.int64))[0]


def _conditionals(world: WorldModel, stay: np.ndarray, rows: np.ndarray, tokens: np.ndarray) -> np.ndarray:
    """The ``(N, V)`` conditionals of N patches whose previous tokens are ``stay``.

    Each (patch, neighbor token) pair ``(rows[j], tokens[j])`` adds
    ``neighbor_gain`` to the weight of that token in that row.
    ``np.add.at`` is unbuffered and applies the adds one by one, so a token
    that is the neighbor twice gets ``(bias + gain) + gain``.  A row's
    weight at its stay token is never read (that mass is ``stay_mass``), so
    a neighbor equal to the stay token changes nothing.
    """
    v = world.vocab
    n = stay.size
    rest = 1.0 - world.stay_mass
    base = rest / (v - 1)
    w = np.empty((n, v), dtype=np.float64)
    w[:] = world.token_bias
    np.add.at(w, (rows, tokens), world.neighbor_gain)
    others = np.ones((n, v), dtype=bool)
    others[np.arange(n), stay] = False
    dev = w[others].reshape(n, v - 1)
    dev = dev - dev.mean(axis=1, keepdims=True)  # zero-sum: the non-stay total stays at `rest`
    peak = np.maximum.reduce(np.abs(dev), axis=1)
    spread = peak > 0.0
    dev[spread] *= (_DEVIATION_HEADROOM * min(world.stay_mass - base, base) / peak[spread])[:, None]
    out = np.empty((n, v), dtype=np.float64)
    out[others] = (base + dev).ravel()
    out[np.arange(n), stay] = world.stay_mass
    return out


def build_world(
    height: int,
    width: int,
    vocab: int,
    stay_mass: float,
    seed: int,
    neighbor_gain: float = 1.0,
) -> WorldModel:
    """Construct a world model; deterministic in ``seed``.

    ``stay_mass`` must exceed ``1/vocab`` so "stay" can strictly dominate
    every other mass, and be below 1 so the rest of the vocabulary keeps
    positive probability.  The grid sizes and the vocabulary size must be
    integers, not floats or bools that ``int()`` would truncate;
    ``stay_mass`` and ``neighbor_gain`` must be numbers, not bools, and
    ``neighbor_gain`` non-negative and at most :data:`MAX_NEIGHBOR_GAIN`.
    """
    height, width, vocab = _check_int(height, "height"), _check_int(width, "width"), _check_int(vocab, "vocab")
    if height < 1 or width < 1:
        raise ValueError(f"grid must be at least 1x1 (got {height}x{width})")
    if vocab < 2:
        raise ValueError(f"vocabulary must hold at least 2 tokens (got {vocab})")
    _check_real(stay_mass, "stay_mass")
    _check_real(neighbor_gain, "neighbor_gain")
    if not 1.0 / vocab < stay_mass < 1.0:
        raise ValueError(
            f"stay_mass must satisfy 1/vocab < stay_mass < 1 (got {stay_mass!r} with vocab {vocab})"
        )
    if not np.isfinite(neighbor_gain) or neighbor_gain < 0:
        raise ValueError(f"neighbor_gain must be finite and >= 0 (got {neighbor_gain!r})")
    if neighbor_gain > MAX_NEIGHBOR_GAIN:
        raise ValueError(f"neighbor_gain must be at most {MAX_NEIGHBOR_GAIN!r}, so that four neighbor adds "
                         f"to a token bias stay finite (got {neighbor_gain!r})")
    seed = _check_seed(seed)
    gen = np.random.Generator(np.random.Philox(seed))
    bias = gen.uniform(-1.0, 1.0, size=vocab)
    bias.flags.writeable = False
    return WorldModel(
        height=height,
        width=width,
        vocab=vocab,
        stay_mass=float(stay_mass),
        neighbor_gain=float(neighbor_gain),
        seed=seed,
        token_bias=bias,
    )


def random_frame(height: int, width: int, vocab: int, seed: int) -> FrameGrid:
    """A uniformly random prompt frame, deterministic in ``seed``."""
    shape = (_check_int(height, "height"), _check_int(width, "width"))
    gen = np.random.Generator(np.random.Philox(_check_seed(seed)))
    return gen.integers(0, _check_int(vocab, "vocab"), size=shape, dtype=np.int64)


def _check_frame(world: WorldModel, frame: FrameGrid) -> np.ndarray:
    f = np.asarray(frame)
    if f.shape != (world.height, world.width):
        raise ValueError(
            f"frame shape {f.shape} does not match world grid {(world.height, world.width)}"
        )
    if not np.issubdtype(f.dtype, np.integer):
        raise ValueError(f"frame must hold integer patch tokens (got dtype {f.dtype})")
    if f.size and (f.min() < 0 or f.max() >= world.vocab):
        raise ValueError(f"frame tokens must lie in [0, {world.vocab})")
    return f.astype(np.int64, copy=False)


class _PatchMemo:
    """The staged rows of the patch contexts that one rollout call has seen.

    A context is the key ``(min(k, V), previous token, sorted in-grid
    neighbor tokens)``: a patch's conditional depends on nothing else, as
    every neighbor adds the same gain and the order of equal adds cannot
    change a bit, and its staged row is per-row arithmetic of that
    conditional under the call's shared knobs.  A key is packed into one
    int64 by mixed radix (``V`` standing for a missing neighbor); where
    ``K * V * (V + 1)^4`` does not fit, for ``K`` distinct k values, each
    patch is its own key and nothing is shared.  Sorted codes are looked up
    in one ``searchsorted`` pass.  The store holds at most
    ``_CELLS_PER_CALL`` cells, and starts over when a step's new rows do not
    fit in what is left.
    """

    _ABSENT_KEY = np.iinfo(np.int64).max  # above every packed code: a lookup never runs off the end

    def __init__(self, vocab: int, ks: np.ndarray, draws: int):
        self.vocab = vocab
        self.ks = np.unique(ks)  # the distinct min(k, V) of the call's rows
        self.packed = self.ks.size * vocab * (vocab + 1) ** 4 < 2**63
        # Rows: no more than the call has patch draws, which keeps a small call's store small.
        self.capacity = min(_CELLS_PER_CALL // vocab, draws)
        self.store: tuple[np.ndarray, ...] | None = None  # sampler._StagedRows, `capacity` rows
        self._start_over()

    def _start_over(self) -> None:
        self.codes = np.array([self._ABSENT_KEY])  # sorted
        self.slots = np.array([-1])  # the store row of each code
        self.count = 0

    def code(self, ks: np.ndarray, stay: np.ndarray, near: np.ndarray) -> np.ndarray:
        """The key of each patch with top-k ``ks``, previous token ``stay`` and
        ``(N, 4)`` neighbor tokens ``near`` (``V`` for none)."""
        if not self.packed:
            return np.arange(stay.size)
        near = np.sort(near, axis=1)
        code = self.ks.searchsorted(ks) * self.vocab + stay
        for column in near.T:
            code *= self.vocab + 1
            code += column
        return code

    def rows(self, codes: np.ndarray, stage) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
        """The staged rows that patches with keys ``codes`` draw from, and each
        patch's row in them.  ``stage(patches)`` stages the contexts of those
        patch indices, one per key this memo has not seen."""
        if not self.packed:  # patch keys repeat from step to step, but their contexts do not
            self._start_over()
        keys, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
        at = self.codes.searchsorted(keys)
        new = np.flatnonzero(self.codes[at] != keys)
        if self.count and self.count + new.size > self.capacity:
            self._start_over()
            return self.rows(codes, stage)
        slots = self.slots[at]
        if new.size:
            staged = stage(first[new])
            if new.size > self.capacity:  # one step's contexts hold more than the store: draw from them as staged
                return staged, inverse
            if self.store is None:
                self.store = tuple(np.empty((self.capacity,) + a.shape[1:], a.dtype) for a in staged)
            lo, hi = self.count, self.count + new.size
            for kept, rows in zip(self.store, staged):
                kept[lo:hi] = rows
            slots[new] = np.arange(lo, hi)
            # Both runs are sorted, so the stable sort is one merge.
            merged = np.concatenate((self.codes, keys[new]))
            by_code = merged.argsort(kind="stable")
            self.codes = merged[by_code]
            self.slots = np.concatenate((self.slots, slots[new]))[by_code]
            self.count = hi
        return self.store, slots[inverse]


def _step(
    world: WorldModel,
    prev: np.ndarray,
    cfg: SamplerConfig,
    top_k: np.ndarray | None,
    rngs: Sequence[RandomStream],
    *,
    want_traces: bool,
    memo: _PatchMemo | None = None,
) -> tuple[np.ndarray, tuple[SampleTrace, ...] | None]:
    """Sample the next frame of every rollout in ``prev``, an ``(R, H, W)`` stack.

    Patch ``i`` is sampled with k ``top_k[i]`` (None: ``cfg.top_k`` for
    every patch).  The conditionals of the patches whose contexts ``memo``
    has not seen (None: a fresh memo) are built as one matrix and staged in
    one call of :func:`sampler._stage_rows`; every patch then draws from its
    context's staged row.  Rollout ``r`` takes ``H * W`` uniforms from its
    own stream ``rngs[r]`` (none in argmax mode), so its frame is the one it
    gets when stepped alone.  Traces, when wanted, are :func:`run_pipeline`'s
    staging of each patch, and need a fresh memo, which stages every patch's
    context in this step.
    """
    v = world.vocab
    ks = np.full(prev.size, min(cfg.top_k, v)) if top_k is None else top_k
    if memo is None:
        memo = _PatchMemo(v, ks, ks.size)
    stay = prev.ravel()
    padded = np.full((prev.shape[0], world.height + 2, world.width + 2), v)
    padded[:, 1:-1, 1:-1] = prev
    # Each patch's neighbors in its own frame, up, down, left, right; V marks one off the grid.
    near = np.stack([padded[:, :-2, 1:-1], padded[:, 2:, 1:-1], padded[:, 1:-1, :-2], padded[:, 1:-1, 2:]],
                    axis=-1).reshape(prev.size, 4)
    staged_here = []

    def stage(patches: np.ndarray):
        around = near[patches]
        rows, slots = np.nonzero(around < v)
        z = logits_from_masses(_conditionals(world, stay[patches], rows, around[rows, slots]))
        staged_here.append((z, ks[patches]))
        return _stage_rows(z, cfg, ks[patches])

    staged, rows = memo.rows(memo.code(ks, stay, near), stage)
    patches = world.height * world.width
    u = None if cfg.temperature == 0.0 else np.concatenate([rng.next_uniforms(patches) for rng in rngs])
    tokens = _draw_rows(staged, u, rows)
    traces = None
    if want_traces:  # a fresh memo staged every context in this step, so `rows` index its logits
        ((z, row_ks),) = staged_here
        stages = [_staged(z[j], replace(cfg, top_k=k))[0] for j, k in enumerate(row_ks.tolist())]
        uniforms = [None] * prev.size if u is None else u.tolist()
        traces = tuple(_trace(stages[j], t, x) for j, t, x in zip(rows.tolist(), tokens.tolist(), uniforms))
    return tokens.reshape(prev.shape), traces


def predict_frame(
    world: WorldModel,
    prev: FrameGrid,
    cfg: SamplerConfig,
    rng: RandomStream,
) -> tuple[FrameGrid, tuple[SampleTrace, ...]]:
    """Sample the next frame: every patch through the sampling pipeline.

    Each patch is drawn independently from its own conditional given the
    previous frame, all in one batched pass that consumes one uniform per
    patch in row-major order from the shared stream (none in argmax mode).
    Returns the new frame and one trace per patch in the same order, each
    the one :func:`run_pipeline` writes for that patch.
    """
    prev = _check_frame(world, prev)
    frames, traces = _step(world, prev[None], cfg, None, [rng], want_traces=True)
    out = frames[0]
    out.flags.writeable = False
    return out, traces


@dataclass(frozen=True, eq=False)
class Rollout:
    """An autoregressive frame trajectory plus its change statistics.

    ``frames`` holds the read-only rows of one ``(steps + 1, H, W)`` array;
    ``frames[0]`` is the prompt.  ``novelty[i]`` is the fraction of patches
    that differ between ``frames[i + 1]`` and ``frames[i]``.
    ``freeze_index`` is the first index ``i >= 1`` such that every later
    frame equals ``frames[i]`` (the image stopped changing there), or None
    if the last frame still differs from its predecessor; it is read from
    ``novelty``, which is 0 exactly where a frame repeats its predecessor.
    """

    frames: tuple[FrameGrid, ...]
    novelty: np.ndarray

    @property
    def freeze_index(self) -> int | None:
        return _freeze_index(self.novelty)

    @property
    def mean_novelty(self) -> float:
        return float(self.novelty.mean())


def _freeze_index(novelty: np.ndarray) -> int | None:
    # Frames t and t - 1 are equal exactly when novelty[t - 1] == 0.  The
    # freeze is real only if the last step repeated a frame; it starts one
    # past the last step that changed anything, and index 0 is the prompt,
    # so the earliest reportable freeze is 1.
    if novelty.size == 0 or novelty[-1] != 0.0:
        return None
    moved = np.flatnonzero(novelty)
    return int(moved[-1]) + 1 if moved.size else 1


def rollout(
    world: WorldModel,
    prompt_frame: FrameGrid,
    cfg: SamplerConfig,
    steps: int,
) -> Rollout:
    """Predict ``steps`` frames, feeding each output back.

    Deterministic in (world, prompt, cfg, steps): the whole trajectory uses
    one stream seeded from ``cfg.seed``.  The prompt and every predicted
    frame are written into one ``(steps + 1, H, W)`` array.
    """
    return _rollouts(world, prompt_frame, [cfg], steps)[0]


def _rollouts(
    world: WorldModel,
    prompt_frame: FrameGrid,
    cfgs: Sequence[SamplerConfig],
    steps: int,
) -> list[Rollout]:
    """One rollout per config from one prompt, all advancing one frame per step.

    The configs may differ in ``top_k`` and ``seed`` alone; the first one
    gives the other knobs.  Each rollout samples with its own k and from
    its own stream seeded from its config, so it equals the rollout of its
    config alone.  Rollouts run in batches of whole rollouts, as many as
    keep one step's staging call within ``_CELLS_PER_CALL`` cells (one, if
    a single frame step holds more).  Every batch steps with the call's one
    :class:`_PatchMemo`, so a context seen by any rollout is staged once
    until the memo's store fills and starts over.
    """
    if _check_int(steps, "steps") < 1:
        raise ValueError(f"steps must be >= 1 (got {steps})")
    prompt_frame = _check_frame(world, prompt_frame)
    h, w, v = world.height, world.width, world.vocab
    per_call = max(1, _CELLS_PER_CALL // (h * w * v))
    memo = _PatchMemo(v, np.array([min(c.top_k, v) for c in cfgs]), len(cfgs) * steps * h * w)
    out = []
    for start in range(0, len(cfgs), per_call):
        batch = cfgs[start : start + per_call]
        rngs = [RandomStream(c.seed) for c in batch]
        top_k = np.repeat([min(c.top_k, v) for c in batch], h * w)
        frames = np.empty((len(batch), steps + 1, h, w), dtype=np.int64)
        frames[:, 0] = prompt_frame
        for s in range(steps):
            frames[:, s + 1], _ = _step(world, frames[:, s], batch[0], top_k, rngs, want_traces=False, memo=memo)
        frames.flags.writeable = False
        # A mean of 0/1 values is an exact count over H * W: the bits of a per-step np.mean.
        novelty = (frames[:, 1:] != frames[:, :-1]).mean(axis=(2, 3))
        novelty.flags.writeable = False
        out += [Rollout(frames=tuple(f), novelty=n) for f, n in zip(frames, novelty)]
    return out


def k_sweep(
    world: WorldModel,
    prompt_frame: FrameGrid,
    base_cfg: SamplerConfig,
    ks: Sequence[int],
    steps: int,
    trials: int,
    master_seed: int,
) -> list[tuple[int, list[Rollout]]]:
    """Run ``trials`` rollouts per k, seeds derived from (master seed, k, trial).

    Each rollout seed depends only on the (k, trial) pair, not on the sweep
    position, so reordering or duplicating entries in ``ks`` reproduces the
    exact same rows and concurrent execution stays deterministic; the
    rollouts of a repeated k are sampled once and given to each of its
    entries.  Every config is built, and so checked, before the first
    rollout runs.  The rollouts of every distinct k advance in lock-step,
    in batches of whole rollouts that fit in ``_CELLS_PER_CALL``, and share
    one patch-context memo: each step stages, in at most one call, only the
    (k, previous token, neighbor tokens) contexts the sweep has not yet
    seen.
    """
    if len(ks) == 0:
        raise ValueError("k sweep needs at least one k value")
    if _check_int(trials, "trials") < 1:
        raise ValueError(f"trials must be >= 1 (got {trials})")
    checked, grid = [], {}
    for k in ks:
        k = _check_int(k, "k")
        checked.append(k)
        if k not in grid:  # a repeated k has the same seeds, so the same rollouts
            k_seed = derive_seed(master_seed, k)
            grid[k] = [replace(base_cfg, top_k=k, seed=derive_seed(k_seed, t)) for t in range(trials)]
    rolls = iter(_rollouts(world, prompt_frame, [c for cfgs in grid.values() for c in cfgs], steps))
    by_k = {k: [next(rolls) for _ in cfgs] for k, cfgs in grid.items()}
    return [(k, list(by_k[k])) for k in checked]


def novelty_curve(entries: Sequence[tuple[int, Sequence[Rollout]]]) -> list[tuple[int, float]]:
    """Mean per-frame novelty for each k of a sweep, in input order.

    All rollouts must share the prompt frame and step count (they are
    expected to differ only in sampler configuration).
    """
    if len(entries) == 0:
        raise ValueError("novelty curve needs at least one sweep entry")
    reference: Rollout | None = None
    rows: list[tuple[int, float]] = []
    for k, rolls in entries:
        if len(rolls) == 0:
            raise ValueError(f"sweep entry k={k} holds no rollouts")
        for r in rolls:
            if reference is None:
                reference = r
            elif len(r.novelty) != len(reference.novelty) or not np.array_equal(
                r.frames[0], reference.frames[0]
            ):
                raise ValueError("sweep rollouts must share prompt frame and step count")
        rows.append((int(k), float(np.concatenate([r.novelty for r in rolls]).mean())))
    return rows


def frame_to_pgm(frame: FrameGrid, vocab: int) -> bytes:
    """Render a frame as a binary PGM image, one gray level per token id.

    Token ``t`` maps to gray ``round(t * 255 / (vocab - 1))``, so token 0 is
    black and token ``vocab - 1`` is white.
    """
    f = np.asarray(frame)
    if f.ndim != 2 or not np.issubdtype(f.dtype, np.integer):
        raise ValueError("frame must be a 2-D integer array")
    if _check_int(vocab, "vocab") < 2:
        raise ValueError(f"vocabulary must hold at least 2 tokens (got {vocab})")
    if f.size and (f.min() < 0 or f.max() >= vocab):
        raise ValueError(f"frame tokens must lie in [0, {vocab})")
    gray = np.round(f * (255.0 / (vocab - 1))).astype(np.uint8)
    h, w = f.shape
    return b"P5\n" + f"{w} {h}\n255\n".encode("ascii") + gray.tobytes()
