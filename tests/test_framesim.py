"""Patch-token frame world: mode-at-stay conditionals, rollouts, freeze, novelty."""

import itertools
import math
import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decodelab import (
    RandomStream,
    SamplerConfig,
    build_world,
    derive_seed,
    frame_to_pgm,
    k_sweep,
    logits_from_masses,
    novelty_curve,
    predict_frame,
    random_frame,
    rollout,
    run_pipeline,
)
from test_sampler import BELOW_ONE, ScriptedStream

from decodelab import framesim
from decodelab.framesim import _freeze_index
from decodelab.probcore import by_token_index
from decodelab.sampler import spell_traces

K1 = SamplerConfig(1.0, 1, 1.0, 0.0)


def small_world(vocab=16, stay=0.9, seed=3):
    return build_world(8, 8, vocab, stay, seed=seed)


class TestBuildWorld:
    def test_binary_world_is_exact(self):
        w = build_world(4, 4, 2, 0.9, seed=0)
        for stay in (0, 1):
            for neighbors in itertools.product(range(2), repeat=4):
                cond = w.conditional(stay, neighbors)
                assert cond[stay] == pytest.approx(0.9, abs=1e-15)
                assert cond[1 - stay] == pytest.approx(0.1, abs=1e-15)

    def test_mode_is_always_the_stay_token(self):
        # exhaustive over V = 4: every (stay, neighborhood) combination
        w = build_world(2, 2, 4, 0.6, seed=11)
        for stay in range(4):
            for neighbors in itertools.product(range(4), repeat=4):
                cond = w.conditional(stay, neighbors)
                assert np.argmax(cond) == stay
                assert cond[stay] > np.delete(cond, stay).max()

    def test_conditionals_are_distributions(self):
        w = small_world()
        rng = np.random.default_rng(5)
        for _ in range(200):
            stay = int(rng.integers(16))
            neighbors = rng.integers(16, size=4)
            cond = w.conditional(stay, neighbors)
            assert cond.min() > 0.0
            assert abs(cond.sum() - 1.0) <= 1e-9

    def test_neighbors_shift_the_spread(self):
        w = small_world()
        c1 = w.conditional(3, (1, 1, 1, 1))
        c2 = w.conditional(3, (7, 7, 7, 7))
        assert not np.allclose(c1, c2)

    def test_same_seed_same_world(self):
        w1 = small_world(seed=42)
        w2 = small_world(seed=42)
        np.testing.assert_array_equal(
            w1.conditional(5, (1, 2, 3, 4)), w2.conditional(5, (1, 2, 3, 4))
        )

    def test_rejects_unsatisfiable_stay_mass(self):
        with pytest.raises(ValueError):
            build_world(4, 4, 16, 1.0 / 16.0, seed=0)
        with pytest.raises(ValueError):
            build_world(4, 4, 16, 1.0, seed=0)

    def test_rejects_tiny_vocabulary(self):
        with pytest.raises(ValueError):
            build_world(4, 4, 1, 0.9, seed=0)

    @pytest.mark.parametrize(
        "make, args, message",
        [
            # int() built a 2-row world from 2.7 and a 1x1 world from True, True
            (build_world, (2.7, 2, 4, 0.5, 0), "height must be an integer (got 2.7)"),
            (build_world, (True, True, 4, 0.5, 0), "height must be an integer (got True)"),
            (build_world, (2, 2.0, 4, 0.5, 0), "width must be an integer (got 2.0)"),
            (build_world, (2, 2, 4.9, 0.5, 0), "vocab must be an integer (got 4.9)"),
            # numpy raised TypeError for these
            (random_frame, (2.7, 2, 4, 0), "height must be an integer (got 2.7)"),
            (random_frame, (2, False, 4, 0), "width must be an integer (got False)"),
            (random_frame, (2, 2, np.float64(4.0), 0), "vocab must be an integer (got np.float64(4.0))"),
        ],
        ids=["world-height-2.7", "world-true-true", "world-width-2.0", "world-vocab-4.9", "frame-height-2.7",
             "frame-width-false", "frame-vocab-np-float"],
    )
    def test_grid_and_vocabulary_sizes_are_integers(self, make, args, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make(*args)

    def test_numpy_integer_sizes_are_taken(self):
        assert build_world(np.int64(2), 3, np.int32(4), 0.5, 0).vocab == 4
        assert random_frame(np.int64(2), 3, np.uint8(4), 0).shape == (2, 3)

    @pytest.mark.parametrize(
        "knobs, message",
        [
            # NaN and inf built a world whose first rollout failed with "logits must be finite"
            ({"neighbor_gain": math.nan}, "neighbor_gain must be finite and >= 0 (got nan)"),
            ({"neighbor_gain": math.inf}, "neighbor_gain must be finite and >= 0 (got inf)"),
            ({"neighbor_gain": -math.inf}, "neighbor_gain must be finite and >= 0 (got -inf)"),
            # a bool reads as 1 or 0
            ({"neighbor_gain": True}, "neighbor_gain must be a number (got True)"),
            ({"stay_mass": True}, "stay_mass must be a number (got True)"),
        ],
        ids=["gain-nan", "gain-inf", "gain-minus-inf", "gain-true", "stay-mass-true"],
    )
    def test_stay_mass_and_neighbor_gain_are_finite_numbers(self, knobs, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build_world(**{"height": 2, "width": 2, "vocab": 4, "stay_mass": 0.5, "seed": 0, **knobs})

    def test_a_gain_four_neighbor_adds_overflow_is_refused(self):
        # 1e308 built a world whose first rollout overflowed to "logits must be finite"
        message = (f"neighbor_gain must be at most {framesim.MAX_NEIGHBOR_GAIN!r}, so that four neighbor adds "
                   "to a token bias stay finite (got ")
        for gain in (1e308, np.nextafter(framesim.MAX_NEIGHBOR_GAIN, math.inf)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
                build_world(2, 2, 4, 0.5, 0, neighbor_gain=gain)

    def test_a_rollout_runs_at_the_largest_gain(self):
        # the centre patch gets four adds to token 1, whose bias is the largest (0.85)
        world = build_world(3, 3, 4, 0.5, 5, neighbor_gain=framesim.MAX_NEIGHBOR_GAIN)
        assert world.token_bias.argmax() == 1
        prompt = np.ones((3, 3), dtype=np.int64)
        prompt[1, 1] = 0
        with np.errstate(over="raise", invalid="raise"):
            conditional = world.conditional(0, [1, 1, 1, 1])
            roll = rollout(world, prompt, SamplerConfig(1.0, 4, seed=1), 5)
        assert conditional.argmax() == 0 and abs(conditional.sum() - 1.0) <= 1e-12
        assert conditional[1] > conditional[2] and conditional[1] > conditional[3]
        assert len(roll.frames) == 6

    @pytest.mark.parametrize(
        "stay, neighbors, message",
        [
            (2.0, [1], "stay token must be an integer (got 2.0)"),  # was an IndexError
            (True, [1], "stay token must be an integer (got True)"),  # was token 1
            (1, [1.5], "neighbor token must be an integer (got 1.5)"),  # was truncated to token 1
        ],
        ids=["stay-float", "stay-true", "neighbor-float"],
    )
    def test_conditional_tokens_are_integers(self, stay, neighbors, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build_world(2, 2, 4, 0.5, seed=0).conditional(stay, neighbors)


class TestRandomFrame:
    def test_shape_range_and_determinism(self):
        f = random_frame(6, 5, 16, seed=9)
        assert f.shape == (6, 5)
        assert f.min() >= 0 and f.max() < 16
        np.testing.assert_array_equal(f, random_frame(6, 5, 16, seed=9))


class TestPredictFrame:
    def test_k1_returns_the_previous_frame(self):
        w = small_world()
        prev = random_frame(8, 8, 16, seed=1)
        for seed in range(5):
            nxt, traces = predict_frame(w, prev, K1, RandomStream(seed))
            np.testing.assert_array_equal(nxt, prev)
            assert len(traces) == 64

    def test_neutral_config_novelty_matches_stay_mass(self):
        # each patch keeps its token with probability 0.9 exactly, so the
        # change fraction is Binomial(64 * trials, 0.1) / (64 * trials)
        w = small_world()
        prev = random_frame(8, 8, 16, seed=2)
        cfg = SamplerConfig(1.0, 16, 1.0, 0.0)
        rng = RandomStream(7)
        changed = 0
        trials = 60
        for _ in range(trials):
            nxt, _ = predict_frame(w, prev, cfg, rng)
            changed += int((nxt != prev).sum())
        mean_novelty = changed / (64.0 * trials)
        assert abs(mean_novelty - 0.1) <= 0.02

    def test_fixed_seed_fixed_frame(self):
        w = small_world()
        prev = random_frame(8, 8, 16, seed=3)
        cfg = SamplerConfig(1.0, 16, 1.0, 0.0, seed=5)
        n1, _ = predict_frame(w, prev, cfg, RandomStream(5))
        n2, _ = predict_frame(w, prev, cfg, RandomStream(5))
        np.testing.assert_array_equal(n1, n2)

    def test_dimension_mismatch_rejected(self):
        w = small_world()
        with pytest.raises(ValueError):
            predict_frame(w, random_frame(4, 4, 16, seed=0), K1, RandomStream(0))

    def test_out_of_vocabulary_tokens_rejected(self):
        w = small_world()
        bad = np.full((8, 8), 16)
        with pytest.raises(ValueError):
            predict_frame(w, bad, K1, RandomStream(0))


class TestFreezeIndex:
    def test_tail_constancy_semantics(self):
        # novelty[i] compares frames i + 1 and i; A, B and C are distinct
        # 2x2 frames, so a change of frame moves at least one patch in four
        assert _freeze_index(np.array([])) is None  # [A]
        assert _freeze_index(np.array([0.0])) == 1  # [A, A]
        assert _freeze_index(np.array([1.0])) is None  # [A, B]
        assert _freeze_index(np.array([0.0, 0.0])) == 1  # [A, A, A]
        assert _freeze_index(np.array([0.25, 0.0, 0.0])) == 1  # [A, B, B, B]
        assert _freeze_index(np.array([1.0, 0.5, 0.0])) == 2  # [A, B, C, C]
        assert _freeze_index(np.array([1.0, 1.0, 1.0])) is None  # [A, B, A, B]
        assert _freeze_index(np.array([0.75, 0.0, 0.75])) is None  # [A, B, B, A]

    @settings(max_examples=300)
    @given(st.lists(st.sampled_from(range(4)), min_size=1, max_size=9), st.integers(1, 3), st.integers(1, 3))
    def test_freeze_index_from_novelty_is_the_frame_scan(self, picks, h, w):
        # frames drawn from a pool of four, two of which differ in one patch
        # only, so repeats are common and some changes are small
        pool = [np.zeros((h, w), dtype=np.int64) for _ in range(4)]
        pool[1][0, 0] = 1
        pool[2][-1, -1] += 2
        pool[3][:] = 3
        frames = [pool[i] for i in picks]
        novelty = np.array([np.mean(b != a) for a, b in zip(frames, frames[1:])])
        roll = framesim.Rollout(frames=tuple(frames), novelty=novelty)
        assert roll.freeze_index == reference_freeze_index(frames)


def reference_freeze_index(frames):
    """The freeze index as it was computed before it was read from novelty:
    a scan back over the frames themselves."""
    last = len(frames) - 1
    t = last
    while t >= 1 and np.array_equal(frames[t], frames[t - 1]):
        t -= 1
    # frames[t .. last] are all identical and t is minimal.  The freeze is
    # real only if at least one repetition actually happened (t < last);
    # index 0 is the prompt, so the earliest reportable freeze is 1.
    return max(t, 1) if t < last else None


class TestRollout:
    def test_k1_freezes_immediately(self):
        w = small_world()
        prompt = random_frame(8, 8, 16, seed=4)
        roll = rollout(w, prompt, K1, steps=10)
        assert roll.freeze_index == 1
        assert np.all(roll.novelty == 0.0)
        for f in roll.frames[1:]:
            np.testing.assert_array_equal(f, roll.frames[0])

    def test_single_step_yields_two_frames(self):
        w = small_world()
        roll = rollout(w, random_frame(8, 8, 16, seed=5), K1, steps=1)
        assert len(roll.frames) == 2
        assert len(roll.novelty) == 1

    def test_steps_below_one_rejected(self):
        w = small_world()
        with pytest.raises(ValueError):
            rollout(w, random_frame(8, 8, 16, seed=5), K1, steps=0)

    def test_full_vocabulary_sampling_does_not_freeze(self):
        # pinned seeds; per-frame repeat probability is 0.9^64, about 1.2e-3
        w = build_world(8, 8, 16, 0.9, seed=8668861027912758289 % 2**32)
        prompt = random_frame(8, 8, 16, seed=50)
        cfg = SamplerConfig(1.0, 16, 1.0, 0.0, seed=0)
        roll = rollout(w, prompt, cfg, steps=50)
        assert roll.freeze_index is None
        assert roll.mean_novelty > 0.05

    def test_frames_are_rows_of_one_read_only_array(self):
        w = build_world(1, 3, 2, 0.6, seed=4)
        prompt = random_frame(1, 3, 2, seed=5)
        roll = rollout(w, prompt, SamplerConfig(1.0, 2, seed=6), steps=30)
        assert len(roll.frames) == 31 and len({id(f.base) for f in roll.frames}) == 1
        assert all(not f.flags.writeable and f.dtype == np.int64 for f in roll.frames)
        assert roll.frames[0] is not prompt and np.array_equal(roll.frames[0], prompt)
        assert roll.freeze_index == reference_freeze_index(roll.frames)

    def test_freeze_invariant_when_present(self):
        w = small_world()
        roll = rollout(w, random_frame(8, 8, 16, seed=6), K1, steps=7)
        fi = roll.freeze_index
        assert fi is not None
        for f in roll.frames[fi:]:
            np.testing.assert_array_equal(f, roll.frames[fi])

    def test_deterministic_in_all_inputs(self):
        w = small_world()
        prompt = random_frame(8, 8, 16, seed=7)
        cfg = SamplerConfig(1.0, 4, 0.95, 0.0, seed=12)
        assert_same_rollout(rollout(w, prompt, cfg, steps=6), rollout(w, prompt, cfg, steps=6), steps=6)


class TestKSweepAndNoveltyCurve:
    def test_novelty_zero_at_k1_and_positive_at_full_vocab(self):
        w = small_world()
        prompt = random_frame(8, 8, 16, seed=9)
        entries = k_sweep(w, prompt, K1, [1, 16], steps=4, trials=10, master_seed=5)
        curve = dict(novelty_curve(entries))
        assert curve[1] == 0.0
        assert curve[16] > 0.0

    def test_duplicate_k_values_give_identical_rows(self):
        w = small_world()
        prompt = random_frame(8, 8, 16, seed=10)
        entries = k_sweep(w, prompt, K1, [4, 4], steps=3, trials=5, master_seed=6)
        curve = novelty_curve(entries)
        assert curve[0] == curve[1]

    def test_a_repeated_k_is_sampled_once(self, monkeypatch):
        # 8x8 patches x 5 trials: 320 rows per step for [4], and for [4, 4] too
        rows = []
        sample_rows = framesim.sample_rows

        def recording(z, *args, **kwargs):
            rows.append(z.shape[0])
            return sample_rows(z, *args, **kwargs)

        monkeypatch.setattr(framesim, "sample_rows", recording)
        w = small_world()
        prompt = random_frame(8, 8, 16, seed=10)
        entries = k_sweep(w, prompt, K1, [4, 4], steps=3, trials=5, master_seed=6)
        assert rows == [320] * 3
        rows.clear()
        mixed = k_sweep(w, prompt, K1, [4, 2, 4], steps=3, trials=5, master_seed=6)
        assert rows == [640] * 3
        assert [k for k, _ in mixed] == [4, 2, 4]
        (_, once), = k_sweep(w, prompt, K1, [4], steps=3, trials=5, master_seed=6)
        for _, rolls in entries + mixed[::2]:
            assert len(rolls) == len(once) == 5
            for roll, ref in zip(rolls, once):
                np.testing.assert_array_equal(np.stack(roll.frames), np.stack(ref.frames))

    def test_trial_count_and_order(self):
        w = small_world()
        prompt = random_frame(8, 8, 16, seed=11)
        entries = k_sweep(w, prompt, K1, [2, 8], steps=2, trials=3, master_seed=7)
        assert [k for k, _ in entries] == [2, 8]
        assert all(len(rolls) == 3 for _, rolls in entries)

    def test_empty_sweep_rejected(self):
        w = small_world()
        prompt = random_frame(8, 8, 16, seed=12)
        with pytest.raises(ValueError):
            k_sweep(w, prompt, K1, [], steps=2, trials=3, master_seed=0)
        with pytest.raises(ValueError):
            novelty_curve([])

    @pytest.mark.parametrize(
        "ks, steps, trials, message",
        [
            ([2.7, True], 2, 1, "k must be an integer (got 2.7)"),
            ([2, True], 2, 1, "k must be an integer (got True)"),
            ([2], 2, 2.0, "trials must be an integer (got 2.0)"),
            ([2], 2, 0, "trials must be >= 1 (got 0)"),
            ([2], 2.0, 1, "steps must be an integer (got 2.0)"),
            ([2], 0, 1, "steps must be >= 1 (got 0)"),
        ],
        ids=["k-2.7", "k-true", "trials-2.0", "trials-0", "steps-2.0", "steps-0"],
    )
    def test_counts_are_integers_checked_alike(self, ks, steps, trials, message):
        # int() labelled the rows of ks=[2.7, True] k = 2 and k = 1; steps or trials of 2.0 raised TypeError
        w = small_world()
        prompt = random_frame(8, 8, 16, seed=12)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            k_sweep(w, prompt, K1, ks, steps=steps, trials=trials, master_seed=0)

    def test_mismatched_prompts_rejected(self):
        w = small_world()
        r1 = rollout(w, random_frame(8, 8, 16, seed=13), K1, steps=2)
        r2 = rollout(w, random_frame(8, 8, 16, seed=14), K1, steps=2)
        with pytest.raises(ValueError):
            novelty_curve([(1, [r1]), (2, [r2])])


class TestPgmRendering:
    def test_binary_header_and_payload(self):
        frame = np.array([[0, 15], [8, 3]], dtype=np.int64)
        blob = frame_to_pgm(frame, 16)
        assert blob.startswith(b"P5\n2 2\n255\n")
        payload = blob[len(b"P5\n2 2\n255\n") :]
        assert payload == bytes([0, 255, round(8 * 255 / 15), round(3 * 255 / 15)])

    def test_extremes_map_to_black_and_white(self):
        frame = np.array([[0, 15]])
        payload = frame_to_pgm(frame, 16)[-2:]
        assert payload == bytes([0, 255])

    def test_rejects_out_of_range_tokens(self):
        with pytest.raises(ValueError):
            frame_to_pgm(np.array([[16]]), 16)
        with pytest.raises(ValueError):
            frame_to_pgm(np.array([[0.5]]), 16)

    def test_rejects_non_integer_vocab(self):
        # 16.5 would scale token 15 to gray 247, where vocab 16 gives 255.
        for vocab in (16.5, True, np.float64(16.0), "16"):
            with pytest.raises(ValueError, match="vocab must be an integer"):
                frame_to_pgm(np.array([[0, 15]]), vocab)


# -- Frozen per-patch reference -------------------------------------------------
#
# The frame step as it stood before predict_frame became one batched pass: one
# conditional per patch, built token by token, and one run_pipeline call per
# patch in row-major order.  The batched pass must reproduce it bit for bit:
# frames, trace JSON and stream position.


def reference_conditional(world, stay, neighbors):
    v = world.vocab
    rest = 1.0 - world.stay_mass
    base = rest / (v - 1)
    w = world.token_bias.copy()
    for t in neighbors:
        if t != stay:
            w[t] += world.neighbor_gain
    mask = np.ones(v, dtype=bool)
    mask[stay] = False
    dev = w[mask]
    dev = dev - dev.mean()
    peak = np.abs(dev).max()
    if peak > 0.0:
        dev *= 0.9 * min(world.stay_mass - base, base) / peak
    out = np.empty(v, dtype=np.float64)
    out[mask] = base + dev
    out[stay] = world.stay_mass
    return out


def reference_predict_frame(world, prev, cfg, rng, *, want_traces=True):
    prev = np.asarray(prev)
    h, w = world.height, world.width
    out = np.empty((h, w), dtype=np.int64)
    traces = []
    for i in range(h):
        for j in range(w):
            stay = int(prev[i, j])
            neighbors = []
            if i > 0:
                neighbors.append(int(prev[i - 1, j]))
            if i < h - 1:
                neighbors.append(int(prev[i + 1, j]))
            if j > 0:
                neighbors.append(int(prev[i, j - 1]))
            if j < w - 1:
                neighbors.append(int(prev[i, j + 1]))
            z = logits_from_masses(reference_conditional(world, stay, neighbors))
            token, trace = run_pipeline(z, cfg, rng, want_trace=want_traces)
            out[i, j] = token
            if want_traces:
                traces.append(trace)
    out.flags.writeable = False
    return out, tuple(traces) if want_traces else None


def edge_paths(cfg, traces):
    """The rarely taken pipeline paths that the reference traces went through."""
    seen = set()
    for t in traces:
        if t.argmax_mode:
            seen.add("argmax")
            continue
        after_k, after_p, after_min_p = t.stages[1:]
        if np.add.accumulate(after_k.masses)[-1] < cfg.top_p:
            seen.add("top-p past the end")
        if cfg.min_p > 0.0 and np.all(after_p.masses < cfg.min_p):
            seen.add("min-p fallback")
            if after_min_p.index_map[0] != after_p.index_map[0]:
                seen.add("min-p fallback off position 0")
        if after_min_p.survivor_count > 1:
            masses, _ = by_token_index(after_min_p.masses, after_min_p.index_map)
            if np.add.accumulate(masses)[-1] <= t.drawn_uniform:
                seen.add("draw clamp")
    return seen


def assert_same_as_reference(world, prev, cfg, uniforms):
    """Batched and reference frame steps agree; returns the reference's edge paths.

    ``predict_frame`` is the traced step; rollouts take the untraced one, which
    must draw the same frame from the same uniforms."""
    ours_rng, ref_rng = ScriptedStream(uniforms), ScriptedStream(uniforms)
    frame, traces = predict_frame(world, prev, cfg, ours_rng)
    ref_frame, ref_traces = reference_predict_frame(world, prev, cfg, ref_rng)
    np.testing.assert_array_equal(frame, ref_frame)
    assert frame.dtype == np.int64 and not frame.flags.writeable
    assert ours_rng.position == ref_rng.position == (0 if cfg.temperature == 0.0 else prev.size)
    assert spell_traces(traces, 0) == spell_traces(ref_traces, 0)
    assert all(not s.masses.flags.writeable and not s.index_map.flags.writeable for t in traces for s in t.stages)
    bare_rng = ScriptedStream(uniforms)
    bare, no_traces = framesim._step(world, np.asarray(prev, dtype=np.int64)[None], cfg, None, [bare_rng],
                                     want_traces=False)
    np.testing.assert_array_equal(bare[0], ref_frame)
    assert no_traces is None and bare_rng.position == ref_rng.position
    return edge_paths(cfg, ref_traces)


@st.composite
def frame_cases(draw):
    h = draw(st.sampled_from([1, 1, 2, 3, 5, 8]), label="height")
    w = draw(st.sampled_from([1, 1, 2, 3, 5, 8]), label="width")
    v = draw(st.one_of(st.just(2), st.integers(2, 19)), label="vocab")
    stay_mass = draw(st.floats(1.0 / v, 1.0, exclude_min=True, exclude_max=True), label="stay_mass")
    gain = draw(st.sampled_from([0.0, 0.3, 1.0, 2.5]), label="gain")
    world = build_world(h, w, v, stay_mass, seed=draw(st.integers(0, 2**32 - 1)), neighbor_gain=gain)
    prev = np.array(draw(st.lists(st.integers(0, v - 1), min_size=h * w, max_size=h * w))).reshape(h, w)
    cfg = SamplerConfig(
        draw(st.sampled_from([0.0, 0.05, 0.5, 1.0, 3.0, 1e16])),
        draw(st.integers(1, v + 2)),
        draw(st.one_of(st.sampled_from([1.0, 0.9, 0.5, 0.2]), st.floats(0.0, 1.0, exclude_min=True))),
        draw(st.one_of(st.sampled_from([0.0, 0.05, 0.2, 0.6]), st.floats(0.0, 0.99))),
    )
    uniform = st.one_of(st.sampled_from([0.0, BELOW_ONE]), st.floats(0.0, 1.0, exclude_max=True))
    uniforms = draw(st.lists(uniform, min_size=h * w, max_size=h * w), label="uniforms")
    return world, prev, cfg, uniforms


class TestBatchedFrameMatchesReference:
    """predict_frame against the frozen per-patch loop: exact frames, trace bytes and stream position."""

    @settings(max_examples=300)
    @given(frame_cases())
    def test_same_frame_trace_bytes_and_stream_position(self, case):
        assert_same_as_reference(*case)

    @pytest.mark.parametrize(
        "shape, vocab, stay_mass, seed, prev, cfg, uniforms, path",
        [
            # argmax mode: every patch stays, no uniform is taken
            ((3, 4), 16, 0.9, 5, None, SamplerConfig(0.0, 4, 0.9, 0.1), None, "argmax"),
            # a huge temperature ties every mass; min-p keeps token 0 alone
            ((2, 3), 6, 0.5, 8, None, SamplerConfig(1e300, 6, 1.0, 0.6), None, "min-p fallback"),
            # renormalizing after top-p ties the stay token with a lower index
            ((1, 3), 5, 0.8, 299, [[4, 1, 1]], SamplerConfig(1e16, 5, 0.5, 0.6), None,
             "min-p fallback off position 0"),
            # the top-k masses sum to just below 1, so top_p = 1 searches past the end
            ((8, 8), 16, 0.9, 3, None, SamplerConfig(1.0, 16, 1.0, 0.0), None, "top-p past the end"),
            # a uniform above the rounded-down total draws the highest surviving index
            ((8, 8), 16, 0.9, 3, None, SamplerConfig(1.0, 16, 1.0, 0.0), BELOW_ONE, "draw clamp"),
            # 1x1 and 1xW and Hx1 grids have 0, 1 or 2 neighbors per patch
            ((1, 1), 2, 0.9, 1, [[1]], SamplerConfig(1.0, 2, 1.0, 0.0), 0.95, None),
            ((1, 7), 3, 0.5, 2, None, SamplerConfig(2.0, 2, 0.9, 0.05), None, None),
            ((6, 1), 4, 0.4, 4, None, SamplerConfig(0.5, 3, 0.8, 0.2), None, None),
        ],
    )
    def test_edge_paths(self, shape, vocab, stay_mass, seed, prev, cfg, uniforms, path):
        world = build_world(*shape, vocab, stay_mass, seed=seed)
        prev = random_frame(*shape, vocab, seed=seed) if prev is None else np.array(prev)
        stream = RandomStream(seed)
        uniforms = [stream.next_uniform() if uniforms is None else uniforms for _ in range(prev.size)]
        seen = assert_same_as_reference(world, prev, cfg, uniforms)
        assert path is None or path in seen

    def test_real_stream_rollout_matches_the_reference(self):
        # rollout no longer calls predict_frame, so it is checked against the frozen loop itself
        world = small_world(seed=21)
        prompt = random_frame(8, 8, 16, seed=22)
        cfg = SamplerConfig(0.9, 6, 0.95, 0.02, seed=23)
        shipped = rollout(world, prompt, cfg, steps=8)
        assert_same_rollout(shipped, reference_rollout(world, prompt, cfg, steps=8), steps=8)

    def test_repeated_neighbor_gains_add_one_at_a_time(self):
        # Patch 0 sees token 5 twice, patch 1 token 2 three times, patch 2
        # token 6 four times; patch 3 sees its own stay token twice, which
        # adds nothing.  Seed 43 gives biases where adding 0.3 n times one by
        # one and adding n * 0.3 once differ in the last bit.
        world = build_world(2, 2, 8, 0.6, seed=43, neighbor_gain=0.3)
        neighbors = [[5, 3, 5], [2, 7, 2, 2], [6, 6, 6, 6], [5, 1, 5]]
        for token, n in ((5, 2), (2, 3), (6, 4)):
            one_by_one = world.token_bias[token]
            for _ in range(n):
                one_by_one += 0.3
            assert one_by_one != world.token_bias[token] + n * 0.3
        stay = np.array([1, 0, 4, 5])
        rows = np.repeat(np.arange(4), [len(nb) for nb in neighbors])
        got = framesim._conditionals(world, stay, rows, np.concatenate(neighbors))
        for i, nb in enumerate(neighbors):
            assert got[i].tobytes() == reference_conditional(world, int(stay[i]), nb).tobytes()

    def test_conditional_refuses_tokens_outside_the_vocabulary(self):
        world = build_world(2, 2, 4, 0.6, seed=1)
        for stay, neighbors, message in [
            (4, [], "stay token 4 outside vocabulary of size 4"),
            (-1, [0], "stay token -1 outside vocabulary of size 4"),
            (0, [1, 4, -1], "neighbor token 4 outside vocabulary of size 4"),
            (0, [1, -1, 4], "neighbor token -1 outside vocabulary of size 4"),
            (0, [1, 2**70], f"neighbor token {2**70} outside vocabulary of size 4"),
        ]:
            with pytest.raises(ValueError, match=f"^{message}$"):
                world.conditional(stay, neighbors)

    @settings(max_examples=100)
    @given(
        vocab=st.integers(2, 19),
        stay=st.data(),
        gain=st.sampled_from([0.0, 0.3, 1.0, 2.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_conditional_is_the_reference_conditional(self, vocab, stay, gain, seed):
        world = build_world(2, 2, vocab, 0.5 + 0.5 / vocab, seed=seed, neighbor_gain=gain)
        token = stay.draw(st.integers(0, vocab - 1), label="stay")
        neighbors = stay.draw(st.lists(st.integers(0, vocab - 1), max_size=4), label="neighbors")
        got = world.conditional(token, neighbors)
        assert got.tobytes() == reference_conditional(world, token, neighbors).tobytes()


# -- Frozen sequential sweep ------------------------------------------------------
#
# k_sweep as it stood before its rollouts advanced in lock-step: one rollout per
# (k, trial), each stepping the frozen per-patch frame loop with its own stream.
# The lock-step sweep must reproduce it bit for bit: frames and novelty.


def reference_rollout(world, prompt, cfg, steps, stream=RandomStream, traces=None):
    """``steps`` frames of ``reference_predict_frame`` from a stream seeded
    with ``cfg.seed``; each patch's trace goes to ``traces`` when given."""
    rng = stream(cfg.seed)
    frames = [np.asarray(prompt)]
    for _ in range(steps):
        frame, step_traces = reference_predict_frame(world, frames[-1], cfg, rng, want_traces=traces is not None)
        frames.append(frame)
        if traces is not None:
            traces.extend(step_traces)
    novelty = np.array([np.mean(b != a) for a, b in zip(frames, frames[1:])])
    return framesim.Rollout(frames=tuple(frames), novelty=novelty)


def reference_k_sweep(world, prompt, base_cfg, ks, steps, trials, master_seed, stream=RandomStream, traces=None):
    entries = []
    for k in ks:
        k_seed = derive_seed(master_seed, k)
        cfgs = [replace(base_cfg, top_k=k, seed=derive_seed(k_seed, t)) for t in range(trials)]
        entries.append((k, [reference_rollout(world, prompt, cfg, steps, stream, traces) for cfg in cfgs]))
    return entries


class EdgeStream:
    """A seeded stream whose uniforms below 0.2 read 0.0 and above 0.8 the
    largest double below 1: the ends that reach the draw clamp, which a real
    stream almost never gives.  ``next_uniforms(n)`` still equals ``n`` calls
    of ``next_uniform``."""

    def __init__(self, seed):
        self._rng = RandomStream(seed)

    def next_uniform(self):
        return float(self.next_uniforms(1)[0])

    def next_uniforms(self, n):
        u = self._rng.next_uniforms(n)
        u[u < 0.2] = 0.0
        u[u > 0.8] = BELOW_ONE
        return u


def assert_sweep_is_the_reference(world, prompt, base_cfg, ks, steps, trials, master_seed, *,
                                  stream=RandomStream, cells_per_call=framesim._CELLS_PER_CALL):
    """Lock-step and sequential sweeps agree; returns the reference's edge paths."""
    with mock.patch.object(framesim, "RandomStream", stream), \
            mock.patch.object(framesim, "_CELLS_PER_CALL", cells_per_call):
        entries = k_sweep(world, prompt, base_cfg, ks, steps, trials, master_seed)
    traces = []
    reference = reference_k_sweep(world, prompt, base_cfg, ks, steps, trials, master_seed, stream, traces)
    assert [k for k, _ in entries] == [k for k, _ in reference] == list(ks)
    for (_, rolls), (_, ref_rolls) in zip(entries, reference):
        assert len(rolls) == len(ref_rolls) == trials
        for roll, ref in zip(rolls, ref_rolls):
            assert_same_rollout(roll, ref, steps)
    return edge_paths(base_cfg, traces)


def assert_same_rollout(roll, ref, steps):
    """``roll`` holds the frames, novelty and freeze index of ``ref``, read-only."""
    assert len(roll.frames) == len(ref.frames) == steps + 1
    for frame, ref_frame in zip(roll.frames, ref.frames):
        np.testing.assert_array_equal(frame, ref_frame)
        assert frame.dtype == np.int64 and not frame.flags.writeable
    assert roll.novelty.tobytes() == ref.novelty.tobytes() and not roll.novelty.flags.writeable
    assert roll.freeze_index == ref.freeze_index


@st.composite
def sweep_cases(draw):
    world, prev, cfg, _ = draw(frame_cases())
    v = world.vocab
    ks = draw(st.lists(st.integers(1, v + 2), min_size=1, max_size=4), label="ks")  # duplicates and k > V
    trials = draw(st.integers(1, 3), label="trials")
    cells = world.height * world.width * v
    # The whole sweep in one call, or batches of 1 to 4 whole rollouts.
    cells_per_call = draw(st.sampled_from([framesim._CELLS_PER_CALL, cells, 2 * cells + 1, 4 * cells]))
    stream = draw(st.sampled_from([RandomStream, EdgeStream]))
    return world, prev, cfg, ks, draw(st.integers(1, 4), label="steps"), trials, cells_per_call, stream


class TestLockStepSweepMatchesReference:
    """k_sweep against the frozen sequential sweep: exact frames and novelty."""

    @settings(max_examples=150, deadline=None)
    @given(sweep_cases(), st.integers(0, 2**64 - 1))
    def test_same_frames_and_novelty(self, case, master_seed):
        world, prev, cfg, ks, steps, trials, cells_per_call, stream = case
        assert_sweep_is_the_reference(world, prev, cfg, ks, steps, trials, master_seed, stream=stream,
                                      cells_per_call=cells_per_call)

    @pytest.mark.parametrize(
        "shape, vocab, stay_mass, seed, prompt, cfg, ks, stream, batch, paths",
        [
            # duplicate k and k past the vocabulary
            ((8, 8), 16, 0.9, 3, None, SamplerConfig(1.0, 1), [4, 4, 16, 40], RandomStream, None,
             {"top-p past the end"}),
            # argmax mode: every rollout stays on its prompt and takes no uniform
            ((3, 4), 16, 0.9, 5, None, SamplerConfig(0.0, 1, 0.9, 0.1), [1, 16], RandomStream, None, {"argmax"}),
            # a huge temperature ties every mass; min-p keeps token 0 alone beside k = 1 rows that keep theirs
            ((2, 3), 6, 0.5, 8, None, SamplerConfig(1e300, 1, 1.0, 0.6), [1, 3, 6], RandomStream, None,
             {"min-p fallback"}),
            # renormalizing after top-p ties the stay token with a lower index
            ((1, 3), 5, 0.8, 299, [[4, 1, 1]], SamplerConfig(1e16, 1, 0.5, 0.6), [5, 2], RandomStream, None,
             {"min-p fallback", "min-p fallback off position 0"}),
            # uniforms at the largest double below 1 draw the highest surviving index
            ((8, 8), 16, 0.9, 3, None, SamplerConfig(1.0, 1), [16, 4], EdgeStream, None, {"draw clamp"}),
            # 1xW and Hx1 grids, 9 rollouts in batches of 2 and a last one of 1
            ((1, 7), 3, 0.5, 2, None, SamplerConfig(2.0, 1, 0.9, 0.05), [2, 3, 9], RandomStream, 2, None),
            ((6, 1), 4, 0.4, 4, None, SamplerConfig(0.5, 1, 0.8, 0.2), [1, 3, 4], EdgeStream, 2, None),
        ],
        ids=["duplicate-k-and-k-past-v", "argmax", "min-p-fallback", "min-p-fallback-off-0", "draw-clamp",
             "1xW-batches", "Hx1-batches"],
    )
    def test_edge_paths(self, shape, vocab, stay_mass, seed, prompt, cfg, ks, stream, batch, paths):
        world = build_world(*shape, vocab, stay_mass, seed=seed)
        prompt = random_frame(*shape, vocab, seed=seed) if prompt is None else np.array(prompt)
        cells = framesim._CELLS_PER_CALL if batch is None else batch * shape[0] * shape[1] * vocab
        seen = assert_sweep_is_the_reference(world, prompt, cfg, ks, 6, 3, seed, stream=stream, cells_per_call=cells)
        assert paths is None or paths <= seen

    def test_one_sampling_call_holds_at_most_2_20_cells(self, monkeypatch):
        # 1,024 (patch, token) cells per rollout step, so 1,028 rollouts run as a
        # batch of 1,024 and a batch of 4; one call for all would hold 2^20 + 4,096
        calls = []
        sample_rows = framesim.sample_rows

        def recording(z, *args, **kwargs):
            calls.append(z.shape)
            return sample_rows(z, *args, **kwargs)

        monkeypatch.setattr(framesim, "sample_rows", recording)
        world = build_world(2, 2, 256, 0.5, seed=17)
        prompt = random_frame(2, 2, 256, seed=18)
        assert_sweep_is_the_reference(world, prompt, SamplerConfig(1.0, 1, 0.95, 0.001), [1, 3, 256, 300], 2, 257, 19)
        assert max(rows * width for rows, width in calls) == framesim._CELLS_PER_CALL == 2**20
        assert calls == [(4096, 256), (4096, 256), (16, 256), (16, 256)]

    def test_rollout_and_predict_frame_are_the_one_rollout_case(self, monkeypatch):
        calls = []
        step = framesim._step

        def recording(world, prev, *args, **kwargs):
            calls.append(prev.shape)
            return step(world, prev, *args, **kwargs)

        monkeypatch.setattr(framesim, "_step", recording)
        world = small_world(seed=24)
        prompt = random_frame(8, 8, 16, seed=25)
        cfg = SamplerConfig(1.0, 5, seed=26)
        roll = rollout(world, prompt, cfg, steps=3)
        frame, _ = predict_frame(world, prompt, cfg, RandomStream(26))
        np.testing.assert_array_equal(frame, roll.frames[1])
        assert calls == [(1, 8, 8)] * 4
