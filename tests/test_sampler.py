"""The staged sampling pipeline and its trace/RNG contracts."""

import json
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from decodelab import (
    STAGES,
    STAGE_MIN_P,
    STAGE_SOFTMAX,
    STAGE_TOP_K,
    STAGE_TOP_P,
    ProbabilityDistribution,
    RandomStream,
    SampleTrace,
    SamplerConfig,
    StageRecord,
    build_world,
    derive_seed,
    min_p_filter,
    random_frame,
    run_pipeline,
    sample_rows,
    softmax,
    sort_descending,
    top_k_filter,
    top_p_filter,
    train_ngram,
)
from decodelab import sampler
from decodelab.sampler import spell_traces


def reread(trace: SampleTrace) -> SampleTrace:
    """``trace`` as ``from_json_dict`` reads it back from the spelling ``spell_traces`` writes."""
    return SampleTrace.from_json_dict(json.loads(spell_traces([trace], 0))[0])


finite_logits = arrays(
    np.float64,
    st.integers(min_value=2, max_value=40),
    elements=st.floats(min_value=-30.0, max_value=30.0),
)

configs = st.builds(
    SamplerConfig,
    temperature=st.floats(min_value=0.05, max_value=10.0),
    top_k=st.integers(min_value=1, max_value=60),
    top_p=st.floats(min_value=0.05, max_value=1.0),
    min_p=st.floats(min_value=0.0, max_value=0.9),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
)


class TestSamplerConfig:
    def test_canonical_shorthand_order(self):
        assert SamplerConfig(0.8, 40, 0.95, 0.0).shorthand() == "(0.8, 40, 0.95, 0)"

    def test_zero_temperature_is_accepted(self):
        assert SamplerConfig(0.0, 1).temperature == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"temperature": -0.1},
            {"top_k": 0},
            {"top_k": 2.5},
            {"top_p": 0.0},
            {"top_p": 1.2},
            {"min_p": 1.0},
            {"min_p": -0.01},
            {"seed": -1},
            {"seed": 2**64},
        ],
    )
    def test_rejects_out_of_domain_fields(self, kwargs):
        base = dict(temperature=1.0, top_k=5, top_p=0.9, min_p=0.1, seed=0)
        base.update(kwargs)
        with pytest.raises(ValueError):
            SamplerConfig(**base)

    @pytest.mark.parametrize("name", ["temperature", "top_p", "min_p"])
    @pytest.mark.parametrize("flag", [True, False, np.True_], ids=["true", "false", "np-true"])
    def test_a_float_knob_refuses_a_bool(self, name, flag):
        # SamplerConfig(True, 1, True, False) sampled as T = 1, top_p = 1, min_p = 0
        base = dict(temperature=1.0, top_k=5, top_p=0.9, min_p=0.1)
        base[name] = flag
        with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be a number (got {flag!r})')}$"):
            SamplerConfig(**base)

    @pytest.mark.parametrize("big", [10**400, -(10**400)], ids=["above", "below"])
    @pytest.mark.parametrize(
        "name, make",
        [
            ("temperature", lambda x: SamplerConfig(x, 3)),
            ("top_p", lambda x: SamplerConfig(1.0, 3, x)),
            ("min_p", lambda x: SamplerConfig(1.0, 3, 1.0, x)),
            ("stay_mass", lambda x: build_world(2, 2, 4, x, seed=1)),
            ("neighbor_gain", lambda x: build_world(2, 2, 4, 0.5, seed=1, neighbor_gain=x)),
            ("alpha", lambda x: train_ngram([0, 1, 2], 2, x)),
            ("drawn_uniform", lambda x: SampleTrace((), x)),
        ],
    )
    def test_an_integer_past_the_float_range_is_refused(self, name, make, big):
        # np.isfinite raised a TypeError and float() an OverflowError for these
        with pytest.raises(ValueError, match=f"^{name} is beyond the float range$"):
            make(big)

    def test_integer_and_numpy_float_knobs_are_taken(self):
        assert SamplerConfig(1, 3, 1, 0).shorthand() == "(1, 3, 1, 0)"
        cfg = SamplerConfig(np.float32(0.5), 3, np.float64(0.9), np.float16(0.0))
        assert (cfg.temperature, cfg.top_p, cfg.min_p) == (0.5, 0.9, 0.0)


class TestRandomStream:
    def test_same_seed_same_sequence(self):
        a = RandomStream(42)
        b = RandomStream(42)
        assert [a.next_uniform() for _ in range(5)] == [b.next_uniform() for _ in range(5)]

    def test_unit_interval(self):
        s = RandomStream(9)
        for _ in range(1000):
            assert 0.0 <= s.next_uniform() < 1.0

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 64])
    def test_next_uniforms_equals_repeated_next_uniform(self, n):
        batched, single = RandomStream(2024), RandomStream(2024)
        got = batched.next_uniforms(n)
        assert got.dtype == np.float64 and got.shape == (n,)
        assert got.tolist() == [single.next_uniform() for _ in range(n)]
        assert batched.next_uniform() == single.next_uniform()  # same position after

    @pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
    def test_matches_philox_with_its_default_counter(self, seed):
        want = np.random.Generator(np.random.Philox(seed))
        s = RandomStream(seed)
        assert [s.next_uniform() for _ in range(5)] == want.random(5).tolist()
        assert s.next_uniforms(9).tobytes() == want.random(9).tobytes()
        assert s.next_uniform() == want.random()

    def test_no_stream_moves_the_start_of_the_next(self):
        first = RandomStream(77)
        drawn = first.next_uniforms(1000)
        assert not sampler._ZERO_COUNTER.any() and not sampler._ZERO_COUNTER.flags.writeable
        with pytest.raises(ValueError):
            sampler._ZERO_COUNTER[0] = 1
        assert RandomStream(77).next_uniforms(1000).tobytes() == drawn.tobytes()
        assert first._gen.bit_generator.state["state"]["counter"].any()  # the stream's own counter moved

    def test_frozen_anchor_values(self):
        # regression anchor: the generator algorithm is part of the contract
        s = RandomStream(42)
        got = [s.next_uniform() for _ in range(3)]
        np.testing.assert_allclose(
            got,
            [0.08607763073528474, 0.14155732377913233, 0.27009303504774695],
            rtol=0,
            atol=0,
        )


class TestDeriveSeed:
    def test_frozen_anchor_values(self):
        assert derive_seed(0, 0) == 8668861027912758289
        assert derive_seed(0, 1) == 4881901421217228719
        assert derive_seed(123, 7) == 9942283658580680595

    def test_uint64_range_and_determinism(self):
        for ordinal in range(20):
            s = derive_seed(77, ordinal)
            assert 0 <= s < 2**64
            assert s == derive_seed(77, ordinal)

    def test_distinct_across_ordinals(self):
        seeds = {derive_seed(5, i) for i in range(100)}
        assert len(seeds) == 100

    @pytest.mark.parametrize(
        "ordinal, message",
        [
            (1.5, "ordinal must be an integer (got 1.5)"),
            (1.0, "ordinal must be an integer (got 1.0)"),
            (True, "ordinal must be an integer (got True)"),
            ("1", "ordinal must be an integer (got '1')"),
            (-1, "ordinal must be non-negative (got -1)"),
        ],
    )
    def test_an_ordinal_that_is_not_a_non_negative_integer_is_refused(self, ordinal, message):
        # int() would give 1.5 and True the seed of ordinal 1
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            derive_seed(0, ordinal)

    def test_large_ordinals_are_taken(self):
        # k values in a top-k sweep are ordinals, so no upper bound applies
        for ordinal in (2**64, 2**100, np.int64(2**62)):
            assert 0 <= derive_seed(0, ordinal) < 2**64
        assert derive_seed(0, np.int64(1)) == derive_seed(0, 1)


class TestSeedContract:
    """The config, the stream and derive_seed's master seed share one check."""

    @pytest.mark.parametrize(
        "seed, message",
        [
            (-1, "seed must fit in an unsigned 64-bit integer (got -1)"),
            (2**64, "seed must fit in an unsigned 64-bit integer (got 18446744073709551616)"),
            (True, "seed must be an integer (got True)"),
            (1.0, "seed must be an integer (got 1.0)"),
            ("1", "seed must be an integer (got '1')"),
        ],
    )
    def test_every_seed_taker_refuses_a_bad_seed_alike(self, seed, message):
        takers = (
            lambda: SamplerConfig(1.0, 1, seed=seed), lambda: RandomStream(seed), lambda: derive_seed(seed, 0),
            lambda: build_world(2, 2, 4, 0.5, seed=seed), lambda: random_frame(2, 2, 4, seed=seed),
        )
        for take in takers:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                take()

    def test_both_ends_of_the_range_are_taken(self):
        for seed in (0, 2**64 - 1, np.uint64(2**64 - 1)):
            assert SamplerConfig(1.0, 1, seed=seed).seed == seed
            assert RandomStream(seed).seed == seed
            assert 0 <= derive_seed(seed, 0) < 2**64
            assert build_world(2, 2, 4, 0.5, seed=seed).seed == seed
            np.testing.assert_array_equal(random_frame(2, 2, 4, seed=seed), random_frame(2, 2, 4, seed=int(seed)))


class TestSortDescending:
    def test_sorts_and_records_provenance(self):
        d = sort_descending(ProbabilityDistribution([0.2, 0.5, 0.3]))
        np.testing.assert_allclose(d.masses, [0.5, 0.3, 0.2])
        np.testing.assert_array_equal(d.index_map, [1, 2, 0])

    def test_idempotent_on_sorted_input(self):
        d = sort_descending(ProbabilityDistribution([0.5, 0.3, 0.2]))
        np.testing.assert_array_equal(d.index_map, [0, 1, 2])

    def test_ties_order_by_ascending_token_index(self):
        d = sort_descending(ProbabilityDistribution([0.4, 0.4, 0.2]))
        np.testing.assert_array_equal(d.index_map, [0, 1, 2])


class TestTopKFilter:
    def test_keeps_exactly_k_of_40(self):
        z = np.linspace(2.0, -2.0, 40)
        d = sort_descending(softmax(z, 1.0))
        assert len(top_k_filter(d, 20)) == 20

    def test_exact_rational_renormalization(self):
        d = sort_descending(ProbabilityDistribution([0.4, 0.3, 0.2, 0.1]))
        kept = top_k_filter(d, 2)
        np.testing.assert_allclose(kept.masses, [4.0 / 7.0, 3.0 / 7.0], atol=1e-12)
        np.testing.assert_array_equal(kept.index_map, [0, 1])

    def test_k_at_least_count_is_identity(self):
        d = sort_descending(ProbabilityDistribution([0.6, 0.4]))
        kept = top_k_filter(d, 7)
        np.testing.assert_array_equal(kept.masses, d.masses)
        np.testing.assert_array_equal(kept.index_map, d.index_map)


class TestTopPFilter:
    def test_crossing_entry_is_included(self):
        d = sort_descending(ProbabilityDistribution([0.5, 0.3, 0.15, 0.05]))
        kept = top_p_filter(d, 0.9)
        assert len(kept) == 3
        np.testing.assert_allclose(kept.masses, np.array([0.5, 0.3, 0.15]) / 0.95, atol=1e-12)

    def test_full_mass_is_identity(self):
        d = sort_descending(ProbabilityDistribution([0.5, 0.3, 0.2]))
        kept = top_p_filter(d, 1.0)
        np.testing.assert_array_equal(kept.masses, d.masses)

    def test_first_entry_already_crossing_leaves_one_survivor(self):
        d = sort_descending(ProbabilityDistribution([0.5, 0.3, 0.15, 0.05]))
        kept = top_p_filter(d, 0.1)
        assert len(kept) == 1
        assert kept.masses[0] == 1.0
        assert kept.index_map[0] == 0

    def test_kept_mass_reaches_threshold(self):
        z = np.linspace(1.5, -1.5, 40)
        d = sort_descending(softmax(z, 0.7))
        for top_p in (0.3, 0.5, 0.9, 0.99):
            kept = top_p_filter(d, top_p)
            pre_cut = d.masses[: len(kept)].sum()
            assert pre_cut >= top_p - 1e-12


class TestMinPFilter:
    def test_absolute_floor_drops_small_masses(self):
        d = ProbabilityDistribution([0.5, 0.3, 0.15, 0.05])
        kept = min_p_filter(d, 0.06)
        assert len(kept) == 3
        np.testing.assert_allclose(kept.masses, np.array([0.5, 0.3, 0.15]) / 0.95, atol=1e-12)

    def test_zero_floor_is_identity(self):
        d = ProbabilityDistribution([0.5, 0.3, 0.15, 0.05])
        kept = min_p_filter(d, 0.0)
        np.testing.assert_array_equal(kept.masses, d.masses)

    def test_survivor_guarantee_keeps_largest(self):
        d = ProbabilityDistribution([0.5, 0.3, 0.15, 0.05])
        kept = min_p_filter(d, 0.6)
        assert len(kept) == 1
        assert kept.masses[0] == 1.0
        assert kept.index_map[0] == 0

    def test_survivor_guarantee_tie_breaks_to_lowest_token_index(self):
        d = ProbabilityDistribution(np.array([0.5, 0.5]), np.array([4, 2]))
        kept = min_p_filter(d, 0.8)
        assert len(kept) == 1
        assert kept.index_map[0] == 2


def drawn(masses, index_map, u):
    """The token that a trace whose final stage holds ``masses`` over ``index_map`` draws at ``u``."""
    return SampleTrace((StageRecord(masses, index_map, stage=STAGE_MIN_P),), u).drawn_token


class TestDraw:
    """The inverse-CDF draw, as a trace derives it and as the kernel makes it."""

    def test_onehot_returns_its_token_for_every_seed(self):
        for seed in range(20):
            assert drawn([1.0], [11], RandomStream(seed).next_uniform()) == 11

    def test_uniform_frequencies_within_binomial_bound(self):
        # 6 sigma for Binomial(100000, 0.25) is 0.0082, inside the 0.01 bar
        u = RandomStream(321).next_uniforms(100_000)
        tokens, _ = sample_rows(np.zeros((100_000, 4)), SamplerConfig(1.0, 4), u, want_traces=False)
        np.testing.assert_allclose(np.bincount(tokens, minlength=4) / 100_000.0, 0.25, atol=0.01)

    def test_fixed_seed_fixed_distribution_is_repeatable(self):
        masses, index_map = [0.1, 0.2, 0.3, 0.4], [0, 1, 2, 3]
        assert drawn(masses, index_map, RandomStream(99).next_uniform()) == drawn(
            masses, index_map, RandomStream(99).next_uniform()
        )

    def test_cumulation_runs_over_original_token_order(self):
        # survivors listed out of order: the draw must resort to ascending
        # token index before the inverse-CDF walk
        u = RandomStream(7).next_uniform()
        expected = 2 if u < 0.4 else 5
        assert drawn([0.6, 0.4], [5, 2], u) == expected
        # in token order token 2 holds [0, 0.4); in listed order token 5 would hold [0, 0.6)
        assert [drawn([0.6, 0.4], [5, 2], u) for u in (0.0, 0.3, 0.4, 0.5)] == [2, 2, 5, 5]

    def test_consumes_exactly_one_uniform(self):
        rng = RandomStream(13)
        run_pipeline([0.0, 0.0], SamplerConfig(1.0, 2), rng)
        reference = RandomStream(13)
        reference.next_uniform()
        assert rng.next_uniform() == reference.next_uniform()


class TestRunPipeline:
    def test_reference_config_produces_four_stage_trace(self):
        z = np.linspace(3.0, -3.0, 40)
        cfg = SamplerConfig(0.8, 40, 0.95, 0.0, seed=1)
        token, trace = run_pipeline(z, cfg, RandomStream(cfg.seed))
        assert 0 <= token < 40
        assert tuple(s.stage for s in trace.stages) == STAGES
        assert trace.stages[0].survivor_count == 40

    def test_k1_matches_argmax_for_every_seed(self):
        z = np.array([0.3, 2.0, -1.0, 1.9])
        cfg = SamplerConfig(1.0, 1, 1.0, 0.0)
        for seed in range(25):
            token, _ = run_pipeline(z, cfg, RandomStream(seed))
            assert token == 1

    def test_min_p_forcing_single_survivor_matches_argmax(self):
        z = np.array([0.3, 2.0, -1.0, 1.9])
        cfg = SamplerConfig(1.0, 4, 1.0, 0.99)
        for seed in range(25):
            token, trace = run_pipeline(z, cfg, RandomStream(seed))
            assert token == 1
            assert trace.final.survivor_count == 1

    def test_zero_temperature_is_argmax_mode(self):
        z = np.array([1.0, 3.0, 2.0])
        cfg = SamplerConfig(0.0, 3)
        rng = RandomStream(4)
        token, trace = run_pipeline(z, cfg, rng)
        assert token == 1
        assert trace.argmax_mode
        assert trace.drawn_uniform is None
        assert [s.stage for s in trace.stages] == [STAGE_SOFTMAX]
        # the bypass consumes no randomness
        assert rng.next_uniform() == RandomStream(4).next_uniform()

    def test_neutral_config_reproduces_softmax(self):
        z = np.linspace(-2.0, 2.0, 40) ** 3 / 4.0
        cfg = SamplerConfig(1.0, 40, 1.0, 0.0, seed=3)
        _, trace = run_pipeline(z, cfg, RandomStream(cfg.seed))
        final = trace.final.dense(40)
        np.testing.assert_allclose(final, softmax(z, 1.0).masses, atol=1e-9)

    def test_permutation_equivariance(self):
        z = np.linspace(1.7, -1.7, 12)
        perm = np.array([5, 0, 7, 2, 11, 4, 9, 1, 8, 3, 10, 6])
        cfg = SamplerConfig(0.9, 6, 0.9, 0.02, seed=8)
        _, t1 = run_pipeline(z, cfg, RandomStream(cfg.seed))
        _, t2 = run_pipeline(z[perm], cfg, RandomStream(cfg.seed))
        d1 = t1.final.dense(12)
        d2 = t2.final.dense(12)
        np.testing.assert_allclose(d2, d1[perm], atol=1e-12)

    def test_untraced_run_matches_traced_token(self):
        z = np.linspace(1.0, -1.0, 40)
        cfg = SamplerConfig(0.8, 40, 0.95, 0.0, seed=17)
        traced, trace = run_pipeline(z, cfg, RandomStream(cfg.seed))
        bare, none_trace = run_pipeline(z, cfg, RandomStream(cfg.seed), want_trace=False)
        assert none_trace is None
        assert bare == traced
        assert trace is not None

    def test_pipeline_consumes_exactly_one_uniform(self):
        z = np.linspace(1.0, -1.0, 10)
        cfg = SamplerConfig(1.0, 5, 0.9, 0.0, seed=6)
        rng = RandomStream(cfg.seed)
        run_pipeline(z, cfg, rng)
        reference = RandomStream(cfg.seed)
        reference.next_uniform()
        assert rng.next_uniform() == reference.next_uniform()

    @given(finite_logits, configs)
    def test_stage_monotonicity_and_normalization(self, z, cfg):
        _, trace = run_pipeline(z, cfg, RandomStream(cfg.seed))
        counts = [s.survivor_count for s in trace.stages]
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        for s in trace.stages:
            assert abs(s.masses.sum() - 1.0) <= 1e-9
            assert s.survivor_count == len(s.masses) == len(s.index_map)

    @given(finite_logits, configs)
    def test_survivor_set_contains_softmax_mode(self, z, cfg):
        # Extreme logit gaps can underflow to exactly tied masses, so the
        # guaranteed survivor is the mode of the softmax stage (lowest index
        # on ties), not argmax of the raw logits.
        _, trace = run_pipeline(z, cfg, RandomStream(cfg.seed))
        softmax_stage = trace.stages[0]
        mode = int(softmax_stage.index_map[int(np.argmax(softmax_stage.masses))])
        assert mode in trace.final.index_map

    @given(finite_logits, configs)
    def test_drawn_token_is_a_final_survivor(self, z, cfg):
        token, trace = run_pipeline(z, cfg, RandomStream(cfg.seed))
        assert token in trace.final.index_map

    @given(finite_logits, configs)
    def test_same_seed_same_outcome(self, z, cfg):
        t1, tr1 = run_pipeline(z, cfg, RandomStream(cfg.seed))
        t2, tr2 = run_pipeline(z, cfg, RandomStream(cfg.seed))
        assert t1 == t2
        assert spell_traces([tr1], 0) == spell_traces([tr2], 0)


class TestTraceSerialization:
    def test_json_round_trip_is_exact(self):
        z = np.linspace(2.0, -2.0, 15)
        cfg = SamplerConfig(0.7, 9, 0.85, 0.03, seed=23)
        _, trace = run_pipeline(z, cfg, RandomStream(cfg.seed))
        clone = reread(trace)
        assert clone.drawn_token == trace.drawn_token
        assert clone.drawn_uniform == trace.drawn_uniform
        assert clone.argmax_mode == trace.argmax_mode
        assert len(clone.stages) == len(trace.stages)
        for a, b in zip(clone.stages, trace.stages):
            assert a.stage == b.stage
            assert a.survivor_count == b.survivor_count
            np.testing.assert_array_equal(a.masses, b.masses)
            np.testing.assert_array_equal(a.index_map, b.index_map)

    def test_argmax_mode_round_trips(self):
        _, trace = run_pipeline(np.array([0.0, 1.0]), SamplerConfig(0.0, 1), RandomStream(0))
        clone = reread(trace)
        assert clone.argmax_mode
        assert clone.drawn_uniform is None

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d["stages"][-1].update(survivor_count=99),
             r"^survivor_count must be a JSON integer equal to the number of masses \(3\) and of indices \(3\) "
             r"\(got 99\)$"),
            (lambda d: d["stages"][-1].update(survivor_count=3.0), r"\(got 3\.0\)$"),
            (lambda d: d["stages"][-1].update(index_map=[0, 1]), r"and of indices \(2\) \(got 3\)$"),
            (lambda d: d.update(argmax_mode="false"), r'^argmax_mode must be a JSON bool \(got "false"\)$'),
            (lambda d: d.update(argmax_mode=0), r"^argmax_mode must be a JSON bool \(got 0\)$"),
            (lambda d: d.update(drawn_token=2.7), r"^drawn_token must be a JSON integer \(got 2\.7\)$"),
            (lambda d: d.update(drawn_token=True), r"^drawn_token must be a JSON integer \(got true\)$"),
            (lambda d: d["stages"][-1].update(stage=7),
             r"^stage must be one of after-softmax, after-top-k, after-top-p, after-min-p \(got 7\)$"),
            (lambda d: d["stages"][0].update(stage="after-top-q"), r'^stage must be one of .* \(got "after-top-q"\)$'),
            (lambda d: d.update(drawn_uniform="0.5"), r'^drawn_uniform must be a JSON number or null \(got "0.5"\)$'),
            (lambda d: d.update(drawn_uniform=True), r"^drawn_uniform must be a JSON number or null \(got true\)$"),
            (lambda d: d["stages"][-1].update(masses=[str(m) for m in d["stages"][-1]["masses"]]),
             r'^masses must be a JSON list of numbers \(entry 0 is "0\.\d+"\)$'),
            (lambda d: d["stages"][-1].update(masses="0.5"), r'^masses must be a JSON list of numbers \(got "0.5"\)$'),
            (lambda d: d["stages"][-1].update(index_map=[0.9, 1.9, 2.9]),
             r"^index_map must be a JSON list of integers \(entry 0 is 0\.9\)$"),
            (lambda d: d["stages"][-1].update(index_map=[0, 1, False]),
             r"^index_map must be a JSON list of integers \(entry 2 is false\)$"),
            (lambda d: d.pop("stages"), r"^trace has no field 'stages'$"),
            (lambda d: d["stages"][1].pop("masses"), r"^stage record has no field 'masses'$"),
            (lambda d: d["stages"][-1].update(index_map=[0, 1, 2**70]),
             r"^index_map entries must be below 2\^63 \(got 1180591620717411303424\)$"),
            (lambda d: d["stages"][-1].update(index_map=[0, 1, 4]),
             r"^index_map entries must be below 4, the softmax stage's size \(got 4\)$"),
            (lambda d: d["stages"][-1].update(index_map=[0, 1, 1]), r"^index_map entries must be distinct"),
            (lambda d: d["stages"][-1].update(index_map=[0, 1, -1]), r"^index_map entries must be distinct non-neg"),
            (lambda d: d["stages"][-1].update(masses=[-1.0, 1.0, 1.0]), r"^masses must be non-negative$"),
            (lambda d: d["stages"][-1].update(masses=[0.5, 0.5, 0.5]), r"^masses must sum to 1"),
            (lambda d: d["stages"][-1].update(masses=[1, 0, 10**400]), r"^masses is beyond the float range$"),
            (lambda d: d["stages"][-1].update(masses=[float("nan"), 0.5, 0.5]), r"^masses must sum to 1 .*nan\)$"),
            (lambda d: d.update(drawn_token=99), r"^drawn_token must be one of the final stage's survivors \(got 99\)"),
            (lambda d: d.update(drawn_token=3), r"^drawn_token must be one of the final stage's survivors \(got 3\)$"),
            (lambda d: d.update(drawn_uniform=7.5),
             r"^drawn_uniform must be in \[0, 1\), or null in argmax mode alone \(got 7\.5\)$"),
            (lambda d: d.update(drawn_uniform=None), r"^drawn_uniform must be in \[0, 1\).* \(got null\)$"),
            (lambda d: d.update(argmax_mode=True), r"^stages must be after-softmax \(got after-softmax, after-top-k, "),
            (lambda d: d.update(stages=d["stages"][::-1]), r"^stages must be after-softmax, after-top-k, after-top-p"),
            (lambda d: d.update(stages=[]), r"^stages must be .* \(got none\)$"),
        ],
        ids=["survivors-99", "survivors-3.0", "short-index-map", "argmax-string", "argmax-0", "token-2.7",
             "token-true", "stage-7", "stage-unknown", "uniform-string", "uniform-true", "masses-strings",
             "masses-string", "index-map-floats", "index-map-bool", "no-stages", "no-masses", "index-2^70",
             "index-past-softmax", "index-repeated", "index-negative", "masses-negative", "masses-sum-1.5",
             "masses-past-float", "masses-nan", "token-99", "token-not-final", "uniform-7.5", "uniform-null",
             "argmax-true", "stages-reversed", "stages-empty"],
    )
    def test_what_to_json_cannot_write_is_refused(self, edit, message):
        # int(), float(), str() and bool() read these as 99 survivors of 3, token 2,
        # argmax mode on, stage "7", uniform 0.5 and index map [0, 1, 2]; the
        # later cases are well-typed, but no pipeline run writes them
        _, trace = run_pipeline(np.array([3.0, 2.0, 1.0, -9.0]), SamplerConfig(1.0, 3), RandomStream(5))
        doc = json.loads(spell_traces([trace], 0))[0]
        assert doc["stages"][-1]["survivor_count"] == 3
        edit(doc)
        with pytest.raises(ValueError, match=message):
            SampleTrace.from_json_dict(doc)


class TestDerivedTraceFields:
    """A trace stores its stages and its uniform; the survivor counts, argmax mode and token are read from them."""

    ARGMAX_DOC = {
        "argmax_mode": True, "drawn_token": 0, "drawn_uniform": None,
        "stages": [{"stage": STAGE_SOFTMAX, "survivor_count": 2, "masses": [0.27, 0.73], "index_map": [0, 1]}],
    }

    def test_a_drawn_token_the_stages_do_not_select_is_refused(self):
        # both documents loaded before the reader compared the token with the one it derives
        with pytest.raises(ValueError, match=r"^drawn_token must be 1, which the stages and uniform select \(got 0\)$"):
            SampleTrace.from_json_dict(self.ARGMAX_DOC)
        _, trace = run_pipeline(np.array([3.0, 2.0, 1.0, -9.0]), SamplerConfig(1.0, 3), RandomStream(5))
        doc = json.loads(spell_traces([trace], 0))[0]
        assert (doc["drawn_token"], doc["stages"][-1]["index_map"]) == (1, [0, 1, 2])
        doc["drawn_token"] = 2  # a survivor, but not the one drawn_uniform selects
        with pytest.raises(ValueError, match=r"^drawn_token must be 1, .* \(got 2\)$"):
            SampleTrace.from_json_dict(doc)

    @pytest.mark.parametrize(
        "masses, index_map, message",
        [
            ([-0.5, 1.5], [0, 1], r"^masses must be non-negative$"),
            ([0.5, 0.5], [3, 3], r"^index_map entries must be distinct non-negative token indices$"),
            ([0.5, 0.5], [0, 1, 2], r"^masses and index_map must have equal length$"),
        ],
    )
    def test_a_stage_record_is_checked_as_a_distribution(self, masses, index_map, message):
        with pytest.raises(ValueError, match=message):
            StageRecord(np.array(masses), np.array(index_map), stage=STAGE_TOP_K)

    def test_a_stage_record_is_a_distribution_whose_count_is_its_size(self):
        record = StageRecord([0.25, 0.75], [4, 2], stage=STAGE_TOP_P)
        assert isinstance(record, ProbabilityDistribution)
        assert record.survivor_count == len(record) == 2
        assert record.to_json_dict() == {"stage": STAGE_TOP_P, "survivor_count": 2, "masses": [0.25, 0.75],
                                         "index_map": [4, 2]}

    def test_argmax_mode_is_the_absence_of_a_uniform(self):
        _, trace = run_pipeline(np.linspace(1.0, -1.0, 5), SamplerConfig(1.0, 2), RandomStream(3))
        assert not SampleTrace(trace.stages[:1], 0.5).argmax_mode
        assert SampleTrace(trace.stages, None).argmax_mode

    @pytest.mark.parametrize(
        "u, message",
        [
            (1.5, r"must be in \[0, 1\), or None in argmax mode \(got 1\.5\)$"),
            (-0.5, r"must be in \[0, 1\).* \(got -0\.5\)$"),
            (1.0, r"must be in \[0, 1\).* \(got 1\.0\)$"),
            (float("nan"), r"must be in \[0, 1\).* \(got nan\)$"),
            (float("inf"), r"must be in \[0, 1\).* \(got inf\)$"),
            ("0.5", r"must be a number \(got '0\.5'\)$"),
            (True, r"must be a number \(got True\)$"),
        ],
        ids=["1.5", "-0.5", "1.0", "nan", "inf", "str", "bool"],
    )
    def test_a_uniform_outside_the_unit_interval_is_refused(self, u, message):
        # 1.5 drew token 1 through the draw clamp, and -0.5 drew token 0
        with pytest.raises(ValueError, match="^drawn_uniform " + message):
            SampleTrace((StageRecord([0.5, 0.5], [0, 1], stage=STAGE_MIN_P),), u)

    @pytest.mark.parametrize("u", [None, 0.0, 0, 0.5, np.float64(0.25), np.nextafter(1.0, 0.0)], ids=repr)
    def test_a_uniform_in_the_unit_interval_or_none_is_taken(self, u):
        trace = SampleTrace((StageRecord([0.5, 0.5], [0, 1], stage=STAGE_MIN_P),), u)
        assert trace.drawn_uniform is u and trace.argmax_mode == (u is None)

    @pytest.mark.parametrize("temperature", [0.0, 1.0])
    def test_the_derived_token_is_the_kernels_token(self, temperature):
        # tied maxima: argmax mode and the min-p fallback both take the lowest index
        z = np.array([1.0, 3.0, 0.0, 3.0])
        cfg = SamplerConfig(temperature, 4, 1.0, 0.9)
        for seed in range(20):
            token, trace = run_pipeline(z, cfg, RandomStream(seed))
            assert token == 1
            assert SampleTrace(trace.stages, trace.drawn_uniform).drawn_token == token
            assert reread(trace).drawn_token == token


# -- Frozen reference pipeline ------------------------------------------------
#
# The staged pipeline as it stood before run_pipeline became one array-level
# pass: validated softmax, lexsort sort, boolean-mask truncation stages that
# renormalize with ndarray.sum, and a draw that re-sorts by token index.  The
# kernel must reproduce it bit for bit: tokens, trace JSON and RNG position.


def _reference_renorm(masses, index_map):
    return masses / masses.sum(), index_map


def reference_run_pipeline(z, cfg, rng, *, want_trace=True):
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 1 or z.size == 0:
        raise ValueError("logits must form a non-empty 1-D vector")
    if not np.all(np.isfinite(z)):
        raise ValueError("logits must be finite (no NaN or infinities)")

    def soft(temperature):
        e = np.exp((z - z.max()) / temperature)
        return e / e.sum(), np.arange(z.size, dtype=np.int64)

    def record(stage, masses, index_map):
        return StageRecord(masses, index_map, stage=stage)

    if cfg.temperature == 0.0:
        p, idx = soft(1.0)
        token = int(idx[np.flatnonzero(p == p.max())].min())
        if not want_trace:
            return token, None
        return token, SampleTrace((record(STAGE_SOFTMAX, p, idx),), None)

    p0, i0 = soft(cfg.temperature)
    order = np.lexsort((i0, -p0))
    m1, i1 = p0[order], i0[order]
    if cfg.top_k < m1.size:
        m1, i1 = _reference_renorm(m1[: cfg.top_k], i1[: cfg.top_k])
    cum = np.cumsum(m1)
    cut = int(np.searchsorted(cum, cfg.top_p, side="left"))
    if cut >= m1.size:
        cut = m1.size - 1
    m2, i2 = m1, i1
    if cut != m1.size - 1:
        m2, i2 = _reference_renorm(m1[: cut + 1], i1[: cut + 1])
    keep = m2 >= cfg.min_p
    m3, i3 = m2, i2
    if not keep.any():
        best = np.flatnonzero(m2 == m2.max())
        pos = best[np.argmin(i2[best])]
        m3, i3 = np.ones(1, dtype=np.float64), i2[pos : pos + 1].copy()
    elif not keep.all():
        m3, i3 = _reference_renorm(m2[keep], i2[keep])
    back = np.argsort(i3)
    cum = np.cumsum(m3[back])
    u = rng.next_uniform()
    pos = int(np.searchsorted(cum, u, side="right"))
    if pos >= cum.size:
        pos = cum.size - 1
    token = int(i3[back[pos]])
    if not want_trace:
        return token, None
    stages = (
        record(STAGE_SOFTMAX, p0, i0),
        record(STAGE_TOP_K, m1, i1),
        record(STAGE_TOP_P, m2, i2),
        record(STAGE_MIN_P, m3, i3),
    )
    return token, SampleTrace(stages, u)


_tie_prone = st.sampled_from([0.0, 1.0, -1.0, 2.5, -40.0, 700.0, -700.0])
_wide = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
_extreme = st.sampled_from([1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308, 5e-324])
differential_logits = st.integers(min_value=1, max_value=64).flatmap(
    lambda d: arrays(np.float64, d, elements=st.one_of(_tie_prone, _wide, _extreme))
)
differential_configs = st.builds(
    SamplerConfig,
    temperature=st.one_of(
        st.just(0.0),
        st.sampled_from([5e-324, 1e-320, 1e-300, 1e-12]),
        st.floats(min_value=0.01, max_value=100.0),
    ),
    top_k=st.integers(min_value=1, max_value=70),
    top_p=st.one_of(st.just(1.0), st.floats(min_value=1e-6, max_value=1.0, exclude_min=True)),
    min_p=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=0.999)),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
)


class TestKernelMatchesReference:
    """run_pipeline against the frozen reference: exact token, trace bytes and stream position."""

    @staticmethod
    def _both(z, cfg, want_trace):
        ours_rng, ref_rng = RandomStream(cfg.seed), RandomStream(cfg.seed)
        with np.errstate(over="ignore"):
            ours = run_pipeline(z, cfg, ours_rng, want_trace=want_trace)
            ref = reference_run_pipeline(z, cfg, ref_rng, want_trace=want_trace)
        if want_trace:  # the reference draws on its own; its trace derives the token from its stages
            assert ref[1].drawn_token == ref[0]
        return ours, ref, ours_rng.next_uniform(), ref_rng.next_uniform()

    @settings(max_examples=400)
    @given(differential_logits, differential_configs, st.booleans())
    def test_same_token_trace_bytes_and_stream_position(self, z, cfg, want_trace):
        (token, trace), (ref_token, ref_trace), pos, ref_pos = self._both(z, cfg, want_trace)
        assert token == ref_token
        assert pos == ref_pos
        if want_trace:
            assert spell_traces([trace], 0) == spell_traces([ref_trace], 0)
            assert all(not s.masses.flags.writeable and not s.index_map.flags.writeable for s in trace.stages)
        else:
            assert trace is None and ref_trace is None

    @pytest.mark.parametrize(
        "z, cfg",
        [
            (np.zeros(7), SamplerConfig(1.0, 7, 1.0, 0.5, seed=3)),  # flat: min-p falls back to token 0
            (np.array([1.0, 3.0, 3.0, 0.0]), SamplerConfig(1.0, 10, 1.0, 0.9, seed=4)),  # tied maxima
            (np.array([0.0, 1e308, -1e308]), SamplerConfig(1e-320, 2, 1.0, 0.0, seed=5)),  # extreme logits
            (np.array([2.0]), SamplerConfig(0.7, 1, 0.5, 0.3, seed=6)),  # one token
            (np.linspace(1.0, -1.0, 40), SamplerConfig(0.8, 64, 1.0, 0.0, seed=7)),  # every stage a no-op
            (np.linspace(3.0, -3.0, 40), SamplerConfig(0.0, 5, 0.5, 0.2, seed=8)),  # argmax mode
        ],
    )
    def test_edge_paths(self, z, cfg):
        for want_trace in (True, False):
            (token, trace), (ref_token, ref_trace), pos, ref_pos = self._both(z, cfg, want_trace)
            assert (token, pos) == (ref_token, ref_pos)
            if want_trace:
                assert spell_traces([trace], 0) == spell_traces([ref_trace], 0)

    def test_rejects_what_the_reference_rejects(self):
        for bad in ([], [[1.0, 2.0]], [0.0, float("nan")], [float("inf"), 0.0]):
            with pytest.raises(ValueError):
                run_pipeline(bad, SamplerConfig(1.0, 3), RandomStream(0))
            with pytest.raises(ValueError):
                reference_run_pipeline(bad, SamplerConfig(1.0, 3), RandomStream(0))

    @settings(max_examples=200)
    @given(differential_logits, differential_configs)
    @example(np.zeros(7), SamplerConfig(1.0, 7, 1.0, 0.5, seed=3))  # min-p falls back to token 0
    @example(np.array([1.0, 3.0, 3.0, 0.0]), SamplerConfig(1.0, 10, 1.0, 0.9, seed=4))  # fallback, tied maxima
    @example(np.array([1.0, 3.0, 3.0, 0.0]), SamplerConfig(0.0, 2, 0.5, 0.0, seed=5))  # argmax mode, tied maxima
    @example(np.array([2.0]), SamplerConfig(0.0, 1, 1.0, 0.0, seed=6))  # argmax mode, one token
    def test_fresh_and_warm_memos_match_the_reference(self, z, cfg):
        # A fresh memo stages the pair; a warm one, filled from a copy of z by a
        # call in the other trace mode on another stream, only draws.
        for want_trace in (True, False):
            ref_rng = RandomStream(cfg.seed)
            with np.errstate(over="ignore"):
                ref_token, ref_trace = reference_run_pipeline(z, cfg, ref_rng, want_trace=want_trace)
                warm = {}
                run_pipeline(np.array(z), cfg, RandomStream(0), want_trace=not want_trace, memo=warm)
            ref_pos = ref_rng.next_uniform()
            for memo in ({}, warm):
                rng = RandomStream(cfg.seed)
                with np.errstate(over="ignore"):
                    token, trace = run_pipeline(z, cfg, rng, want_trace=want_trace, memo=memo)
                assert (token, rng.next_uniform()) == (ref_token, ref_pos)
                assert len(memo) == 1
                if want_trace:
                    assert spell_traces([trace], 0) == spell_traces([ref_trace], 0)
                else:
                    assert trace is None


class TestPipelineMemo:
    """run_pipeline with a caller-owned memo against the same calls without one:
    the same tokens, trace bytes and stream position, call for call."""

    @staticmethod
    def _pair(calls, seed=21):
        # calls: (z, cfg) pairs, each taken by value at its call, on one memo and without one
        memo, ours_rng, ref_rng = {}, RandomStream(seed), RandomStream(seed)
        ours, ref = [], []
        for z, cfg in calls:
            ours.append(run_pipeline(z, cfg, ours_rng, memo=memo))
            ref.append(run_pipeline(np.array(z), cfg, ref_rng))
        assert [t for t, _ in ours] == [t for t, _ in ref]
        assert spell_traces([tr for _, tr in ours], 0) == spell_traces([tr for _, tr in ref], 0)
        assert ours_rng.next_uniform() == ref_rng.next_uniform()
        return memo, [tr for _, tr in ours]

    def test_a_logit_vector_changed_in_place_is_staged_afresh(self):
        z = np.linspace(2.0, -2.0, 12)  # writable: the memo must key on its content
        cfg = SamplerConfig(0.9, 6, 0.9, 0.0)
        memo, ours_rng, ref_rng = {}, RandomStream(4), RandomStream(4)
        before = run_pipeline(z, cfg, ours_rng, memo=memo)
        assert before[0] == run_pipeline(z.copy(), cfg, ref_rng)[0]
        z[[0, -1]] = z[[-1, 0]]  # the most likely token is now the last
        after, ref = run_pipeline(z, cfg, ours_rng, memo=memo), run_pipeline(z.copy(), cfg, ref_rng)
        assert after[0] == ref[0] and after[1].stages[1].index_map[0] == 11
        assert spell_traces([after[1]], 0) == spell_traces([ref[1]], 0)
        assert len(memo) == 2

    def test_one_memo_keeps_two_configs_apart(self):
        z = np.array([1.0, 0.5, 0.2, -0.3, -1.0])
        wide, narrow = SamplerConfig(1.0, 5, 1.0, 0.0), SamplerConfig(1.0, 2, 1.0, 0.0)
        memo, traces = self._pair([(z, wide), (z, narrow), (z, wide), (z, narrow)])
        assert len(memo) == 2
        assert [t.final.survivor_count for t in traces] == [5, 2, 5, 2]

    @pytest.mark.parametrize("cfg", [
        SamplerConfig(0.8, 3, 0.9, 0.05),
        SamplerConfig(0.0, 3, 0.9, 0.05),  # argmax mode: a hit draws nothing either
        SamplerConfig(1.0, 1, 1.0, 0.0),  # one survivor
        SamplerConfig(1.0, 6, 1.0, 0.6),  # the min-p single-survivor fallback
    ])
    def test_a_hit_draws_as_many_uniforms_as_a_miss(self, cfg):
        z = np.array([0.3, 0.3, 0.1, -0.2, -0.2, -1.0])
        memo, traces = self._pair([(z, cfg)] * 3)
        assert len(memo) == 1
        assert all(a is b for t in traces[1:] for a, b in zip(t.stages, traces[0].stages))
        assert len({id(t) for t in traces}) == 3  # a fresh trace per call, sharing the records
        assert all(not s.masses.flags.writeable for s in traces[0].stages)
        rng = RandomStream(21)
        run_pipeline(z, cfg, rng, memo={})
        uniforms = [rng.next_uniform() for _ in range(2)]
        assert [t.drawn_uniform for t in traces[1:]] == ([None, None] if cfg.temperature == 0 else uniforms)

    def test_untraced_hits_draw_what_traced_ones_do(self):
        z, cfg = np.array([0.5, 0.1, 0.0, -0.4]), SamplerConfig(1.3, 4, 0.95, 0.1)
        memo, rng, ref_rng = {}, RandomStream(8), RandomStream(8)
        for want_trace in (False, True, False):
            token, trace = run_pipeline(z, cfg, rng, want_trace=want_trace, memo=memo)
            assert token == run_pipeline(z, cfg, ref_rng)[0]
            assert (trace is None) == (not want_trace)
        assert rng.next_uniform() == ref_rng.next_uniform()

    def test_refuses_what_the_unmemoized_call_refuses(self):
        memo = {}
        run_pipeline([0.0, 1.0], SamplerConfig(1.0, 3), RandomStream(0), memo=memo)
        for bad in ([], [[0.0, 1.0]], [0.0, float("nan")], [float("inf"), 0.0]):
            with pytest.raises(ValueError):
                run_pipeline(bad, SamplerConfig(1.0, 3), RandomStream(0), memo=memo)
        assert len(memo) == 1

    def test_a_hit_does_not_check_the_logits_again(self, monkeypatch):
        a, b = np.linspace(1.0, -1.0, 5), np.array([0.5, 0.0, -0.5])
        cfg = SamplerConfig(0.9, 4, 0.95, 0.0)
        calls = [(a, cfg), (b, cfg), (a.copy(), cfg), (list(b), cfg), (a, replace(cfg, temperature=0.0)), (a, cfg)]
        checked, check = [], sampler.as_logits
        monkeypatch.setattr(sampler, "as_logits", lambda z: checked.append(z) or check(z))
        memo, rng = {}, RandomStream(5)
        for z, c in calls:
            run_pipeline(z, c, rng, memo=memo)
        assert len(memo) == len(checked) == 3  # one check per distinct pair


class ScriptedStream:
    """Stands in for a RandomStream: hands out a fixed list of uniforms, so a
    test can reach values a seed rarely gives (0.0, the largest double below 1)."""

    def __init__(self, uniforms):
        self.uniforms = [float(u) for u in uniforms]
        self.position = 0

    def next_uniform(self):
        self.position += 1
        return self.uniforms[self.position - 1]

    def next_uniforms(self, n):
        self.position += n
        assert self.position <= len(self.uniforms)
        return np.array(self.uniforms[self.position - n : self.position])


BELOW_ONE = float(np.nextafter(1.0, 0.0))
_row_count = st.integers(min_value=1, max_value=6)
differential_matrices = st.tuples(st.integers(min_value=1, max_value=40), _row_count).flatmap(
    lambda shape: arrays(np.float64, (shape[1], shape[0]), elements=st.one_of(_tie_prone, _wide, _extreme))
)
_uniform = st.one_of(st.sampled_from([0.0, BELOW_ONE]), st.floats(0.0, 1.0, exclude_max=True))


class TestSampleRowsMatchesPipeline:
    """sample_rows against run_pipeline on each row: exact tokens and trace bytes."""

    @staticmethod
    def _check(z, cfg, uniforms):
        with np.errstate(over="ignore"):
            tokens, traces = sample_rows(z, cfg, None if cfg.temperature == 0.0 else np.array(uniforms))
            bare, none = sample_rows(z, cfg, None if cfg.temperature == 0.0 else np.array(uniforms),
                                     want_traces=False)
            stream = ScriptedStream(uniforms)
            ref = [run_pipeline(row, cfg, stream) for row in z]
        assert none is None
        assert tokens.tolist() == bare.tolist() == [t for t, _ in ref]
        assert spell_traces(traces, 0) == spell_traces([t for _, t in ref], 0)

    @settings(max_examples=300)
    @given(differential_matrices, differential_configs, st.data())
    def test_same_tokens_and_trace_bytes(self, z, cfg, data):
        uniforms = data.draw(st.lists(_uniform, min_size=len(z), max_size=len(z)), label="uniforms")
        self._check(z, cfg, uniforms)

    def test_rows_with_different_survivor_counts(self):
        # one call: top-p and min-p cut the rows to different lengths, two rows share
        # a min-p length, min-p leaves one row as it is and falls back on another
        z = np.array([
            np.linspace(4.0, -4.0, 12), np.zeros(12), np.linspace(0.0, 1.0, 12), np.arange(12.0) % 3,
            np.linspace(2.0, -2.0, 12),
        ])
        cfg = SamplerConfig(1.3, 10, 0.8, 0.13)
        self._check(z, cfg, [0.1, 0.5, 0.9, BELOW_ONE, 0.3])
        _, traces = sample_rows(z, cfg, np.zeros(5))
        assert [[s.survivor_count for s in t.stages[2:]] for t in traces] == [[3, 3], [9, 1], [8, 3], [7, 4], [5, 4]]

    def test_rejects_bad_shapes_and_missing_uniforms(self):
        cfg = SamplerConfig(1.0, 3)
        for bad in (np.zeros(3), np.zeros((0, 3)), np.array([[0.0, np.nan]])):
            with pytest.raises(ValueError):
                sample_rows(bad, cfg, np.zeros(1))
        with pytest.raises(ValueError):
            sample_rows(np.zeros((2, 3)), cfg, None)
        with pytest.raises(ValueError):
            sample_rows(np.zeros((2, 3)), cfg, np.zeros(3))

    @pytest.mark.parametrize("bad", [1.0, 1.5, -0.5, -5e-324, np.nan, np.inf, -np.inf])
    def test_refuses_a_uniform_outside_the_unit_interval(self, bad):
        # 1.5 used to reach token 2 through the draw clamp, -0.5 token 0
        z = np.array([[1.0, 2.0, 3.0]] * 3)
        with pytest.raises(ValueError, match=rf"^the uniform of row 1 must be in \[0, 1\) \(got {bad!r}\)$"):
            sample_rows(z, SamplerConfig(1.0, 3), np.array([0.5, bad, bad]))

    def test_takes_the_stream_uniforms_and_both_ends(self):
        z = np.array([[1.0, 2.0, 3.0]] * 40)
        cfg = SamplerConfig(1.0, 3)
        uniforms = np.concatenate([[0.0, BELOW_ONE], RandomStream(11).next_uniforms(38)])
        tokens, traces = sample_rows(z, cfg, uniforms)
        stream = ScriptedStream(uniforms.tolist())
        assert tokens.tolist() == [run_pipeline(row, cfg, stream)[0] for row in z]
        assert [t.drawn_uniform for t in traces] == uniforms.tolist()


class TestPerRowTopK:
    """sample_rows with a k per row against one-row calls under each row's own config."""

    @staticmethod
    def _check(z, cfg, uniforms, ks):
        u = None if cfg.temperature == 0.0 else np.array(uniforms)
        with np.errstate(over="ignore"):
            tokens, traces = sample_rows(z, cfg, u, top_k=ks)
            bare, _ = sample_rows(z, cfg, u, top_k=ks, want_traces=False)
            for i, row in enumerate(z):
                alone = replace(cfg, top_k=int(ks[i]))
                one, one_traces = sample_rows(row[None], alone, None if u is None else u[i:i + 1])
                assert tokens[i] == bare[i] == one[0]
                assert spell_traces(traces[i:i + 1], 0) == spell_traces(one_traces, 0)
        return traces

    @settings(max_examples=300)
    @given(differential_matrices, differential_configs, st.data())
    def test_each_row_samples_under_its_own_k(self, z, cfg, data):
        n, size = z.shape
        ks = data.draw(st.lists(st.integers(1, size + 3), min_size=n, max_size=n), label="ks")  # k > D too
        uniforms = data.draw(st.lists(_uniform, min_size=n, max_size=n), label="uniforms")
        dtype = data.draw(st.sampled_from([np.int64, np.int32, np.uint8, np.uint64]), label="dtype")
        self._check(z, cfg, uniforms, np.array(ks, dtype=dtype))

    def test_one_call_cuts_rows_to_their_own_lengths(self):
        # rows of one logit vector under k = 1, 3, 3, 12 and 40: two rows share a top-k
        # length, the last two keep all 12, and min-p cuts those two further
        z = np.tile(np.linspace(2.0, -2.0, 12), (5, 1))
        traces = self._check(z, SamplerConfig(1.0, 7, 1.0, 0.05), [0.1, 0.5, BELOW_ONE, 0.3, 0.9],
                             np.array([1, 3, 3, 12, 40]))
        assert [[s.survivor_count for s in t.stages[1:]] for t in traces] == [
            [1, 1, 1], [3, 3, 3], [3, 3, 3], [12, 12, 6], [12, 12, 6]]

    @pytest.mark.parametrize(
        "ks, message",
        [
            (np.array([3, 3]), "per-row top_k for 3 rows must have shape (3,) (got (2,))"),
            (np.array([[3, 3, 3]]), "per-row top_k for 3 rows must have shape (3,) (got (1, 3))"),
            (np.array(3), "per-row top_k for 3 rows must have shape (3,) (got ())"),
            (np.array([3.0, 3.0, 3.0]), "per-row top_k must hold integers (got dtype float64)"),
            (np.array([True, True, True]), "per-row top_k must hold integers (got dtype bool)"),
            (np.array([3, 0, -1]), "the top_k of row 1 must satisfy k >= 1 (got 0)"),
            (np.array([3, 2, -1]), "the top_k of row 2 must satisfy k >= 1 (got -1)"),
            (np.array([0, 1, 1], dtype=np.uint8), "the top_k of row 0 must satisfy k >= 1 (got 0)"),
        ],
        ids=["short", "2-d", "scalar", "float", "bool", "zero-at-row-1", "negative-at-row-2", "unsigned-zero"],
    )
    def test_refuses_what_no_config_could_hold(self, ks, message):
        z = np.array([[1.0, 2.0, 3.0]] * 3)
        for cfg in (SamplerConfig(1.0, 3), SamplerConfig(0.0, 3)):  # argmax mode checks them too
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                sample_rows(z, cfg, None if cfg.temperature == 0.0 else np.full(3, 0.5), top_k=ks)


class TestRulesOnTheirBoundaries:
    """Each kernel against the frozen reference where a knob sits exactly on a
    cumulative mass or on a mass, and where the min-p fallback meets tied
    maxima: cases that drawn floats almost never reach.  The kernels share
    each rule, so checking them only against each other would miss a wrong rule."""

    # zeros(4) gives masses of exactly 0.25, as does zeros(8) after a top-k of 4;
    # SPLIT gives 0.5 to tokens 1 and 3 and about 1e-22 to the others.
    # NUDGED gives token 1 a mass one ulp above the others' 0.25, so the sort puts it
    # first; a top-k of 3 renormalizes it and tokens 0 and 2 to the same 1/3.
    SPLIT = np.array([-50.0, 0.0, -50.0, 0.0])
    NUDGED = np.array([-(2.0**-53), 0.0, -(2.0**-53), -(2.0**-53)])
    CASES = [
        (np.zeros(4), SamplerConfig(1.0, 4, 0.5, 0.0), 2, 2, None),  # the cumulative mass meets 0.5 at entry 2
        (np.zeros(8), SamplerConfig(1.0, 4, 0.5, 0.0), 2, 2, None),  # the same after a top-k cut
        (np.zeros(4), SamplerConfig(1.0, 4, 1.0, 0.25), 4, 4, None),  # every mass sits on the floor
        (np.zeros(4), SamplerConfig(1.0, 4, 1.0, 0.3), 4, 1, 0),  # none reach it: a 4-way tie falls to token 0
        (SPLIT, SamplerConfig(1.0, 4, 0.75, 0.6), 2, 1, 1),  # renormalized 0.5, 0.5: token 1 of the tie
        (NUDGED, SamplerConfig(1.0, 3, 1.0, 0.9), 3, 1, 0),  # a 3-way tie whose token 0 sorts second
    ]
    UNIFORMS = [0.0, 0.4, 0.6, BELOW_ONE]

    @classmethod
    def _check(cls, z, cfg, tokens, traces, top_p_count, min_p_count, fallback):
        ref = [reference_run_pipeline(z, cfg, ScriptedStream([u])) for u in cls.UNIFORMS]
        assert tokens == [t for t, _ in ref]
        assert spell_traces(traces, 0) == spell_traces([tr for _, tr in ref], 0)
        final = traces[0].final
        assert [s.survivor_count for s in traces[0].stages[2:]] == [top_p_count, min_p_count]
        if fallback is not None:
            assert (final.index_map.tolist(), final.masses.tolist()) == ([fallback], [1.0])
        elif top_p_count == 2:
            assert traces[0].stages[2].masses.tolist() == [0.5, 0.5]

    @pytest.mark.parametrize("z, cfg, top_p_count, min_p_count, fallback", CASES)
    def test_run_pipeline(self, z, cfg, top_p_count, min_p_count, fallback):
        ours = [run_pipeline(z, cfg, ScriptedStream([u])) for u in self.UNIFORMS]
        self._check(z, cfg, [t for t, _ in ours], [tr for _, tr in ours], top_p_count, min_p_count, fallback)

    @pytest.mark.parametrize("z, cfg, top_p_count, min_p_count, fallback", CASES)
    def test_sample_rows(self, z, cfg, top_p_count, min_p_count, fallback):
        tokens, traces = sample_rows(np.tile(z, (len(self.UNIFORMS), 1)), cfg, np.array(self.UNIFORMS))
        self._check(z, cfg, tokens.tolist(), traces, top_p_count, min_p_count, fallback)


class TestTraceReaderTakesWhatThePipelineWrites:
    """The trace reader refuses much that is well-typed; none of it may be a real trace."""

    @settings(max_examples=300)
    @given(differential_matrices, differential_configs, st.data())
    def test_every_trace_of_both_kernels_reads_back(self, z, cfg, data):
        uniforms = data.draw(st.lists(_uniform, min_size=len(z), max_size=len(z)), label="uniforms")
        with np.errstate(over="ignore"):
            _, traces = sample_rows(z, cfg, None if cfg.temperature == 0.0 else np.array(uniforms))
            _, trace = run_pipeline(z[0], cfg, RandomStream(cfg.seed))
        for t in (*traces, trace):
            assert spell_traces([reread(t)], 0) == spell_traces([t], 0)
