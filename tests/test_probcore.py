"""Probability primitives: softmax, argmax, entropy, renormalization.

Frozen oracle values were computed once with 60-digit decimal arithmetic
(noted inline); everything else is either exact by construction or a hand
count.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from decodelab import (
    MASS_TOL,
    ProbabilityDistribution,
    RandomStream,
    SamplerConfig,
    TokenAlphabet,
    argmax_onehot,
    as_logits,
    default_alphabet,
    entropy,
    min_p_filter,
    run_pipeline,
    softmax,
    top_k_filter,
    top_p_filter,
)
from decodelab.probcore import by_token_index

finite_logits = arrays(
    np.float64,
    st.integers(min_value=2, max_value=40),
    elements=st.floats(min_value=-30.0, max_value=30.0),
)

temperatures = st.floats(min_value=0.05, max_value=50.0)


class TestTokenAlphabet:
    def test_default_has_40_glyphs_with_trailing_eos(self):
        a = default_alphabet()
        assert a.size == 40
        assert a.eos_index == 39
        assert a.eos_glyph == "¶"
        assert len(set(a.symbols)) == 40

    def test_index_lookup(self):
        a = default_alphabet()
        assert a.index_of("a") == 0
        assert a.index_of("9") == 35
        assert a.index_of(" ") == 36
        assert a.index_of("@") is None

    def test_rejects_duplicate_glyphs(self):
        with pytest.raises(ValueError):
            TokenAlphabet(symbols=("a", "b", "a"), eos_index=0)

    def test_rejects_eos_out_of_range(self):
        with pytest.raises(ValueError):
            TokenAlphabet(symbols=("a", "b"), eos_index=2)

    def test_rejects_tiny_alphabet(self):
        with pytest.raises(ValueError):
            TokenAlphabet(symbols=("a",), eos_index=0)


class TestAsLogits:
    def test_accepts_sequences_and_arrays(self):
        np.testing.assert_array_equal(as_logits([1.0, 2.0]), np.array([1.0, 2.0]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            as_logits([0.0, np.nan])
        with pytest.raises(ValueError):
            as_logits([0.0, np.inf])

    def test_rejects_non_vector_shapes(self):
        with pytest.raises(ValueError):
            as_logits(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            as_logits([])


class TestProbabilityDistribution:
    def test_rejects_negative_mass(self):
        with pytest.raises(ValueError):
            ProbabilityDistribution(np.array([1.2, -0.2]), np.array([0, 1]))

    def test_rejects_bad_total(self):
        with pytest.raises(ValueError):
            ProbabilityDistribution(np.array([0.5, 0.4]), np.array([0, 1]))

    def test_rejects_nan_mass(self):
        with pytest.raises(ValueError, match=r"^masses must sum to 1 within 1e-09 \(got nan\)$"):
            ProbabilityDistribution(np.array([np.nan, 0.5]), np.array([0, 1]))

    def test_rejects_duplicate_index_map(self):
        with pytest.raises(ValueError):
            ProbabilityDistribution(np.array([0.5, 0.5]), np.array([1, 1]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ProbabilityDistribution(np.array([]), np.array([], dtype=np.intp))

    def test_restored_orders_by_original_index(self):
        d = ProbabilityDistribution(np.array([0.6, 0.4]), np.array([3, 1]))
        masses, index_map = by_token_index(d.masses, d.index_map)
        np.testing.assert_array_equal(index_map, [1, 3])
        np.testing.assert_allclose(masses, [0.4, 0.6])

    @pytest.mark.parametrize(
        "build",
        [
            lambda m, i: ProbabilityDistribution(m, None),
            lambda m, i: ProbabilityDistribution(m, i),
            lambda m, i: ProbabilityDistribution(m),  # a full distribution: the index map omitted
        ],
        ids=["default-index-map", "given-index-map", "full_distribution"],
    )
    def test_callers_arrays_stay_writeable(self, build):
        masses, index_map = np.array([0.25, 0.75]), np.array([0, 1], dtype=np.int64)
        d = build(masses, index_map)
        assert masses.flags.writeable and index_map.flags.writeable
        assert not d.masses.flags.writeable and not d.index_map.flags.writeable
        masses[0] = 0.5
        assert d.masses[0] == 0.25

    def test_dense_scatters_survivors(self):
        d = ProbabilityDistribution(np.array([0.6, 0.4]), np.array([3, 1]))
        np.testing.assert_allclose(d.dense(5), [0.0, 0.4, 0.0, 0.6, 0.0])
        with pytest.raises(ValueError):
            d.dense(3)


class TestSoftmax:
    def test_uniform_logits_force_uniform_output(self):
        for t in (0.25, 1.0, 7.0):
            np.testing.assert_allclose(softmax([0.0, 0.0, 0.0, 0.0], t).masses, 0.25)

    def test_ln2_example_is_exact(self):
        # exponentials are exactly 2, 1, 1
        p = softmax([math.log(2.0), 0.0, 0.0], 1.0)
        np.testing.assert_allclose(p.masses, [0.5, 0.25, 0.25], atol=1e-15)

    def test_huge_temperature_flattens(self):
        # decimal oracle: p0 - 0.5 = 2.4999999999791666e-06 at T = 1e6
        p = softmax([10.0, 0.0], 1e6)
        assert abs(p.masses[0] - 0.5) < 1e-5
        assert abs(p.masses[0] - 0.5 - 2.5e-6) < 1e-9

    def test_zero_temperature_is_rejected(self):
        with pytest.raises(ValueError, match="argmax"):
            softmax([1.0, 2.0], 0.0)
        with pytest.raises(ValueError):
            softmax([1.0, 2.0], -0.5)

    def test_non_finite_logits_rejected(self):
        with pytest.raises(ValueError):
            softmax([1.0, np.inf], 1.0)

    def test_extreme_logits_stay_finite(self):
        # max subtraction keeps exp() in range at tiny T
        p = softmax([1000.0, 0.0, -1000.0], 0.01)
        assert np.isfinite(p.masses).all()
        assert p.masses[0] == pytest.approx(1.0)

    @given(finite_logits, temperatures)
    def test_normalization(self, z, t):
        assert abs(softmax(z, t).masses.sum() - 1.0) <= MASS_TOL

    @given(finite_logits, temperatures, st.floats(min_value=-100.0, max_value=100.0))
    def test_shift_invariance(self, z, t, c):
        np.testing.assert_allclose(softmax(z + c, t).masses, softmax(z, t).masses, atol=1e-12)

    @given(finite_logits, st.floats(min_value=0.05, max_value=100.0))
    def test_argmax_preservation(self, z, t):
        gaps = np.sort(z)
        assume(gaps[-1] - gaps[-2] >= 1e-6)
        assert argmax_onehot(softmax(z, t)) == int(np.argmax(z))

    @given(finite_logits, st.floats(min_value=0.1, max_value=4.0), st.floats(min_value=1.5, max_value=8.0))
    def test_entropy_grows_with_temperature(self, z, t1, factor):
        assume(np.ptp(z) >= 0.1)
        assert entropy(softmax(z, t1 * factor)) > entropy(softmax(z, t1)) - 1e-12

    @given(finite_logits)
    def test_low_temperature_concentrates_on_max(self, z):
        gaps = np.sort(z)
        assume(gaps[-1] - gaps[-2] >= 0.1)
        p = softmax(z, 1e-4)
        assert p.masses[np.argmax(z)] >= 1.0 - 1e-9


class TestArgmaxOnehot:
    def test_plain_max(self):
        assert argmax_onehot(ProbabilityDistribution([0.1, 0.7, 0.2])) == 1

    def test_tie_breaks_to_lowest_index(self):
        assert argmax_onehot(ProbabilityDistribution([0.5, 0.5])) == 0

    def test_onehot_identity(self):
        masses = np.zeros(40)
        masses[7] = 1.0
        assert argmax_onehot(ProbabilityDistribution(masses)) == 7

    def test_tie_break_uses_original_token_index(self):
        d = ProbabilityDistribution(np.array([0.5, 0.5]), np.array([4, 2]))
        assert argmax_onehot(d) == 2


class TestEntropy:
    def test_onehot_is_zero(self):
        masses = np.zeros(8)
        masses[3] = 1.0
        assert entropy(ProbabilityDistribution(masses)) == 0.0

    def test_uniform_is_log_count(self):
        assert entropy(ProbabilityDistribution([0.25] * 4)) == pytest.approx(math.log(4.0), abs=1e-12)

    def test_direct_summation_oracle(self):
        # analytic: 1.5 * ln 2; decimal oracle 1.0397207708399179
        h = entropy(ProbabilityDistribution([0.5, 0.25, 0.25]))
        assert h == pytest.approx(1.0397207708399179, abs=1e-12)

    @given(finite_logits, temperatures)
    def test_bounds(self, z, t):
        p = softmax(z, t)
        h = entropy(p)
        assert -1e-12 <= h <= math.log(len(p)) + 1e-9

    @staticmethod
    def _masked_product(p):
        """The formula ``entropy`` used before: ``p * ln p`` where p > 0, else 0."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return float(-np.where(p > 0.0, p * np.log(p), 0.0).sum())

    def test_a_final_record_with_zero_masses_keeps_its_bits(self):
        # softmax underflows to exact zeros; in argmax mode its record is the final one
        z = np.array([0.0, -800.0, 3.5, -1e4, 1.25, -745.2, 2.0])
        _, trace = run_pipeline(z, SamplerConfig(0.0, 1), RandomStream(5))
        final = trace.final
        assert final.survivor_count == z.size and (final.masses == 0.0).sum() == 3
        assert entropy(final).hex() == self._masked_product(final.masses).hex()

    @given(arrays(np.float64, st.integers(1, 40), elements=st.sampled_from([0.0, -0.0, 1e-300, 0.5, 1.0, 3.0, 7e10])))
    def test_zero_masses_keep_the_bits_of_the_masked_product(self, weights):
        assume(weights.sum() > 0)
        p = ProbabilityDistribution(weights / weights.sum())
        assert entropy(p).hex() == self._masked_product(p.masses).hex()


class TestRenormalize:
    """Each truncation stage divides its kept prefix by that prefix's sum."""

    def test_exact_rational_oracle(self):
        p = top_k_filter(ProbabilityDistribution([0.4, 0.3, 0.3]), 2)
        np.testing.assert_allclose(p.masses, [4.0 / 7.0, 3.0 / 7.0], atol=1e-12)

    def test_idempotent_on_normalized_input(self):
        d = ProbabilityDistribution([0.75, 0.25])
        for kept in (top_k_filter(d, 2), top_p_filter(d, 1.0), min_p_filter(d, 0.25)):
            np.testing.assert_array_equal(kept.masses, [0.75, 0.25])

    def test_single_survivor(self):
        for kept in (top_k_filter(ProbabilityDistribution([0.5, 0.3, 0.2]), 1),
                     min_p_filter(ProbabilityDistribution([0.5, 0.3, 0.2]), 0.4)):
            assert kept.masses[0] == 1.0

    def test_preserves_index_map(self):
        p = top_k_filter(ProbabilityDistribution(np.array([0.4, 0.4, 0.2]), np.array([9, 4, 1])), 2)
        np.testing.assert_array_equal(p.index_map, [9, 4])
        np.testing.assert_array_equal(p.masses, [0.5, 0.5])
