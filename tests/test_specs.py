import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sarsizer.errors import SpecError
from sarsizer.specs import (
    DerivedSpecs,
    derive_noise_bound,
    derive_sampling_bound,
    derive_sndr_ceiling,
    derive_ssre_bounds,
)

from conftest import per_bit_error_budget


class TestSsreBounds:
    def test_n12_last_pair_is_one_twelfth(self):
        bounds = derive_ssre_bounds(12, 1.0)
        assert bounds[-1] == pytest.approx(1.0 / 12.0, rel=1e-12)

    def test_n12_first_pair(self):
        bounds = derive_ssre_bounds(12, 1.0)
        # 1 / (2**10 * sqrt(144))
        assert bounds[0] == pytest.approx(1.0 / (1024.0 * 12.0), rel=1e-12)

    def test_adjacent_bounds_double(self):
        bounds = derive_ssre_bounds(9, 1.0)
        np.testing.assert_allclose(bounds[1:] / bounds[:-1], 2.0, rtol=1e-12)

    def test_alpha_linearity(self):
        np.testing.assert_allclose(
            derive_ssre_bounds(12, 2.0), 2.0 * derive_ssre_bounds(12, 1.0), rtol=0
        )

    def test_rejects_small_n(self):
        with pytest.raises(SpecError):
            derive_ssre_bounds(1, 1.0)


class TestVoltageBounds:
    @pytest.mark.parametrize(
        "n,expected",
        [(12, 7.048e-5), (7, 2.255e-3)],
    )
    def test_sampling_bound_values(self, n, expected):
        got = derive_sampling_bound(n, 1.0, 1.0)
        oracle = 1.0 / (2**n * math.sqrt(12.0))
        assert got == pytest.approx(oracle, rel=1e-12)
        assert got == pytest.approx(expected, rel=1e-3)

    def test_alpha_scales_sampling_bound(self):
        assert derive_sampling_bound(12, 1.0, 2.0) == pytest.approx(
            2.0 * derive_sampling_bound(12, 1.0, 1.0), rel=0
        )

    def test_noise_bound_equals_sampling_bound(self):
        for n in (7, 12):
            assert derive_noise_bound(n, 1.0, 1.0) == derive_sampling_bound(n, 1.0, 1.0)

    def test_zero_alpha_rejected(self):
        with pytest.raises(SpecError):
            derive_sampling_bound(12, 1.0, 0.0)

    @given(
        n=st.integers(min_value=2, max_value=16),
        alpha=st.floats(min_value=1e-3, max_value=10.0, allow_nan=False),
    )
    def test_bounds_scale_linearly_in_alpha(self, n, alpha):
        base = derive_sampling_bound(n, 1.0, 1.0)
        assert derive_sampling_bound(n, 1.0, alpha) == pytest.approx(
            alpha * base, rel=1e-12
        )


class TestSndrCeiling:
    def test_values(self):
        assert derive_sndr_ceiling(12) == pytest.approx(67.99, abs=1e-9)
        assert derive_sndr_ceiling(7) == pytest.approx(37.89, abs=1e-9)

    def test_per_bit_increment(self):
        for n in range(2, 16):
            assert derive_sndr_ceiling(n + 1) - derive_sndr_ceiling(n) == pytest.approx(
                6.02, abs=1e-9
            )


class TestBudgetIdentities:
    @pytest.mark.parametrize("n", range(2, 17))
    def test_error_power_reconstruction(self, n):
        # With equal per-bit budgets, the error-voltage powers must add up
        # to exactly the quantization noise power.
        lsb = 1.0 / 2**n
        delta = per_bit_error_budget(n)
        i = np.arange(1, n + 1)
        v_err = 2.0 ** (n - i) * lsb * delta
        total = float(np.sum(v_err**2))
        assert total == pytest.approx(lsb**2 / 12.0, rel=1e-12)

    def test_four_equal_terms_sum_exactly(self):
        for lsb in (1.0 / 4096.0, 0.3, 7.25e-4):
            assert 4.0 * (lsb**2 / 12.0) == lsb**2 / 3.0

    @pytest.mark.parametrize("n", range(2, 17))
    def test_ratio_error_approximation_quality(self, n):
        # The closed-form bound is the first-order approximation of the
        # exact adjacent-step ratio error; its relative error is exactly
        # delta_{i+1}/(1+delta_{i+1}), so agreement is within 1% wherever
        # the budget keeps delta_{i+1} below 1/99 (every pair except the
        # last few LSB pairs).
        delta = per_bit_error_budget(n)
        closed = derive_ssre_bounds(n, 1.0)
        for i in range(n - 1):
            exact = abs(2.0 * (1.0 + delta[i]) / (1.0 + delta[i + 1]) - 2.0)
            rel_err = abs(exact - closed[i]) / closed[i]
            # identity precision is limited by cancellation in `exact`
            assert rel_err == pytest.approx(
                delta[i + 1] / (1.0 + delta[i + 1]), rel=1e-5, abs=1e-9
            )
            if delta[i + 1] < 1.0 / 99.0:
                assert rel_err < 0.01


class TestDerivedSpecs:
    def test_bundle_consistency(self):
        specs = DerivedSpecs.derive(12, 1.0, 1.0)
        assert specs.lsb == 1.0 / 4096.0
        assert specs.sampling_bound == derive_sampling_bound(12, 1.0, 1.0)
        assert specs.sndr_ceiling == derive_sndr_ceiling(12)
        assert len(specs.ssre_bound) == 11
        assert len(specs.constraint_labels()) == 11 + 3

    def test_json_round_trip(self):
        specs = DerivedSpecs.derive(8, 1.2, 1.5)
        loaded = json.loads(json.dumps(specs.to_dict(), sort_keys=True))
        assert loaded["alpha"] == 1.5
        assert loaded["ssre_bound"] == specs.ssre_bound.tolist()

    def test_rejects_bad_supply(self):
        with pytest.raises(SpecError):
            DerivedSpecs.derive(8, -1.0, 1.0)
