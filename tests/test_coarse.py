import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sarsizer.adc import AdcConfig, DesignPoint, build_model, sample_input
from sarsizer.coarse import (
    POWER_GRID_POINTS,
    evaluate_coarse,
    power_estimate,
    power_grid,
    step_ratio_errors,
    thermal_noise_estimate,
)
from sarsizer.errors import SpecError
from sarsizer.pipeline import default_bounds
from sarsizer.specs import DerivedSpecs

from conftest import convert_one, ideal_design, sane_design

BOLTZMANN = 1.380649e-23


def design_with(**overrides):
    base = sane_design().to_dict()
    base.update(overrides)
    return DesignPoint(**base)


class TestSinglePoint:
    """The single-point fields of the coarse report: the noise-free
    conversion with the differential input at the supply."""

    def test_ideal_model_is_error_free(self):
        cfg = AdcConfig(n_bits=10, f_s=1e6, v_dd=1.0)
        m = build_model(ideal_design(), cfg)
        rep = evaluate_coarse(m, DerivedSpecs.derive(10, 1.0, 1.0))
        assert rep.sampling_error == 0.0
        assert np.all(rep.ssre == 0.0)
        assert rep.timing_ok

    def test_step_ratio_error_hand_values(self):
        # adjacent relative step errors of 1% and 0%
        steps = np.array([2.0 * 1.01, 1.0, 0.5])
        ssre = step_ratio_errors(steps)
        assert ssre[0] == pytest.approx(abs(2 * 1.01 - 2.0), rel=1e-12)
        # equal relative errors cancel in the ratio
        steps = np.array([2.0 * 1.01, 1.0 * 1.01, 0.5])
        assert step_ratio_errors(steps)[0] == pytest.approx(0.0, abs=1e-15)

    def test_ssre_matches_relative_error_form(self):
        cfg = AdcConfig(n_bits=12, f_s=20e6, v_dd=1.0, r_drv_cap=150.0)
        m = build_model(sane_design(), cfg)
        ssre = evaluate_coarse(m, DerivedSpecs.derive(12, 1.0, 1.0)).ssre
        trace = convert_one(m, sample_input(m, 1.0))
        delta = trace.applied_step / m.step_amp - 1.0
        expected = np.abs(2.0 * (1.0 + delta[:-1]) / (1.0 + delta[1:]) - 2.0)
        np.testing.assert_allclose(ssre, expected, rtol=1e-12)

    def test_repeated_calls_identical(self):
        cfg = AdcConfig(n_bits=12, f_s=20e6, v_dd=1.0, r_drv_cap=150.0)
        m = build_model(sane_design(), cfg)
        specs = DerivedSpecs.derive(12, 1.0, 1.0)
        a = evaluate_coarse(m, specs)
        b = evaluate_coarse(m, specs)
        assert a.sampling_error == b.sampling_error
        np.testing.assert_array_equal(a.ssre, b.ssre)

    def test_dead_steps_get_finite_sentinel(self):
        steps = np.array([1.0, 0.0, 0.25])
        ssre = step_ratio_errors(steps)
        assert np.all(np.isfinite(ssre))
        assert ssre[0] > 1e6 and ssre[1] > 1e6


class TestThermalNoise:
    def test_kt_c_only(self):
        cfg = AdcConfig(n_bits=12, f_s=1e6, v_dd=1.0, temp_k=300.0)
        m = build_model(
            design_with(c_unit=1e-12 / 2**11, sigma_cmp=1e-30), cfg
        )
        expected = math.sqrt(2 * BOLTZMANN * 300.0 / 1e-12)
        assert thermal_noise_estimate(m) == pytest.approx(expected, rel=1e-12)
        assert thermal_noise_estimate(m) == pytest.approx(91.0e-6, abs=0.1e-6)

    def test_both_contributions(self):
        cfg = AdcConfig(n_bits=12, f_s=1e6, v_dd=1.0, temp_k=300.0)
        m = build_model(
            design_with(c_unit=1e-12 / 2**11, sigma_cmp=100e-6), cfg
        )
        expected = math.sqrt(2 * BOLTZMANN * 300.0 / 1e-12 + (100e-6) ** 2)
        assert thermal_noise_estimate(m) == pytest.approx(expected, rel=1e-12)
        assert thermal_noise_estimate(m) == pytest.approx(135.2e-6, abs=0.1e-6)

    def test_comparator_dominates_large_capacitance(self):
        cfg = AdcConfig(n_bits=12, f_s=1e6, v_dd=1.0)
        m = build_model(design_with(c_unit=1.0, sigma_cmp=123e-6), cfg)
        assert thermal_noise_estimate(m) == pytest.approx(123e-6, rel=1e-6)


class TestPower:
    def test_grid_shape(self):
        cfg = AdcConfig(n_bits=8, f_s=1e6, v_dd=1.0)
        m = build_model(sane_design(), cfg)
        grid = power_grid(m)
        assert len(grid) == POWER_GRID_POINTS
        assert grid[0] == -0.5 and grid[-1] == 0.5

    def test_vanishing_energy_sources(self):
        cfg = AdcConfig(n_bits=8, f_s=1e6, v_dd=1.0)
        m = build_model(design_with(c_unit=1e-30), cfg)
        assert power_estimate(m) < 1e-20

    def test_power_scales_with_rate(self):
        lo = AdcConfig(n_bits=8, f_s=1e6, v_dd=1.0)
        hi = AdcConfig(n_bits=8, f_s=2e6, v_dd=1.0)
        d = ideal_design(t_sample=1e-9)
        assert power_estimate(build_model(d, hi)) == pytest.approx(
            2.0 * power_estimate(build_model(d, lo)), rel=1e-12
        )

    def test_known_per_conversion_energy(self):
        # switch-driver term engineered to 10 pJ/conversion, everything
        # else off: 10 uW at 1 MS/s
        cfg = AdcConfig(n_bits=8, f_s=1e6, v_dd=1.0, kappa_sw=10e-12 * 500.0)
        m = build_model(design_with(c_unit=1e-30, r_sw=500.0), cfg)
        assert power_estimate(m) == pytest.approx(10e-6, rel=1e-9)


class TestEvaluateCoarse:
    def cfg12(self):
        return AdcConfig(n_bits=12, f_s=20e6, v_dd=1.0, r_drv_cap=150.0)

    def test_slack_layout_and_arithmetic(self):
        specs = DerivedSpecs.derive(12, 1.0, 1.0)
        rep = evaluate_coarse(build_model(sane_design(), self.cfg12()), specs)
        assert len(rep.slack) == (12 - 1) + 2 + 1
        np.testing.assert_array_equal(rep.slack[:11], specs.ssre_bound - rep.ssre)
        assert rep.slack[11] == specs.sampling_bound - rep.sampling_error
        assert rep.slack[12] == specs.noise_bound - rep.noise_rms
        assert rep.slack[13] == (1.0 if rep.timing_ok else -1.0)
        assert rep.power >= 0.0

    def test_boundary_slack_is_zero(self):
        specs = DerivedSpecs.derive(12, 1.0, 1.0)
        # measured value exactly at the bound leaves zero margin
        assert specs.sampling_bound - specs.sampling_bound == 0.0

    def test_violated_sampling_slack_value(self):
        # 5-tau sampling: error = exp(-5) V against the 12-bit budget
        specs = DerivedSpecs.derive(12, 1.0, 1.0)
        cfg = AdcConfig(n_bits=12, f_s=1e6, v_dd=1.0)
        m = build_model(
            design_with(c_unit=2e-12 / 2**11, r_sw=1e3, t_sample=10e-9), cfg
        )
        rep = evaluate_coarse(m, specs)
        assert rep.sampling_error == pytest.approx(6.7379e-3, rel=1e-4)
        slack = rep.slack[11]
        assert slack == pytest.approx(7.048e-5 - 6.7379e-3, rel=1e-4)
        assert slack == pytest.approx(-6.667e-3, rel=1e-3)
        assert not rep.feasible

    def test_resolution_mismatch_rejected(self):
        specs = DerivedSpecs.derive(10, 1.0, 1.0)
        with pytest.raises(SpecError):
            evaluate_coarse(build_model(sane_design(), self.cfg12()), specs)

    def test_ideal_model_feasible_except_power(self):
        specs = DerivedSpecs.derive(12, 1.0, 1.0)
        cfg = AdcConfig(n_bits=12, f_s=1e6, v_dd=1.0)
        m = build_model(ideal_design(t_sample=100e-9), cfg)
        rep = evaluate_coarse(m, specs)
        assert rep.feasible

    def test_slack_signs_agree_with_bounds_on_random_models(self):
        rng = np.random.default_rng(42)
        specs = DerivedSpecs.derive(8, 1.0, 1.0)
        cfg = AdcConfig(n_bits=8, f_s=1e6, v_dd=1.0)
        for _ in range(1000):
            d = DesignPoint(
                c_unit=10 ** rng.uniform(-15.5, -13.5),
                r_sw=10 ** rng.uniform(1.5, 4.0),
                t_sample=10 ** rng.uniform(-8.0, -6.5),
                sigma_cmp=10 ** rng.uniform(-5.5, -2.5),
                t_d0=10 ** rng.uniform(-11.0, -8.5),
                tau_reg=10 ** rng.uniform(-11.5, -9.0),
                r_drv_msb=10 ** rng.uniform(1.5, 4.0),
                t_dff=10 ** rng.uniform(-10.0, -8.0),
            )
            rep = evaluate_coarse(build_model(d, cfg), specs)
            assert np.all((rep.slack[:7] > 0) == (rep.ssre < specs.ssre_bound))
            assert (rep.slack[7] > 0) == (rep.sampling_error < specs.sampling_bound)
            assert (rep.slack[8] > 0) == (rep.noise_rms < specs.noise_bound)
            assert (rep.slack[9] > 0) == rep.timing_ok


class TestBatchedEvaluation:
    CONFIGS = {
        4: AdcConfig(n_bits=4, f_s=1e6, v_dd=1.0, kappa_cmp=1e-25, kappa_sw=1e-13, e_dff=1e-15),
        8: AdcConfig(n_bits=8, f_s=1e6, v_dd=1.0, kappa_cmp=1e-25, kappa_sw=1e-13, e_dff=1e-15),
        12: AdcConfig(n_bits=12, f_s=20e6, v_dd=1.0, kappa_cmp=1e-25, kappa_sw=1e-13,
                      e_dff=1e-15, r_drv_cap=150.0),
    }

    @settings(max_examples=30, deadline=None)
    @given(
        n_bits=st.sampled_from(sorted(CONFIGS)),
        unit=st.lists(
            st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8), min_size=1, max_size=6
        ),
    )
    def test_many_candidates_equal_batches_of_one(self, n_bits, unit):
        """Each report of a many-candidate call equals its own batch-of-one
        report bit for bit: rows never interact in the kernel."""
        cfg = self.CONFIGS[n_bits]
        bounds = default_bounds(cfg)
        models = [
            build_model(DesignPoint(**{
                name: lo * (hi / lo) ** u for (name, (lo, hi)), u in zip(bounds.items(), row)
            }), cfg)
            for row in unit
        ]
        specs = DerivedSpecs.derive(n_bits, cfg.v_dd, 1.0)
        many = evaluate_coarse(models, specs)
        assert len(many) == len(models)
        for m, rep in zip(models, many):
            one = evaluate_coarse(m, specs)
            assert rep.power == one.power
            assert rep.sampling_error == one.sampling_error
            assert rep.timing_ok == one.timing_ok
            np.testing.assert_array_equal(rep.ssre, one.ssre)
            np.testing.assert_array_equal(rep.slack, one.slack)
            assert one.power == power_estimate(m)
            sampled = sample_input(m, cfg.v_dd)
            assert one.sampling_error == abs(cfg.v_dd - sampled)
            assert one.timing_ok == convert_one(m, sampled).timing_ok
