import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sarsizer import coarse
from sarsizer.adc import (AdcConfig, DesignPoint, build_model, conversion_keys, sample_input,
                         sampling_constants)
from sarsizer.coarse import (
    POWER_GRID_POINTS,
    evaluate_coarse,
    power_estimate,
    power_grid,
    step_ratio_errors,
)
from sarsizer.errors import BoundsError, SpecError
from sarsizer.pipeline import default_bounds
from sarsizer.problem import CoarseProblem, bounds_array
from sarsizer.specs import DerivedSpecs

from conftest import convert_one, ideal_design, sane_design

BOLTZMANN = 1.380649e-23


def design_with(**overrides):
    base = sane_design().to_dict()
    base.update(overrides)
    return DesignPoint(**base)


def report(model, specs):
    """One model's coarse report: its row of a one-design batch."""
    return evaluate_coarse(model.cfg, model.row, specs).row(0)


def noise_rms(model):
    """One model's total rms noise, as its coarse report measures it."""
    return report(model, DerivedSpecs.derive(model.cfg.n_bits, model.cfg.v_dd, 1.0)).noise_rms


class TestSinglePoint:
    """The single-point fields of the coarse report: the noise-free
    conversion with the differential input at the supply."""

    def test_ideal_model_is_error_free(self):
        cfg = AdcConfig(n_bits=10, f_s=1e6, v_dd=1.0)
        m = build_model(ideal_design(), cfg)
        rep = report(m, DerivedSpecs.derive(10, 1.0, 1.0))
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
        ssre = report(m, DerivedSpecs.derive(12, 1.0, 1.0)).ssre
        trace = convert_one(m, sample_input(cfg, m.row, 1.0)[0, 0])
        delta = trace.applied_step / m.cfg.step_amp - 1.0
        expected = np.abs(2.0 * (1.0 + delta[:-1]) / (1.0 + delta[1:]) - 2.0)
        np.testing.assert_allclose(ssre, expected, rtol=1e-12)

    def test_repeated_calls_identical(self):
        cfg = AdcConfig(n_bits=12, f_s=20e6, v_dd=1.0, r_drv_cap=150.0)
        m = build_model(sane_design(), cfg)
        specs = DerivedSpecs.derive(12, 1.0, 1.0)
        a = report(m, specs)
        b = report(m, specs)
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
        assert noise_rms(m) == pytest.approx(expected, rel=1e-12)
        assert noise_rms(m) == pytest.approx(91.0e-6, abs=0.1e-6)

    def test_both_contributions(self):
        cfg = AdcConfig(n_bits=12, f_s=1e6, v_dd=1.0, temp_k=300.0)
        m = build_model(
            design_with(c_unit=1e-12 / 2**11, sigma_cmp=100e-6), cfg
        )
        expected = math.sqrt(2 * BOLTZMANN * 300.0 / 1e-12 + (100e-6) ** 2)
        assert noise_rms(m) == pytest.approx(expected, rel=1e-12)
        assert noise_rms(m) == pytest.approx(135.2e-6, abs=0.1e-6)

    def test_comparator_dominates_large_capacitance(self):
        cfg = AdcConfig(n_bits=12, f_s=1e6, v_dd=1.0)
        m = build_model(design_with(c_unit=1.0, sigma_cmp=123e-6), cfg)
        assert noise_rms(m) == pytest.approx(123e-6, rel=1e-6)


class TestPower:
    def test_grid_shape(self):
        cfg = AdcConfig(n_bits=8, f_s=1e6, v_dd=1.0)
        m = build_model(sane_design(), cfg)
        grid = power_grid(m.cfg)
        assert len(grid) == POWER_GRID_POINTS
        assert grid[0] == -0.5 and grid[-1] == 0.5

    def test_vanishing_energy_sources(self):
        cfg = AdcConfig(n_bits=8, f_s=1e6, v_dd=1.0, kappa_cmp=0.0, kappa_sw=0.0, e_dff=0.0)
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
        cfg = AdcConfig(n_bits=8, f_s=1e6, v_dd=1.0, kappa_cmp=0.0, kappa_sw=10e-12 * 500.0,
                        e_dff=0.0)
        m = build_model(design_with(c_unit=1e-30, r_sw=500.0), cfg)
        assert power_estimate(m) == pytest.approx(10e-6, rel=1e-9)


class TestEvaluateCoarse:
    def cfg12(self):
        return AdcConfig(n_bits=12, f_s=20e6, v_dd=1.0, r_drv_cap=150.0)

    def test_slack_layout_and_arithmetic(self):
        specs = DerivedSpecs.derive(12, 1.0, 1.0)
        rep = report(build_model(sane_design(), self.cfg12()), specs)
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
        rep = report(m, specs)
        assert rep.sampling_error == pytest.approx(6.7379e-3, rel=1e-4)
        slack = rep.slack[11]
        assert slack == pytest.approx(7.048e-5 - 6.7379e-3, rel=1e-4)
        assert slack == pytest.approx(-6.667e-3, rel=1e-3)
        assert not rep.feasible

    def test_resolution_mismatch_rejected(self):
        specs = DerivedSpecs.derive(10, 1.0, 1.0)
        with pytest.raises(SpecError):
            report(build_model(sane_design(), self.cfg12()), specs)

    def test_ideal_model_feasible_except_power(self):
        specs = DerivedSpecs.derive(12, 1.0, 1.0)
        cfg = AdcConfig(n_bits=12, f_s=1e6, v_dd=1.0)
        m = build_model(ideal_design(t_sample=100e-9), cfg)
        rep = report(m, specs)
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
            rep = report(build_model(d, cfg), specs)
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
        batch = evaluate_coarse(cfg, np.vstack([m.row for m in models]), specs)
        assert len(batch.power) == len(models)
        for c, m in enumerate(models):
            rep, one = batch.row(c), report(m, specs)
            assert rep.power == one.power
            assert rep.sampling_error == one.sampling_error
            assert rep.timing_ok == one.timing_ok
            np.testing.assert_array_equal(rep.ssre, one.ssre)
            np.testing.assert_array_equal(rep.slack, one.slack)
            kt_c, sigma_cmp = float(sampling_constants(cfg, m.row)[1][0]), float(m.row[0, 3])
            assert rep.noise_rms == one.noise_rms == math.sqrt(kt_c**2 + sigma_cmp**2)
            assert one.power == power_estimate(m)
            sampled = sample_input(cfg, m.row, cfg.v_dd)[0, 0]
            assert one.sampling_error == abs(cfg.v_dd - sampled)
            assert one.timing_ok == convert_one(m, sampled).timing_ok


class TestBatchBoundsCheck:
    """A batch with an out-of-bounds, zero or NaN entry fails as a whole,
    before any kernel call, naming the first offending row and field."""

    @pytest.mark.parametrize("value, rule", [
        (1e9, r"=1000000000.0 outside bounds \["),
        (0.0, " must be strictly positive, got 0.0"),
        (math.nan, " must be strictly positive, got nan"),
    ], ids=["out_of_bounds", "zero", "nan"])
    def test_first_bad_entry_named_before_any_kernel_call(self, value, rule, monkeypatch):
        cfg = AdcConfig(n_bits=8, f_s=1e6, v_dd=1.0)
        bounds = default_bounds(cfg)
        problem = CoarseProblem(cfg, DerivedSpecs.derive(8, 1.0, 1.0), bounds)
        xs = np.tile(bounds_array(bounds).mean(axis=1), (5, 1))
        xs[2, 7] = xs[3, 0] = xs[4, 1] = value  # row 2's t_dff comes first
        calls, original = [], coarse.convert_rows

        def counted(cfg, designs, *args, **kwargs):
            calls.append(len(designs))
            return original(cfg, designs, *args, **kwargs)

        monkeypatch.setattr(coarse, "convert_rows", counted)
        with pytest.raises(BoundsError, match=f"^row 2: t_dff{rule}"):
            problem.evaluate_batch(xs)
        with pytest.raises(BoundsError, match=f"^c_unit{rule}"):
            problem.report(xs[3])  # one design: no row to name
        assert calls == []
        problem.evaluate_batch(xs[:2])  # the rows before it pass
        assert calls == [2]

    def test_memo_hit_still_checked(self, monkeypatch):
        """A row whose conversion the memo holds, but whose sigma_cmp is out
        of bounds, still fails before any kernel call."""
        cfg = AdcConfig(n_bits=8, f_s=1e6, v_dd=1.0)
        bounds = default_bounds(cfg)
        box = bounds_array(bounds)
        specs = DerivedSpecs.derive(8, 1.0, 1.0)
        x = box.mean(axis=1)
        memo = {}
        evaluate_coarse(cfg, x[None], specs, box, memo)
        calls, original = [], coarse.convert_rows
        monkeypatch.setattr(coarse, "convert_rows",
                            lambda *args, **kwargs: calls.append(1) or original(*args, **kwargs))
        loud = np.vstack([x, x])
        loud[1, 3] = 10.0 * box[3, 1]  # sigma_cmp
        assert conversion_keys(loud[1:]) == list(memo)
        with pytest.raises(BoundsError, match=r"^row 1: sigma_cmp=.* outside bounds \["):
            evaluate_coarse(cfg, loud, specs, box, memo)
        assert calls == [] and len(memo) == 1


def report_fields(rep):
    """Each field of a CoarseReport as (dtype, shape, bytes)."""
    return {name: (a.dtype, a.shape, np.ascontiguousarray(a).tobytes())
            for name, a in vars(rep).items()}


class TestConversionMemo:
    """evaluate_coarse with a caller's memo reports what the memo-free call
    reports, bit for bit, and converts each distinct key once."""

    CONFIGS = TestBatchedEvaluation.CONFIGS

    @settings(max_examples=40, deadline=None)
    @given(n_bits=st.sampled_from([8, 12]), data=st.data())
    def test_memo_equals_memo_free_call(self, n_bits, data):
        cfg = self.CONFIGS[n_bits]
        bounds = default_bounds(cfg)
        box = bounds_array(bounds)
        lo, hi = box[:, 0], box[:, 1]
        specs = DerivedSpecs.derive(n_bits, cfg.v_dd, 1.0)
        unit = st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8)
        pool = lo * (hi / lo) ** np.array(data.draw(st.lists(unit, min_size=1, max_size=4)))
        # A batch row: a pool design, one field (mostly sigma_cmp) kept or
        # replaced in bounds.  Rows repeat, within a batch and across them.
        picks = st.tuples(st.integers(0, len(pool) - 1), st.just(3) | st.integers(0, 7),
                          st.none() | st.floats(0.0, 1.0))
        memo, seen = {}, set()
        for batch in data.draw(st.lists(st.lists(picks, min_size=1, max_size=6),
                                        min_size=1, max_size=4)):
            xs = pool[[c for c, _, _ in batch]]
            for row, (_, j, u) in zip(xs, batch):
                if u is not None:
                    row[j] = lo[j] * (hi[j] / lo[j]) ** u
            seen.update(conversion_keys(xs))
            got = evaluate_coarse(cfg, xs, specs, box, memo)
            assert report_fields(got) == report_fields(evaluate_coarse(cfg, xs, specs, box))
            assert set(memo) == seen  # each distinct key stored once
            assert all(row.shape == (n_bits + 2 + 2 * POWER_GRID_POINTS,)
                       and row.dtype == np.float64 for row in memo.values())

    def test_known_keys_make_no_kernel_call(self, monkeypatch):
        cfg = self.CONFIGS[8]
        box = bounds_array(default_bounds(cfg))
        specs = DerivedSpecs.derive(8, cfg.v_dd, 1.0)
        xs = np.tile(box.mean(axis=1), (6, 1))
        xs[:, 3] = np.linspace(box[3, 0], box[3, 1], 6)  # sigma_cmp only
        xs[5, 0] = box[0, 0]  # a second key
        calls, original = [], coarse.convert_rows

        def counted(cfg, designs, v_sampled, **kwargs):
            calls.append(len(v_sampled) // (1 + POWER_GRID_POINTS))
            return original(cfg, designs, v_sampled, **kwargs)

        monkeypatch.setattr(coarse, "convert_rows", counted)
        memo = {}
        evaluate_coarse(cfg, xs, specs, box, memo)
        assert calls == [2] and len(memo) == 2
        evaluate_coarse(cfg, xs[::-1], specs, box, memo)
        assert calls == [2]


@settings(max_examples=40, deadline=None)
@given(n_bits=st.sampled_from([8, 12]),
       unit=st.lists(st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8), min_size=2,
                     max_size=5))
def test_one_design_grid_power_equals_its_batch_row(n_bits, unit):
    """grid_power of one design (0-d sigma_cmp and r_sw) equals its row of
    a many-design call (a column per design), bit for bit."""
    cfg = TestBatchedEvaluation.CONFIGS[n_bits]
    box = bounds_array(default_bounds(cfg))
    lo, hi = box[:, 0], box[:, 1]
    designs = lo * (hi / lo) ** np.array(unit)
    conv = coarse.convert(cfg, designs)
    many = coarse.grid_power(cfg, designs, conv.q_ref, conv.n_fired)
    for c in range(len(designs)):
        one = coarse.convert(cfg, designs[c:c + 1])
        alone = coarse.grid_power(cfg, designs[c:c + 1], one.q_ref, one.n_fired)
        assert alone.tobytes() == many[c:c + 1].tobytes()
