import math
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sarsizer.adc import (DESIGN_FIELDS, AdcConfig, DesignPoint, build_model, convert_rows,
                          kernel_out, sample_input, sampling_constants)
import sarsizer.coarse
from sarsizer.coarse import POWER_GRID_POINTS, evaluate_coarse, power_estimate
from sarsizer.errors import BoundsError, MetricsError, PlanError
from sarsizer.local_opt import LocalParams, run_local
from sarsizer.pipeline import default_bounds
from sarsizer.problem import ExpensiveObjective, bounds_array
from sarsizer.rng import noise_matrix
from sarsizer.specs import DerivedSpecs
import sarsizer.sndr
from sarsizer.sndr import (
    TestPlan,
    block_stimulus,
    capture_inputs,
    enob_from_sndr,
    fom_schreier,
    fom_walden,
    plan_test,
    run_segments,
    run_segments_detailed,
    sine_test,
    spectrum_metrics,
    write_capture_csv,
    write_spectrum_csv,
)

from conftest import convert_one, ideal_design, ideal_quantizer, sane_design


def equivalence_check(model, plan, noise=True):
    """True iff the segmented capture is code-identical to a full-rate one."""
    merged = run_segments(model, plan, noise=noise)
    full = run_segments(model, replace(plan, m_segments=1), noise=noise)
    return bool(np.array_equal(merged, full))


def make_plan(**kw):
    args = dict(f_s=20e6, k_points=1024, m_segments=4, f_target=2e6, amplitude=0.475)
    args.update(kw)
    return plan_test(**args)


class TestPlanTest:
    def test_trivial_sixteenth(self):
        plan = plan_test(16e6, 16, 4, 1e6, 0.5)
        assert plan.j_cycles == 1
        assert plan.f_in == 1e6

    def test_nearest_odd_selection(self):
        # 1024 * 2 MHz / 20 MHz = 102.4 -> nearest odd is 103
        plan = make_plan()
        assert plan.j_cycles == 103
        assert plan.f_in == pytest.approx(103 / 1024 * 20e6, rel=0)

    def test_tie_goes_to_smaller(self):
        # target ratio exactly 102: candidates 101/103 equidistant
        plan = plan_test(20e6, 1024, 4, 102.0 / 1024.0 * 20e6, 0.475)
        assert plan.j_cycles == 101

    def test_nyquist_and_dc_rejected(self):
        with pytest.raises(PlanError):
            plan_test(20e6, 1024, 4, 10e6, 0.475)
        with pytest.raises(PlanError):
            plan_test(20e6, 1024, 4, 0.0, 0.475)

    def test_no_valid_cycle_count(self):
        # any power-of-two K >= 4 admits J=1, so only degenerate captures fail
        with pytest.raises(PlanError):
            plan_test(20e6, 2, 1, 0.4e6, 0.475)
        plan = plan_test(20e6, 4, 1, 0.9e6, 0.475)
        assert plan.j_cycles == 1

    def test_plan_invariants(self):
        for k in (16, 64, 1024):
            for target in (0.013, 0.11, 0.31, 0.49):
                plan = plan_test(1e6, k, 4 if k > 4 else 1, target * 1e6, 0.4)
                assert plan.j_cycles % 2 == 1
                assert math.gcd(plan.j_cycles, k) == 1
                assert plan.f_in < 0.5e6

    @given(
        k_exp=st.integers(min_value=4, max_value=13),
        frac=st.floats(min_value=0.01, max_value=0.49),
    )
    @settings(max_examples=60, deadline=None)
    def test_planned_tone_is_coherent(self, k_exp, frac):
        k = 2**k_exp
        plan = plan_test(1e6, k, 1, frac * 1e6, 0.4)
        assert math.gcd(plan.j_cycles, k) == 1
        assert 0 < plan.j_cycles < k // 2

    def test_validation(self):
        with pytest.raises(PlanError):
            TestPlan(k_points=100, j_cycles=3, m_segments=4, f_s=1e6, amplitude=0.4)
        with pytest.raises(PlanError):
            TestPlan(k_points=64, j_cycles=4, m_segments=4, f_s=1e6, amplitude=0.4)
        with pytest.raises(PlanError):
            TestPlan(k_points=64, j_cycles=3, m_segments=5, f_s=1e6, amplitude=0.4)

    @pytest.mark.parametrize("name, value", [
        ("f_s", math.nan), ("f_s", math.inf), ("amplitude", math.nan), ("amplitude", math.inf),
    ])
    def test_nonfinite_rate_and_amplitude_rejected(self, name, value):
        # A NaN amplitude used to load and convert to all-zero codes.
        args = dict(k_points=64, j_cycles=3, m_segments=4, f_s=1e6, amplitude=0.4)
        with pytest.raises(PlanError, match=f"{name} must be finite and positive"):
            TestPlan(**{**args, name: value})

    @pytest.mark.parametrize("seed", [-1, 2**64, True, 7.0])
    def test_seed_outside_key_range_rejected(self, seed):
        with pytest.raises(PlanError, match="seed"):
            TestPlan(k_points=64, j_cycles=3, m_segments=4, f_s=1e6, amplitude=0.4, seed=seed)

    @pytest.mark.parametrize("seed", [np.int64(3), np.uint64(3)])
    def test_numpy_integer_seed_stored_as_int(self, seed):
        plan = plan_test(1e6, 64, 4, 0.1e6, 0.4, seed=seed)
        assert type(plan.seed) is int and plan == plan_test(1e6, 64, 4, 0.1e6, 0.4, seed=3)


def counting_noise(monkeypatch):
    """Record the indices of every noise draw a capture makes."""
    calls = []

    def counted(seed, indices, n_bits, **kwargs):
        calls.append(np.asarray(indices).tolist())
        return noise_matrix(seed, indices, n_bits, **kwargs)

    monkeypatch.setattr(sarsizer.sndr, "noise_matrix", counted)
    return calls


def counting_kernel(monkeypatch):
    """Record the row count of every kernel call, made through any name a
    module of the package binds the kernel to (a sine test could reach it
    through sndr, or through coarse for its power)."""
    calls = []

    def counted(cfg, designs, v_sampled, *args, **kwargs):
        calls.append(len(v_sampled))
        return convert_rows(cfg, designs, v_sampled, *args, **kwargs)

    bindings = [module for name, module in list(sys.modules.items())
                if name.split(".")[0] == "sarsizer"
                and getattr(module, "convert_rows", None) is convert_rows]
    assert {sarsizer.sndr, sarsizer.coarse} <= set(bindings)
    for module in bindings:
        monkeypatch.setattr(module, "convert_rows", counted)
    return calls


class TestSegments:
    def test_blocks_cover_every_index_once(self, sane_model_12, monkeypatch):
        # 64 samples in blocks of 24: the last block is short
        monkeypatch.setattr(sarsizer.sndr, "CAPTURE_BLOCK", 24)
        calls = counting_noise(monkeypatch)
        run_segments(sane_model_12, make_plan(k_points=64, m_segments=8))
        assert [len(c) for c in calls] == [24, 24, 16]
        assert sum(calls, []) == list(range(64))

    def test_fig_style_four_by_four(self):
        # 4 segments of 4 samples merge into a 16-point capture
        plan = plan_test(16e6, 16, 4, 1e6, 0.4)
        assert plan.k_points // plan.m_segments == 4
        cfg = AdcConfig(n_bits=4, f_s=16e6, v_dd=1.0)
        codes = run_segments(build_model(ideal_design(t_sample=1e-9), cfg), plan, noise=False)
        assert len(codes) == 16

    def test_block_phase_offset(self, monkeypatch):
        # the block from sample k is the same sine advanced by k sample
        # periods; when f_in = f_s/8 that equals a phase shift of 2*pi*k/8
        monkeypatch.setattr(sarsizer.sndr, "CAPTURE_BLOCK", 3)
        plan = TestPlan(k_points=8, j_cycles=1, m_segments=8, f_s=8.0, amplitude=1.0)
        assert plan.f_in == plan.f_s / 8
        u = capture_inputs(plan)
        k = 3
        cfg = AdcConfig(n_bits=4, f_s=plan.f_s, v_dd=1.0)
        v_now, v_prev, _ = block_stimulus(cfg, plan, k, noise=False)
        phase = 2 * math.pi * plan.f_in * k / plan.f_s
        assert phase == pytest.approx(3 * math.pi / 4, rel=1e-12)
        assert v_now[0] == u[k] == pytest.approx(math.sin(3 * math.pi / 4), rel=1e-12)
        assert v_prev[0] == u[k - 1]
        np.testing.assert_array_equal(v_now, u[k:k + 3])

    @pytest.mark.parametrize("start", [0, sarsizer.sndr.CAPTURE_BLOCK,
                                       3 * sarsizer.sndr.CAPTURE_BLOCK])
    def test_block_hold_history_is_the_previous_sine(self, cfg12, start):
        # inputs and history come from one sine pass, bit for bit the sine
        # at idx and at idx - 1 (the block from 0 holds the sine at -1); the
        # last block ends with the power grid, held from rest, no draws
        plan = make_plan(k_points=4 * sarsizer.sndr.CAPTURE_BLOCK, m_segments=8, seed=3)
        idx = np.arange(start, start + sarsizer.sndr.CAPTURE_BLOCK)
        grid = sarsizer.coarse.power_grid(cfg12) if idx[-1] == plan.k_points - 1 else np.empty(0)
        v_now, v_prev, draws = block_stimulus(cfg12, plan, start, noise=True)
        np.testing.assert_array_equal(v_now, np.concatenate([sarsizer.sndr._sine(plan, idx), grid]))
        np.testing.assert_array_equal(
            v_prev, np.concatenate([sarsizer.sndr._sine(plan, idx - 1), np.zeros(len(grid))]))
        np.testing.assert_array_equal(
            draws, np.vstack([noise_matrix(plan.seed, idx, 12), np.zeros((len(grid), 13))]))

    def test_single_segment_degenerate(self, sane_model_12):
        plan = make_plan(k_points=256, m_segments=1, seed=5)
        a = run_segments(sane_model_12, plan, noise=True)
        b = run_segments(sane_model_12, replace(plan, m_segments=1), noise=True)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("m", [1, 2, 4, 8])
    def test_equivalence_noiseless(self, sane_model_12, m):
        plan = make_plan(k_points=256, m_segments=m)
        assert equivalence_check(sane_model_12, plan, noise=False)

    @pytest.mark.parametrize("m", [2, 4, 8])
    def test_equivalence_with_counter_keyed_noise(self, sane_model_12, m):
        plan = make_plan(k_points=256, m_segments=m, seed=11)
        assert equivalence_check(sane_model_12, plan, noise=True)

    def test_mis_keyed_noise_breaks_equivalence(self, sane_model_12):
        # negative control: key noise by block-local position instead of
        # the global sample index
        plan = make_plan(k_points=256, m_segments=4, seed=11)
        model = sane_model_12
        t_sample = float(model.row[0, 2])
        tau_smp, kt_c_sigma = (float(v[0]) for v in sampling_constants(model.cfg, model.row))
        t_s = 1.0 / plan.f_s
        omega = 2 * math.pi * plan.f_in
        merged = np.zeros(plan.k_points, dtype=np.int64)
        for idx in np.split(np.arange(plan.k_points), 4):
            local = np.arange(len(idx))  # wrong: forgets the global schedule
            v_now = plan.amplitude * np.sin(omega * idx * t_s)
            v_prev = plan.amplitude * np.sin(omega * (idx - 1) * t_s)
            settle = math.exp(-t_sample / tau_smp)
            sampled = v_now - (v_now - v_prev) * settle
            draws = noise_matrix(plan.seed, local, 12)
            sampled += kt_c_sigma * draws[:, 0]
            merged[idx] = convert_rows(model.cfg, model.row, sampled, draws[:, 1:]).codes
        full = run_segments(model, plan, noise=True)
        assert not np.array_equal(merged, full)

    def test_capture_matches_scalar_sample_and_convert(self, sane_model_12):
        # the harness's vectorized sampling must be the same computation
        # as sample_input, the sample's kT/C draw and a batch-of-one
        # conversion, sample by sample
        plan = make_plan(k_points=32, m_segments=4, seed=23)
        cfg, row = sane_model_12.cfg, sane_model_12.row
        _, (kt_c_sigma,) = sampling_constants(cfg, row)
        codes = run_segments(sane_model_12, plan, noise=True)
        u = capture_inputs(plan)
        t_s = 1.0 / plan.f_s
        for m in range(plan.k_points):
            v_prev = plan.amplitude * math.sin(
                2 * math.pi * plan.f_in * (m - 1) * t_s
            )
            kt_c = noise_matrix(plan.seed, [m], 0)[0, 0]
            sampled = sample_input(cfg, row, float(u[m]), v_prev=v_prev)[0, 0]
            sampled += kt_c_sigma * kt_c
            trace = convert_one(sane_model_12, sampled, (plan.seed, m))
            assert trace.code == codes[m], m

    def test_one_noise_draw_per_block(self, sane_model_12, monkeypatch):
        calls = counting_noise(monkeypatch)
        run_segments(sane_model_12, make_plan(k_points=256, m_segments=4, seed=3))
        assert [len(c) for c in calls] == [256]
        calls.clear()
        monkeypatch.setattr(sarsizer.sndr, "CAPTURE_BLOCK", 64)
        run_segments(sane_model_12, make_plan(k_points=256, m_segments=4, seed=3))
        assert [len(c) for c in calls] == [64] * 4

    def test_timing_failures_recorded_not_fatal(self):
        from sarsizer.adc import DesignPoint

        cfg = AdcConfig(n_bits=10, f_s=20e6, v_dd=1.0)
        base = sane_design().to_dict()
        base.update(t_d0=4e-9, tau_reg=2e-9, t_dff=4e-9)
        model = build_model(DesignPoint(**base), cfg)
        plan = make_plan(k_points=64, m_segments=4)
        codes, ok = run_segments_detailed(model, plan, noise=False)
        assert len(codes) == 64
        assert not ok.all()


STIMULUS_CONFIGS = {
    8: AdcConfig(n_bits=8, f_s=1e6, v_dd=1.0, kappa_cmp=1e-25, kappa_sw=1e-13, e_dff=1e-15),
    12: AdcConfig(n_bits=12, f_s=20e6, v_dd=1.0, kappa_cmp=1e-25, kappa_sw=1e-13,
                  e_dff=1e-15, r_drv_cap=150.0),
}
# Every variable at its upper bound: slow comparator and logic, long
# sampling window; at 12 bits and 20 MS/s many conversions run out of time.
TIMING_FAIL_UNIT = [1.0] * 8


def design_vector(bounds, unit):
    """Log-uniform point of the bounds box, in design-vector order."""
    lo, hi = bounds_array(bounds).T
    return np.clip(lo * (hi / lo) ** np.asarray(unit), lo, hi)


def expensive_value_by_default_path(cfg, plan, bounds, noise, x):
    """ExpensiveObjective's value computed with a capture that draws its
    own stimulus, one block at a time."""
    model = build_model(DesignPoint.from_vector(x), cfg, bounds)
    codes = run_segments(model, plan, noise=noise)
    return -spectrum_metrics(codes, plan, power_estimate(model), cfg.n_bits).fom_s


class TestReusedStimulus:
    @settings(max_examples=25, deadline=None)
    @given(
        n_bits=st.sampled_from(sorted(STIMULUS_CONFIGS)),
        units=st.lists(
            st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8), min_size=1, max_size=3
        ),
        noise=st.booleans(),
        m=st.sampled_from([1, 4]),
        block=st.sampled_from([None, 64, 100]),
    )
    @example(n_bits=12, units=[TIMING_FAIL_UNIT], noise=True, m=4, block=None)
    @example(n_bits=12, units=[TIMING_FAIL_UNIT], noise=False, m=1, block=None)
    @example(n_bits=12, units=[TIMING_FAIL_UNIT], noise=True, m=4, block=64)
    @example(n_bits=8, units=[[0.5] * 8], noise=True, m=4, block=100)
    def test_reused_stimulus_matches_default_capture(self, n_bits, units, noise, m, block):
        """One objective's stimulus, built on its first call and reused for
        every later design, gives the codes, the power and the value that a
        capture drawing its own stimulus gives; the sine test's power equals
        power_estimate's and evaluate_coarse's.  block splits the 256-point
        plan into 4 blocks (64), or 3 with a short last one (100), the power
        grid riding on the last."""
        with pytest.MonkeyPatch.context() as mp:
            if block is not None:
                mp.setattr(sarsizer.sndr, "CAPTURE_BLOCK", block)
            cfg = STIMULUS_CONFIGS[n_bits]
            bounds = default_bounds(cfg)
            plan = plan_test(cfg.f_s, 256, m, 0.097 * cfg.f_s, 0.475, seed=5)
            specs = DerivedSpecs.derive(cfg.n_bits, cfg.v_dd)
            objective = ExpensiveObjective(cfg=cfg, plan=plan, bounds=bounds, noise=noise)
            assert len(objective.stimuli) == -(-256 // (block or 256))
            for unit in units:
                x = design_vector(bounds, unit)
                model = build_model(DesignPoint.from_vector(x), cfg, bounds)
                reused = sine_test(cfg, model.row, plan, stimuli=objective.stimuli)
                drawn = sine_test(cfg, model.row, plan, noise)
                for got in (reused, run_segments_detailed(model, plan, noise)):
                    np.testing.assert_array_equal(got[0], drawn[0])
                    np.testing.assert_array_equal(got[1], drawn[1])
                assert reused[2] == drawn[2] == power_estimate(model)
                assert drawn[2] == evaluate_coarse(cfg, model.row, specs).row(0).power
                assert objective(x) == expensive_value_by_default_path(cfg, plan, bounds, noise, x)

    def test_timing_fail_example_fails_timing(self):
        cfg = STIMULUS_CONFIGS[12]
        bounds = default_bounds(cfg)
        model = build_model(
            DesignPoint.from_vector(design_vector(bounds, TIMING_FAIL_UNIT)), cfg, bounds
        )
        plan = plan_test(cfg.f_s, 256, 4, 0.097 * cfg.f_s, 0.475, seed=5)
        _, ok = run_segments_detailed(model, plan, noise=True)
        assert not ok.all()

    def test_one_noise_draw_per_block_per_objective(self, monkeypatch):
        calls = counting_noise(monkeypatch)
        cfg = STIMULUS_CONFIGS[12]
        bounds = default_bounds(cfg)
        objective = ExpensiveObjective(
            cfg=cfg, plan=make_plan(k_points=256, m_segments=4, seed=3), bounds=bounds
        )
        for u in (0.2, 0.5, 0.8):
            objective(design_vector(bounds, [u] * 8))
        assert [len(c) for c in calls] == [256]

    @pytest.mark.parametrize("name, value", [
        ("c_unit", 0.0), ("r_sw", -1.0), ("t_sample", math.nan), ("tau_reg", 1.0),
    ])
    def test_objective_rejects_points_outside_bounds(self, monkeypatch, name, value):
        """The objective checks x against its bounds before any kernel
        call; run_local scores the BoundsError as a failed check, +inf."""
        cfg = STIMULUS_CONFIGS[8]
        bounds = default_bounds(cfg)
        objective = ExpensiveObjective(cfg=cfg, plan=make_plan(k_points=64, seed=3),
                                       bounds=bounds)
        x = design_vector(bounds, [0.5] * 8)
        x[DESIGN_FIELDS.index(name)] = value
        calls = counting_kernel(monkeypatch)
        with pytest.raises(BoundsError, match=name):
            objective(x)
        assert calls == []
        wide = np.column_stack([np.full(8, -np.inf), np.full(8, np.inf)])
        result = run_local(x, np.ones(8, dtype=bool), lambda xs: np.zeros(len(xs)), objective,
                           LocalParams(max_iter=1), wide)
        assert result.n_expensive_failed == result.n_expensive >= 1
        assert result.f_expensive == math.inf

    def test_objective_leaves_fields_missing_from_bounds_unbounded(self):
        cfg = STIMULUS_CONFIGS[8]
        bounds = default_bounds(cfg)
        plan = make_plan(k_points=64, seed=3)
        x = design_vector(bounds, [0.5] * 8)
        partial = {name: box for name, box in bounds.items() if name != "r_sw"}
        x[DESIGN_FIELDS.index("r_sw")] = 10 * bounds["r_sw"][1]
        value = ExpensiveObjective(cfg=cfg, plan=plan, bounds=partial)(x)
        assert value == expensive_value_by_default_path(cfg, plan, partial, True, x)
        with pytest.raises(BoundsError, match="r_sw"):
            ExpensiveObjective(cfg=cfg, plan=plan, bounds=bounds)(x)


def capture_model(unit, sane_model):
    """sane_model, or the 12-bit stimulus config's design at unit of its bounds."""
    if unit is None:
        return sane_model
    cfg = STIMULUS_CONFIGS[12]
    bounds = default_bounds(cfg)
    return build_model(DesignPoint.from_vector(design_vector(bounds, unit)), cfg, bounds)


class TestCaptureBlocks:
    """A capture converts in contiguous blocks of CAPTURE_BLOCK samples:
    how the capture is partitioned changes no code and no timing flag."""

    @pytest.mark.parametrize("block", [1, 3, 64, 100, 256])
    @pytest.mark.parametrize("unit", [None, TIMING_FAIL_UNIT], ids=["sane", "timing_fail"])
    def test_partition_invariance(self, sane_model_12, monkeypatch, block, unit):
        model = capture_model(unit, sane_model_12)
        plan = make_plan(k_points=256, m_segments=4, seed=13)
        single_codes, single_ok = run_segments_detailed(model, plan, noise=True)
        assert unit is None or not single_ok.all()
        calls = counting_kernel(monkeypatch)
        monkeypatch.setattr(sarsizer.sndr, "CAPTURE_BLOCK", block)
        codes, ok = run_segments_detailed(model, plan, noise=True)
        assert len(calls) == -(-256 // block)
        np.testing.assert_array_equal(codes, single_codes)
        np.testing.assert_array_equal(ok, single_ok)

    @pytest.mark.parametrize("noise", [True, False], ids=["noisy", "noise_free"])
    @pytest.mark.parametrize("unit", [None, TIMING_FAIL_UNIT], ids=["sane", "timing_fail"])
    def test_short_last_block_after_full_ones(self, sane_model_12, monkeypatch, noise, unit):
        """Blocks of 3,000 rows (more than one noise pass) over 8,192 points:
        the short last block reuses the full blocks' working set and must
        not read what they left in it."""
        model = capture_model(unit, sane_model_12)
        plan = make_plan(k_points=8192, m_segments=8, seed=17)
        single_codes, single_ok = run_segments_detailed(model, plan, noise=noise)
        assert unit is None or not single_ok.all()
        calls = counting_kernel(monkeypatch)
        monkeypatch.setattr(sarsizer.sndr, "CAPTURE_BLOCK", 3000)
        codes, ok = run_segments_detailed(model, plan, noise=noise)
        assert calls == [3000, 3000, 2192 + POWER_GRID_POINTS]
        np.testing.assert_array_equal(codes, single_codes)
        np.testing.assert_array_equal(ok, single_ok)

    @pytest.mark.parametrize("noise", [True, False], ids=["noisy", "noise_free"])
    def test_blocks_share_one_working_set(self, sane_model_12, monkeypatch, noise):
        draw_outs, kernel_outs = [], []

        def drawing(seed, indices, n_bits, out=None):
            draw_outs.append(out)
            return noise_matrix(seed, indices, n_bits, out=out)

        def converting(*args, out=None, **kwargs):
            kernel_outs.append(out)
            return convert_rows(*args, out=out, **kwargs)

        monkeypatch.setattr(sarsizer.sndr, "noise_matrix", drawing)
        monkeypatch.setattr(sarsizer.sndr, "convert_rows", converting)
        monkeypatch.setattr(sarsizer.sndr, "CAPTURE_BLOCK", 100)
        run_segments(sane_model_12, make_plan(k_points=256, m_segments=4, seed=3), noise=noise)
        assert len(kernel_outs) == 3 and all(out is kernel_outs[0] for out in kernel_outs)
        assert len(draw_outs) == 3 * noise
        assert all(out.base is draw_outs[0].base is not None for out in draw_outs)
        draw_outs.clear()
        kernel_outs.clear()
        monkeypatch.setattr(sarsizer.sndr, "CAPTURE_BLOCK", 512)  # one short block: sized to K
        run_segments(sane_model_12, make_plan(k_points=256, m_segments=4, seed=3), noise=noise)
        [bits, _, _] = kernel_outs[0]
        assert len(kernel_outs) == 1 and bits.shape == (12, 256 + POWER_GRID_POINTS)
        assert len(draw_outs) == noise
        assert all(out.base.shape == (256 + POWER_GRID_POINTS, 13) for out in draw_outs)

    def test_kernel_arrays_follow_the_first_draws(self, sane_model_12, monkeypatch):
        # Made before, the kernel's arrays would be alive at the peak
        # inside the first block's noise_matrix.
        events = []

        def drawing(*args, **kwargs):
            events.append("draws")
            return noise_matrix(*args, **kwargs)

        def allocating(*args):
            events.append("kernel")
            return kernel_out(*args)

        monkeypatch.setattr(sarsizer.sndr, "noise_matrix", drawing)
        monkeypatch.setattr(sarsizer.sndr, "kernel_out", allocating)
        monkeypatch.setattr(sarsizer.sndr, "CAPTURE_BLOCK", 100)
        run_segments(sane_model_12, make_plan(k_points=256, m_segments=4, seed=3))
        assert events == ["draws", "kernel", "draws", "draws"]

    def test_stale_out_gives_the_fresh_stimulus(self, cfg12, monkeypatch):
        # A reused draw buffer holds the previous block's draws; every row
        # the block reads, power-grid rows included, must be written.
        monkeypatch.setattr(sarsizer.sndr, "CAPTURE_BLOCK", 100)
        plan = make_plan(k_points=256, m_segments=4, seed=3)
        stale = np.empty((100 + POWER_GRID_POINTS + 3, 13), order="F")
        for start in (0, 100, 200):
            stale.fill(np.nan)
            fresh = block_stimulus(cfg12, plan, start, noise=True)
            reused = block_stimulus(cfg12, plan, start, noise=True, out=stale)
            assert reused[2].base is stale
            for a, b in zip(fresh, reused):
                np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("k_points", [256, 1024], ids=["one_block", "several_blocks"])
    def test_kernel_reads_contiguous_draw_columns(self, sane_model_12, monkeypatch, k_points):
        layouts = []

        def converting(cfg, designs, v_sampled, cmp_draws, *args, **kwargs):
            layouts.append(cmp_draws.strides[0] == cmp_draws.itemsize)
            return convert_rows(cfg, designs, v_sampled, cmp_draws, *args, **kwargs)

        monkeypatch.setattr(sarsizer.sndr, "convert_rows", converting)
        monkeypatch.setattr(sarsizer.sndr, "CAPTURE_BLOCK", 256)
        run_segments(sane_model_12, make_plan(k_points=k_points, m_segments=4, seed=3))
        assert layouts == [True] * (k_points // 256)

    def test_objective_stimuli_own_their_draws(self, monkeypatch):
        # The objective keeps every block's draws, so no two may share memory.
        monkeypatch.setattr(sarsizer.sndr, "CAPTURE_BLOCK", 64)
        cfg = STIMULUS_CONFIGS[12]
        objective = ExpensiveObjective(cfg=cfg, plan=make_plan(k_points=256, m_segments=4, seed=3),
                                       bounds=default_bounds(cfg))
        draws = [block[2] for block in objective.stimuli]
        assert len(draws) == 4
        assert not any(np.shares_memory(a, b) for i, a in enumerate(draws) for b in draws[i + 1:])

    def test_kernel_calls_per_capture(self, sane_model_12, monkeypatch):
        calls = counting_kernel(monkeypatch)
        run_segments(sane_model_12, make_plan(k_points=512, m_segments=4, seed=3))
        assert calls == [512 + POWER_GRID_POINTS]
        calls.clear()
        run_segments(sane_model_12, make_plan(k_points=65536, m_segments=8), noise=False)
        assert calls == [8192] * 7 + [8192 + POWER_GRID_POINTS]

    def test_expensive_objective_is_one_kernel_call(self, monkeypatch):
        """The capture and the power grid's rows share one call: no second
        call prices the design's power."""
        cfg = STIMULUS_CONFIGS[8]
        bounds = default_bounds(cfg)
        plan = plan_test(cfg.f_s, 512, 4, 0.097 * cfg.f_s, 0.475, seed=5)
        objective = ExpensiveObjective(cfg=cfg, plan=plan, bounds=bounds)
        calls = counting_kernel(monkeypatch)
        for u in (0.2, 0.5):
            objective(design_vector(bounds, [u] * 8))
            assert calls == [512 + POWER_GRID_POINTS]
            calls.clear()

    def test_long_capture_peaks_at_one_block(self, sane_model_12):
        """A 65,536-point capture holds one block's stimulus and kernel
        output at a time, so it peaks near an 8,192-point capture."""
        def peak(k_points):
            plan = make_plan(k_points=k_points, m_segments=8, seed=1)
            tracemalloc.start()
            try:
                run_segments_detailed(sane_model_12, plan, noise=True)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(65536) <= 1.25 * peak(8192)


class TestSpectrumMetrics:
    def ideal_codes(self, n_bits, plan):
        return ideal_quantizer(capture_inputs(plan), n_bits, 1.0)

    @pytest.mark.parametrize("n_bits", [4, 8, 12])
    def test_ideal_quantizer_sndr(self, n_bits):
        plan = plan_test(20e6, 4096, 1, 2e6, amplitude=0.5)
        rep = spectrum_metrics(self.ideal_codes(n_bits, plan), plan, 1e-3, n_bits)
        assert rep.sndr_db == pytest.approx(6.02 * n_bits + 1.76, abs=0.3)

    def test_table_fom_arithmetic_first_column(self):
        # 308 uW, 72.2 dB, 20 MS/s, ENOB 11.7
        assert fom_schreier(308e-6, 20e6, 72.2) == pytest.approx(177.3, abs=0.05)
        assert fom_walden(308e-6, 20e6, 11.7) == pytest.approx(4.6e-15, abs=0.2e-15)

    def test_table_fom_arithmetic_second_column(self):
        # 480 uW, 42.0 dB, 150 MS/s, ENOB 6.68
        assert fom_schreier(480e-6, 150e6, 42.0) == pytest.approx(153.9, abs=0.05)
        assert fom_walden(480e-6, 150e6, 6.68) == pytest.approx(31.6e-15, abs=0.7e-15)

    def test_report_carries_fom_fields(self):
        plan = plan_test(20e6, 1024, 1, 2e6, amplitude=0.5)
        rep = spectrum_metrics(self.ideal_codes(12, plan), plan, 308e-6, 12)
        assert rep.fom_s == pytest.approx(rep.sndr_db + 10 * math.log10(1e7 / 308e-6), rel=1e-12)
        assert rep.fom_w == pytest.approx(308e-6 / (2**rep.enob * 20e6), rel=1e-12)
        assert rep.enob == enob_from_sndr(rep.sndr_db)

    def test_zero_signal_bin_raises(self):
        plan = plan_test(20e6, 256, 1, 2e6, amplitude=0.5)
        with pytest.raises(MetricsError):
            spectrum_metrics(np.full(256, 7), plan, 1e-3, 8)

    def test_length_mismatch_raises(self):
        plan = plan_test(20e6, 256, 1, 2e6, amplitude=0.5)
        with pytest.raises(MetricsError):
            spectrum_metrics(np.zeros(128), plan, 1e-3, 8)

    def test_sign_flip_invariance(self):
        plan = plan_test(20e6, 1024, 1, 2e6, amplitude=0.49)
        codes = self.ideal_codes(10, plan)
        flipped = (2**10 - 1) - codes
        a = spectrum_metrics(codes, plan, 1e-3, 10)
        b = spectrum_metrics(flipped, plan, 1e-3, 10)
        assert b.sndr_db == pytest.approx(a.sndr_db, abs=1e-9)

    def test_sfdr_positive_and_bins_sized(self):
        plan = plan_test(20e6, 1024, 1, 2e6, amplitude=0.475)
        rep = spectrum_metrics(self.ideal_codes(8, plan), plan, 1e-3, 8)
        assert rep.sfdr_db > 0
        assert len(rep.bin_power_db) == 512


class TestExports:
    def test_capture_csv(self, tmp_path, sane_model_12):
        plan = make_plan(k_points=64, m_segments=4, seed=1)
        codes = run_segments(sane_model_12, plan, noise=True)
        path = tmp_path / "capture.csv"
        write_capture_csv(plan, codes, str(path))
        lines = path.read_text().split("\n")
        assert lines[0] == "index,input,code"
        assert len(lines) == 1 + 64 + 1  # header + rows + trailing newline
        idx, value, code = lines[1].split(",")
        assert (int(idx), int(code)) == (0, int(codes[0]))
        assert float(value) == capture_inputs(plan)[0]

    def test_capture_input_is_the_converted_input(self, tmp_path, monkeypatch):
        # the input column holds, bit for bit, the input each block converted
        # (its sine rows: the last block's power grid rows are not samples)
        monkeypatch.setattr(sarsizer.sndr, "CAPTURE_BLOCK", 48)
        plan = make_plan(k_points=256, m_segments=8, seed=1)
        cfg = AdcConfig(n_bits=8, f_s=plan.f_s, v_dd=1.0)
        path = tmp_path / "capture.csv"
        write_capture_csv(plan, np.zeros(plan.k_points, dtype=int), str(path))
        column = [float(line.split(",")[1]) for line in path.read_text().split()[1:]]
        merged = np.concatenate([block_stimulus(cfg, plan, start, noise=False)[0][:rows]
                                 for start in range(0, plan.k_points, 48)
                                 for rows in [min(48, plan.k_points - start)]])
        np.testing.assert_array_equal(column, merged)

    def test_spectrum_csv(self, tmp_path):
        plan = plan_test(20e6, 256, 1, 2e6, amplitude=0.5)
        codes = ideal_quantizer(capture_inputs(plan), 8, 1.0)
        rep = spectrum_metrics(codes, plan, 1e-3, 8)
        path = tmp_path / "spectrum.csv"
        write_spectrum_csv(rep, str(path))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "bin,power_db"
        assert len(lines) == 1 + 128
