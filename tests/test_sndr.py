import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sarsizer.adc import AdcConfig, DesignPoint, build_model, convert_rows, sample_input
from sarsizer.coarse import power_estimate
from sarsizer.errors import MetricsError, PlanError
from sarsizer.pipeline import default_bounds
from sarsizer.problem import ExpensiveObjective, bounds_array
from sarsizer.rng import noise_matrix
from sarsizer.sndr import (
    TestPlan,
    capture_inputs,
    enob_from_sndr,
    equivalence_check,
    fom_schreier,
    fom_walden,
    plan_test,
    run_segments,
    run_segments_detailed,
    segment_indices,
    segment_stimulus,
    spectrum_metrics,
    write_capture_csv,
    write_spectrum_csv,
)

from conftest import convert_one, ideal_design, ideal_quantizer, sane_design


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

    @pytest.mark.parametrize("seed", [-1, 2**64, True, 7.0])
    def test_seed_outside_key_range_rejected(self, seed):
        with pytest.raises(PlanError, match="seed"):
            TestPlan(k_points=64, j_cycles=3, m_segments=4, f_s=1e6, amplitude=0.4, seed=seed)


class TestSegments:
    def test_interleave_covers_every_index_once(self):
        plan = make_plan(k_points=64, m_segments=8)
        seen = np.concatenate([segment_indices(plan, k) for k in range(8)])
        assert sorted(seen.tolist()) == list(range(64))

    def test_fig_style_four_by_four(self):
        # 4 segments of 4 samples merge into a 16-point capture
        plan = plan_test(16e6, 16, 4, 1e6, 0.4)
        assert plan.k_points // plan.m_segments == 4
        cfg = AdcConfig(n_bits=4, f_s=16e6, v_dd=1.0)
        codes = run_segments(build_model(ideal_design(t_sample=1e-9), cfg), plan, noise=False)
        assert len(codes) == 16

    def test_segment_phase_offset(self):
        # segment k is the same sine advanced by k sample periods; when
        # f_in = f_s/M that equals a phase shift of 2*pi*k/M exactly
        plan = TestPlan(k_points=8, j_cycles=1, m_segments=8, f_s=8.0, amplitude=1.0)
        assert plan.f_in == plan.f_s / 8
        u = capture_inputs(plan)
        k = 3
        first = segment_indices(plan, k)[0]
        phase = 2 * math.pi * plan.f_in * first / plan.f_s
        assert phase == pytest.approx(3 * math.pi / 4, rel=1e-12)
        assert u[first] == pytest.approx(math.sin(3 * math.pi / 4), rel=1e-12)

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
        # negative control: key noise by segment-local position instead of
        # the global sample index
        plan = make_plan(k_points=256, m_segments=4, seed=11)
        model = sane_model_12
        t_s = 1.0 / plan.f_s
        omega = 2 * math.pi * plan.f_in
        merged = np.zeros(plan.k_points, dtype=np.int64)
        for k in range(plan.m_segments):
            idx = segment_indices(plan, k)
            local = np.arange(len(idx))  # wrong: forgets the global schedule
            v_now = plan.amplitude * np.sin(omega * idx * t_s)
            v_prev = plan.amplitude * np.sin(omega * (idx - 1) * t_s)
            settle = math.exp(-model.design.t_sample / model.tau_smp)
            sampled = v_now - (v_now - v_prev) * settle
            draws = noise_matrix(plan.seed, local, 12)
            sampled += model.kt_c_sigma * draws[:, 0]
            merged[idx] = convert_rows([model], sampled, draws[:, 1:]).codes
        full = run_segments(model, plan, noise=True)
        assert not np.array_equal(merged, full)

    def test_capture_matches_scalar_sample_and_convert(self, sane_model_12):
        # the harness's vectorized sampling must be the same computation
        # as sample_input, the sample's kT/C draw and a batch-of-one
        # conversion, sample by sample
        plan = make_plan(k_points=32, m_segments=4, seed=23)
        codes = run_segments(sane_model_12, plan, noise=True)
        u = capture_inputs(plan)
        t_s = 1.0 / plan.f_s
        for m in range(plan.k_points):
            v_prev = plan.amplitude * math.sin(
                2 * math.pi * plan.f_in * (m - 1) * t_s
            )
            kt_c = noise_matrix(plan.seed, [m], 0)[0, 0]
            sampled = sample_input(sane_model_12, float(u[m]), v_prev=v_prev)
            sampled += sane_model_12.kt_c_sigma * kt_c
            trace = convert_one(sane_model_12, sampled, (plan.seed, m))
            assert trace.code == codes[m], m

    def test_one_noise_draw_per_segment(self, sane_model_12, monkeypatch):
        import sarsizer.sndr

        calls = []

        def counted(seed, indices, n_bits):
            calls.append(len(indices))
            return noise_matrix(seed, indices, n_bits)

        monkeypatch.setattr(sarsizer.sndr, "noise_matrix", counted)
        run_segments(sane_model_12, make_plan(k_points=256, m_segments=4, seed=3))
        assert calls == [64] * 4

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
    own stimulus, one segment at a time."""
    model = build_model(DesignPoint.from_vector(x), cfg, bounds)
    codes = run_segments(model, plan, noise=noise)
    try:
        report = spectrum_metrics(codes, plan, power_estimate(model), cfg.n_bits)
    except MetricsError:
        return math.inf
    return -report.fom_s


class TestReusedStimulus:
    @settings(max_examples=25, deadline=None)
    @given(
        n_bits=st.sampled_from(sorted(STIMULUS_CONFIGS)),
        units=st.lists(
            st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8), min_size=1, max_size=3
        ),
        noise=st.booleans(),
        m=st.sampled_from([1, 4]),
    )
    @example(n_bits=12, units=[TIMING_FAIL_UNIT], noise=True, m=4)
    @example(n_bits=12, units=[TIMING_FAIL_UNIT], noise=False, m=1)
    def test_reused_stimulus_matches_default_capture(self, n_bits, units, noise, m):
        """One objective's stimulus, built on its first call and reused for
        every later design, gives the codes and the value that a capture
        drawing its own stimulus gives."""
        cfg = STIMULUS_CONFIGS[n_bits]
        bounds = default_bounds(cfg)
        plan = plan_test(cfg.f_s, 256, m, 0.097 * cfg.f_s, 0.475, seed=5)
        objective = ExpensiveObjective(cfg=cfg, plan=plan, bounds=bounds, noise=noise)
        for unit in units:
            x = design_vector(bounds, unit)
            model = build_model(DesignPoint.from_vector(x), cfg, bounds)
            reused = run_segments_detailed(model, plan, noise=noise, stimuli=objective.stimuli)
            drawn = run_segments_detailed(model, plan, noise=noise)
            np.testing.assert_array_equal(reused[0], drawn[0])
            np.testing.assert_array_equal(reused[1], drawn[1])
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

    def test_one_noise_draw_per_segment_per_objective(self, monkeypatch):
        import sarsizer.sndr

        calls = []

        def counted(seed, indices, n_bits):
            calls.append(len(indices))
            return noise_matrix(seed, indices, n_bits)

        monkeypatch.setattr(sarsizer.sndr, "noise_matrix", counted)
        cfg = STIMULUS_CONFIGS[12]
        bounds = default_bounds(cfg)
        objective = ExpensiveObjective(
            cfg=cfg, plan=make_plan(k_points=256, m_segments=4, seed=3), bounds=bounds
        )
        for u in (0.2, 0.5, 0.8):
            objective(design_vector(bounds, [u] * 8))
        assert calls == [64] * 4


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

    def test_capture_input_is_the_converted_input(self, tmp_path):
        # the input column holds, bit for bit, the input each segment converted
        plan = make_plan(k_points=256, m_segments=8, seed=1)
        path = tmp_path / "capture.csv"
        write_capture_csv(plan, np.zeros(plan.k_points, dtype=int), str(path))
        column = [float(line.split(",")[1]) for line in path.read_text().split()[1:]]
        merged = np.zeros(plan.k_points)
        for k in range(plan.m_segments):
            idx, v_now, _, _ = segment_stimulus(plan, k, 8, noise=False)
            merged[idx] = v_now
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
