"""Acceptance suite: one test per release criterion, each printing a
single pass/fail line with its runtime (run with -s to see them inline).

Criteria 1-4 reproduce published formula values against independent
arithmetic; 5-9 are end-to-end property checks at pinned tolerances.
"""

import json
import math
import time

import numpy as np
import pytest

from sarsizer.adc import AdcConfig, build_model
from sarsizer.global_opt import GlobalParams, Problem, run_global
from sarsizer.local_opt import LocalParams, blend_decision, run_local
from sarsizer.pipeline import load_config, run_pipeline
from sarsizer.sndr import fom_schreier, fom_walden, plan_test, run_segments, spectrum_metrics
from sarsizer.specs import (
    derive_sampling_bound,
    derive_sndr_ceiling,
    derive_ssre_bounds,
    per_bit_error_budget,
)

from conftest import ideal_design
from test_local_opt import FUNCTIONS, reference_pattern_search


class _Clock:
    def __init__(self, limit_s, label):
        self.limit = limit_s
        self.label = label

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, *_):
        dt = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None and dt < self.limit else "FAIL"
        print(f"{status} {self.label} [{dt:.2f}s / limit {self.limit:.0f}s]")
        assert dt < self.limit, f"{self.label}: runtime {dt:.2f}s over limit"


def test_criterion_1_spec_formulas():
    with _Clock(1.0, "criterion 1: budget formulas match hand evaluation"):
        for n in (7, 12):
            for alpha in (1.0, 2.0):
                ssre = derive_ssre_bounds(n, alpha)
                for i in range(1, n):
                    expected = alpha / (2 ** (n - i - 1) * math.sqrt(12 * n))
                    assert abs(ssre[i - 1] - expected) <= 1e-9 * expected
                sampling = derive_sampling_bound(n, 1.0, alpha)
                expected = alpha / (2**n * math.sqrt(12.0))
                assert abs(sampling - expected) <= 1e-9 * expected
            ceiling = derive_sndr_ceiling(n)
            assert abs(ceiling - (6.02 * n - 4.25)) <= 1e-9 * ceiling
        # spot values
        assert abs(derive_sndr_ceiling(12) - 67.99) <= 1e-9 * 67.99
        assert abs(derive_ssre_bounds(12, 1.0)[-1] - 1.0 / 12.0) <= 1e-9 / 12.0


def test_criterion_2_fom_arithmetic():
    with _Clock(1.0, "criterion 2: published FoM columns reproduced"):
        assert fom_schreier(308e-6, 20e6, 72.2) == pytest.approx(177.3, abs=0.05)
        assert fom_walden(308e-6, 20e6, 11.7) == pytest.approx(4.6e-15, abs=0.2e-15)
        assert fom_schreier(480e-6, 150e6, 42.0) == pytest.approx(153.9, abs=0.05)
        assert fom_walden(480e-6, 150e6, 6.68) == pytest.approx(31.6e-15, abs=0.7e-15)


def test_criterion_3_ideal_quantizer_sndr():
    with _Clock(10.0, "criterion 3: ideal-model coherent SNDR at K=4096"):
        for n in (7, 12):
            cfg = AdcConfig(n_bits=n, f_s=20e6, v_dd=1.0)
            model = build_model(ideal_design(t_sample=1e-9), cfg)
            plan = plan_test(20e6, 4096, 4, 2e6, amplitude=0.5)
            codes = run_segments(model, plan, noise=False)
            report = spectrum_metrics(codes, plan, power=1e-3, n_bits=n)
            assert report.sndr_db == pytest.approx(6.02 * n + 1.76, abs=0.3), n


def test_criterion_4_interleave_equivalence():
    with _Clock(30.0, "criterion 4: segmented captures bit-identical, noise on"):
        cfg = AdcConfig(n_bits=12, f_s=20e6, v_dd=1.0, r_drv_cap=150.0)
        from conftest import sane_design

        model = build_model(sane_design(), cfg)
        plan_full = plan_test(20e6, 1024, 1, 2e6, amplitude=0.475, seed=17)
        reference = run_segments(model, plan_full, noise=True)
        ref_report = spectrum_metrics(reference, plan_full, 1e-3, 12)
        for m in (1, 2, 4, 8):
            plan = plan_test(20e6, 1024, m, 2e6, amplitude=0.475, seed=17)
            merged = run_segments(model, plan, noise=True)
            assert np.array_equal(merged, reference), f"M={m} codes differ"
            report = spectrum_metrics(merged, plan, 1e-3, 12)
            assert report.sndr_db - ref_report.sndr_db == 0.0


def test_criterion_5_budget_reconstruction():
    with _Clock(1.0, "criterion 5: error powers reconstruct the quantization budget"):
        for n in range(2, 17):
            lsb = 1.0 / 2**n
            delta = per_bit_error_budget(n)
            i = np.arange(1, n + 1)
            v_err = 2.0 ** (n - i) * lsb * delta
            total = float(np.sum(v_err**2))
            assert abs(total - lsb**2 / 12.0) <= 1e-12 * (lsb**2 / 12.0), n


def test_criterion_6_local_optimizer():
    with _Clock(30.0, "criterion 6: frozen-mask quadratic + blend hand traces"):
        d = 10
        bounds = np.array([[0.0, 1.0]] * d)
        target = np.linspace(0.17, 0.73, d)
        weights = np.linspace(1.0, 3.0, d)

        def f(x):
            return float(np.sum(weights * (np.asarray(x) - target) ** 2))

        mask = np.zeros(d, bool)
        mask[5:] = True
        x0 = np.full(d, 0.95)
        res = run_local(x0, mask, f, None, LocalParams(eps=1e-3), bounds)
        assert res.iterations <= 60
        assert np.max(np.abs(res.x_best[:5] - target[:5])) < 1e-3
        np.testing.assert_array_equal(res.x_best[5:], x0[5:])

        assert blend_decision(10.0, 12.0, 11.0, 0.5, 2.0) == (6.0, False)
        assert blend_decision(1.0, 10.0, 2.0, 0.5, 1.0) == (4.5, True)
        f_blend, rollback = blend_decision(7.0, 1.0, 2.0, 0.5, 1.0)
        assert f_blend == 3.5 and not rollback  # improving expensive: no penalty


def test_criterion_7_global_optimizer():
    with _Clock(60.0, "criterion 7: constrained sphere over 10 seeds"):
        def evaluate_batch(xs):
            return np.sum(xs**2, axis=1), xs[:, :1] - 0.5

        problem = Problem(bounds=np.array([[0.0, 1.0]] * 3), evaluate_batch=evaluate_batch)
        objectives, violations = [], []
        for seed in range(10):
            state = run_global(problem, GlobalParams(max_evals=3000, seed=seed))
            assert state.evals <= 3000
            objectives.append(state.best.objective)
            violations.append(state.best.violation)
        assert float(np.median(violations)) == 0.0
        assert float(np.median(objectives)) <= 0.25 * 1.05


DESK_CONFIG = """
N: 8
fs: 1.0e6
V_DD: 1.0
seed: 7
bounds:
  c_unit: [0.5e-15, 20.0e-15]
  r_sw: [50.0, 5000.0]
  t_sample: [50.0e-9, 400.0e-9]
  sigma_cmp: [10.0e-6, 2.0e-3]
  t_d0: [0.05e-9, 5.0e-9]
  tau_reg: [0.02e-9, 2.0e-9]
  r_drv_msb: [100.0, 10000.0]
  t_dff: [0.1e-9, 10.0e-9]
global: {pop_size: 40, max_evals: 2000}
local: {max_iter: 80}
harness: {K: 512, M: 4}
"""


def test_criterion_8_end_to_end_desk_run(tmp_path):
    with _Clock(600.0, "criterion 8: 8-bit desk run feasible, reproducible"):
        cfg = load_config(DESK_CONFIG, is_text=True)
        result = run_pipeline(cfg, out_dir=tmp_path / "main")

        assert np.all(result.coarse.slack >= 0.0), "coarse constraint violated"
        assert result.spectrum.enob >= 8 - 1.5, result.spectrum.enob

        cfg2 = load_config(DESK_CONFIG, is_text=True)
        run_pipeline(cfg2, out_dir=tmp_path / "rerun")
        main_rec = (tmp_path / "main" / "run_record.json").read_bytes()
        assert main_rec == (tmp_path / "rerun" / "run_record.json").read_bytes()


def test_criterion_9_pattern_search_degeneration():
    with _Clock(30.0, "criterion 9: plain pattern search recovered at lambda=inf"):
        for name in sorted(FUNCTIONS):
            f, bounds, x0 = FUNCTIONS[name]
            mine, ref = [], []

            def logged(log, fn):
                def wrapped(x):
                    log.append(np.asarray(x, float).copy())
                    return fn(x)

                return wrapped

            res = run_local(
                x0.copy(),
                np.zeros(len(x0), bool),
                logged(mine, f),
                None,
                LocalParams(expensive_every=math.inf, max_iter=150),
                bounds,
            )
            ref_x, ref_f, _ = reference_pattern_search(
                logged(ref, f), x0.copy(), bounds, max_iter=150
            )
            assert len(mine) == len(ref), name
            for a, b in zip(mine, ref):
                assert np.array_equal(a, b), name
            assert np.array_equal(res.x_best, ref_x), name
            assert res.f_cheap == ref_f, name
