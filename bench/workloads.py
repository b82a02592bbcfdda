"""The three benchmark workloads, driven only through sarsizer's public API.

Each workload is built from the workload seed (``__init__`` is the set-up
that ``setup_s`` times: config parsing, plan building, input generation),
then runs ``op`` repeatedly.  ``check`` verifies one operation's output
outside the timed region and raises ``CheckFailed``; ``finish`` makes the
checks that need the whole run; ``quality`` gives the design-quality
end-to-end metrics; ``layers`` derives per-layer counts from one traced
operation's output.  No workload sets ``workers``: on small machines the
process pools lose to serial code.
"""

from __future__ import annotations

import dataclasses
import math
import shutil
import statistics
from pathlib import Path

import numpy as np

from sarsizer import adc, coarse, local_opt, pipeline, problem, sndr, specs
from sarsizer.errors import MetricsError

# The 8-bit desk config of the acceptance suite, with one addition.  Under
# most seeds it hands off early: seeds 1-7 stop after 496-1,272
# evaluations, except 5 and 7, which spend the 2,000-evaluation budget.
# Even with n_conv_target 8 some seeds collapse all eight variables, so
# the run time would depend on the seed more than on the code.
# n_conv_target: 9, one more than the number of design variables, turns
# the convergence handoff off: under every seed the global phase spends
# the whole budget, as seed 7 does without it.  `seed` is replaced by the
# workload seed.
DESK8_CONFIG = """
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
global: {pop_size: 40, max_evals: 2000, n_conv_target: 9}
local: {max_iter: 80}
harness: {K: 512, M: 4}
"""

# `sarsizer sndr --segments 8` on a functioning 12-bit, 20 MS/s design
# whose DAC drivers settle every step (r_drv_cap 150 Ohm).
VERIFY12_CONFIG = """
N: 12
fs: 20.0e6
V_DD: 1.0
r_drv_cap: 150.0
harness: {K: 65536, M: 8}
"""
VERIFY12_DESIGN = {
    "c_unit": 0.5e-15,
    "r_sw": 200.0,
    "t_sample": 15e-9,
    "sigma_cmp": 2e-4,
    "t_d0": 5e-11,
    "tau_reg": 1.5e-11,
    "r_drv_msb": 20.0,
    "t_dff": 1e-9,
}
# Quantization plus the design's 0.22 mV rms thermal noise against a
# 0.95 full-scale sine predict 10.2 bits; a noise-stream change moves the
# measured value by about 0.005.
VERIFY12_ENOB = (9.7, 10.7)

REFINE8_STARTS = 16
REFINE8_FREE = ("c_unit", "r_sw", "sigma_cmp", "r_drv_msb")

# The best objective is "reached" once within this share of its final value.
BEST_TOLERANCE = 1e-3


class CheckFailed(Exception):
    """An operation's output is wrong."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def accepted_moves(history: list[dict], delta_init: float, n_free: int) -> int:
    """Local iterations that kept a move.

    A failed probe and a rollback both halve every free step, so an
    iteration kept its move exactly when it did not roll back and its step
    norm did not drop.
    """
    previous = delta_init * math.sqrt(n_free)
    accepted = 0
    for row in history:
        if not row["rollback"] and row["delta_norm"] > 0.75 * previous:
            accepted += 1
        previous = row["delta_norm"]
    return accepted


def _average_ranks(keys: list) -> np.ndarray:
    order = sorted(range(len(keys)), key=keys.__getitem__)
    ranks = np.empty(len(keys))
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and keys[order[j + 1]] == keys[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0
        i = j + 1
    return ranks


def rank_correlation(ranked: list[np.ndarray], archive) -> float:
    """Mean Spearman correlation, over generations, between the order the
    surrogate chose infill points in and their true (violation, objective)
    order.  Generations whose evaluated points all tie are skipped."""
    truth = {rec.x.tobytes(): (rec.violation, rec.objective) for rec in archive}
    rhos = []
    for rows in ranked:
        keys = [truth[key] for key in (np.asarray(r, float).tobytes() for r in rows)
                if key in truth]
        if len(keys) < 2:
            continue
        true_rank = _average_ranks(keys)
        if np.ptp(true_rank) == 0.0:
            continue
        rhos.append(float(np.corrcoef(np.arange(len(keys)), true_rank)[0, 1]))
    return statistics.fmean(rhos) if rhos else 0.0


def evals_to_best(history: list[dict]) -> int:
    """Evaluations until the best objective is within BEST_TOLERANCE of its
    final value, at no more violation than the final best."""
    final = history[-1]
    limit = final["best_objective"] + BEST_TOLERANCE * abs(final["best_objective"])
    return next(
        row["evals"] for row in history
        if row["best_violation"] <= final["best_violation"]
        and row["best_objective"] <= limit
    )


class Desk8:
    """One in-process ``sarsizer run`` of the desk config, writing a run
    directory: the designer's main job."""

    name = "desk8"

    def __init__(self, seed: int, work_dir: Path):
        np.seterr(over="ignore")  # as the CLI does
        self.cfg = pipeline.load_config(DESK8_CONFIG, is_text=True)
        self.cfg.seed = seed
        self.work_dir = work_dir
        self.record: bytes | None = None
        self.powers: list[float] = []
        self.enobs: list[float] = []
        self.feasible: list[bool] = []
        self._ranked: list[np.ndarray] = []
        self.observers = {"global_opt.surrogate_rank": self._observe_rank}

    def op(self, i: int):
        return pipeline.run_pipeline(self.cfg, out_dir=self.work_dir / f"op{i}")

    def check(self, i: int, result) -> None:
        run_dir = self.work_dir / f"op{i}"
        try:
            self.powers.append(result.coarse.power)
            self.enobs.append(result.spectrum.enob)
            self.feasible.append(result.coarse.feasible)
            # Some seeds find no coarse-feasible point (23, 31, 33, 42 and 101
            # of 67 seeds tried); feasible_frac measures that, and the check
            # is that the run says so.
            require(result.coarse.feasible or bool(result.warning),
                    "final design violates a coarse constraint without a warning")
            n_bits = self.cfg.adc.n_bits
            require(result.spectrum.enob >= n_bits - 1.5,
                    f"ENOB {result.spectrum.enob:.3f} < {n_bits - 1.5}")
            pipeline.audit_run(run_dir)
            record = (run_dir / pipeline.RECORD_NAME).read_bytes()
            self.record = self.record or record
            require(record == self.record,
                    "run record differs from the first operation's with the same seed")
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)

    def finish(self) -> None:
        pass

    def quality(self) -> dict[str, float]:
        return {
            "design_power_w": statistics.median(self.powers),
            "enob": statistics.median(self.enobs),
            "feasible_frac": statistics.fmean(self.feasible),
        }

    def _observe_rank(self, args, kwargs, chosen) -> None:
        surrogate, candidates = args[0], args[1]
        if surrogate is not None and surrogate.trained:
            self._ranked.append(np.asarray(candidates)[chosen])

    def layers(self, result) -> dict[str, float]:
        g = result.global_state
        gp = self.cfg.global_params
        local = result.local_result
        to_best = evals_to_best(g.history)
        ranked, self._ranked = self._ranked, []
        out = {
            "global_opt.evals": g.evals,
            "global_opt.generations": g.generation,
            "global_opt.stopped_by_budget": float(
                g.evals >= gp.max_evals and int(g.mask.sum()) < gp.n_conv_target
            ),
            "global_opt.evals_to_best": to_best,
            "global_opt.useful_eval_frac": to_best / g.evals,
            "global_opt.surrogate_rank_corr": rank_correlation(ranked, g.archive),
            "local_opt.cheap_evals": local.n_cheap,
            "local_opt.expensive_evals": local.n_expensive,
            "local_opt.rollbacks": local.rollbacks,
            "local_opt.accept_ratio": accepted_moves(
                local.history, self.cfg.local_params.delta_init, int((~g.mask).sum())
            ) / max(local.iterations, 1),
        }
        for phase, seconds in result.phase_timings.items():
            out[f"pipeline.phase.{phase}_s"] = seconds
        return out


class Verify12:
    """One long noisy coherent capture plus its FFT metrics on a fixed
    12-bit design: the pipeline's verify step, with no optimizer."""

    name = "verify12"
    observers: dict = {}

    def __init__(self, seed: int, work_dir: Path):
        np.seterr(over="ignore")
        cfg = pipeline.load_config(VERIFY12_CONFIG, is_text=True)
        cfg.seed = seed
        self.n_bits = cfg.adc.n_bits
        self.noise = cfg.harness.noise
        self.model = adc.build_model(adc.DesignPoint(**VERIFY12_DESIGN), cfg.adc)
        self.plan = pipeline.optimization_plan(cfg.adc.f_s, cfg.adc.v_dd, cfg.harness, seed)
        self.power = coarse.power_estimate(self.model)
        self.codes: np.ndarray | None = None
        self.enobs: list[float] = []
        self.timing_ok_frac = 0.0

    def op(self, i: int):
        codes = sndr.run_segments(self.model, self.plan, noise=self.noise)
        return codes, sndr.spectrum_metrics(codes, self.plan, self.power, self.n_bits)

    def check(self, i: int, out) -> None:
        codes, report = out
        self.enobs.append(report.enob)
        require(math.isfinite(report.sndr_db), f"SNDR {report.sndr_db} is not finite")
        lo, hi = VERIFY12_ENOB
        require(lo <= report.enob <= hi, f"ENOB {report.enob:.3f} outside [{lo}, {hi}]")
        if self.codes is None:
            self.codes = codes
        require(np.array_equal(codes, self.codes),
                "capture differs from the first operation's with the same seed")

    def finish(self) -> None:
        full_rate = dataclasses.replace(self.plan, m_segments=1)
        codes, ok = sndr.run_segments_detailed(self.model, full_rate, noise=self.noise)
        require(np.array_equal(codes, self.codes),
                f"M={self.plan.m_segments} capture differs from the M=1 capture")
        self.timing_ok_frac = float(ok.mean())

    def quality(self) -> dict[str, float]:
        # No design is sized here, so the feasibility this workload can
        # show is the timing constraint: the share of conversions that
        # finished within the conversion period.
        return {
            "design_power_w": self.power,
            "enob": statistics.median(self.enobs),
            "feasible_frac": self.timing_ok_frac,
        }

    def layers(self, out) -> dict[str, float]:
        return {}


class Refine8:
    """The blended local phase at lambda = 1 from seeded random starts on
    the desk problem, with four variables frozen."""

    name = "refine8"
    observers: dict = {}

    def __init__(self, seed: int, work_dir: Path):
        np.seterr(over="ignore")
        cfg = pipeline.load_config(DESK8_CONFIG, is_text=True)
        cfg.seed = seed
        self.n_bits = cfg.adc.n_bits
        derived = specs.DerivedSpecs.derive(cfg.adc.n_bits, cfg.adc.v_dd, cfg.alpha)
        self.coarse_problem = problem.CoarseProblem(
            cfg=cfg.adc, specs=derived, bounds=cfg.bounds
        )
        self.bounds = problem.bounds_array(cfg.bounds)
        self.plan = pipeline.optimization_plan(cfg.adc.f_s, cfg.adc.v_dd, cfg.harness, seed)
        self.expensive = problem.ExpensiveObjective(
            cfg=cfg.adc, plan=self.plan, bounds=cfg.bounds, noise=cfg.harness.noise
        )
        self.params = dataclasses.replace(cfg.local_params, expensive_every=1)
        self.mask = np.array([name not in REFINE8_FREE for name in adc.DESIGN_FIELDS])
        lo, hi = self.bounds[:, 0], self.bounds[:, 1]
        rng = np.random.default_rng(seed)
        self.starts = lo + rng.random((REFINE8_STARTS, len(lo))) * (hi - lo)
        self.first: list[tuple] | None = None
        self.x_best: list[np.ndarray] = []

    def op(self, i: int):
        return [
            local_opt.run_local(
                x0,
                self.mask,
                problem.CheapObjective.anchored_at(self.coarse_problem, x0),
                self.expensive,
                self.params,
                self.bounds,
            )
            for x0 in self.starts
        ]

    def check(self, i: int, results) -> None:
        summary = []
        for x0, res in zip(self.starts, results):
            x = res.x_best
            require(x[self.mask].tobytes() == x0[self.mask].tobytes(),
                    "a frozen coordinate moved")
            require(bool(np.all((x >= self.bounds[:, 0]) & (x <= self.bounds[:, 1]))),
                    "refined design outside the bounds")
            summary.append((x.tobytes(), res.n_cheap, res.n_expensive, res.rollbacks,
                            res.iterations))
        if self.first is None:
            self.first = summary
            self.x_best = [res.x_best for res in results]
        require(summary == self.first,
                "result or counts differ from the first operation's with the same seed")

    def finish(self) -> None:
        pass

    def quality(self) -> dict[str, float]:
        powers, feasible, enobs = [], [], []
        for x in self.x_best:
            report = self.coarse_problem.report(x)
            powers.append(report.power)
            feasible.append(report.feasible)
            model = adc.build_model(
                adc.DesignPoint.from_vector(x), self.coarse_problem.cfg, self.coarse_problem.bounds
            )
            codes = sndr.run_segments(model, self.plan, noise=self.expensive.noise)
            try:
                enobs.append(sndr.spectrum_metrics(codes, self.plan, report.power,
                                                   self.n_bits).enob)
            except MetricsError:
                enobs.append(0.0)  # an unusable capture resolves no bits
        return {
            "design_power_w": statistics.median(powers),
            "enob": statistics.median(enobs),
            "feasible_frac": statistics.fmean(feasible),
        }

    def layers(self, results) -> dict[str, float]:
        iterations = sum(res.iterations for res in results)
        n_free = int((~self.mask).sum())
        accepted = sum(
            accepted_moves(res.history, self.params.delta_init, n_free) for res in results
        )
        return {
            "local_opt.cheap_evals": sum(res.n_cheap for res in results),
            "local_opt.expensive_evals": sum(res.n_expensive for res in results),
            "local_opt.rollbacks": sum(res.rollbacks for res in results),
            "local_opt.accept_ratio": accepted / max(iterations, 1),
        }


WORKLOADS = {w.name: w for w in (Desk8, Verify12, Refine8)}
