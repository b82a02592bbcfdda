"""Adapters exposing the behavioral ADC as optimization objectives.

Each value an adapter returns depends only on its constructor state and
the point scored.  ``CheapObjective`` also keeps state of its own, two
memos (the rows it has scored, and their noise-free conversions keyed by
every field but sigma_cmp), so one instance serves one local run;
``CoarseProblem``, which the global phase and repeated runs share, keeps
none.  ``ExpensiveObjective`` caches the stimulus, power grid included,
and the bounds box that its constructor state fixes, so a call is a
bounds check and one ``sine_test``.  It and ``CoarseProblem`` read
their bounds as ``bounds_array`` (``adc.design_box``) does: a field the
bounds omit is unbounded, and ``global_opt.Problem`` rejects such a box,
so a search never runs on a partial one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .adc import AdcConfig, check_designs, kernel_out
from .adc import design_box as bounds_array  # bounds dict -> (d, 2) box, DESIGN_FIELDS order
from .coarse import CoarseReport, evaluate_coarse
from .sndr import TestPlan, largest_block, sine_stimuli, sine_test, spectrum_metrics
from .specs import DerivedSpecs

# Fallback anchor when the starting design draws no power at all.
MIN_POWER_SCALE = 1e-12
VIOLATION_WEIGHT = 10.0


@dataclass(frozen=True)
class CoarseProblem:
    """Cheap evaluation of design vectors: power objective, signed slacks.
    Every batch is checked against the bounds before its kernel call."""

    cfg: AdcConfig
    specs: DerivedSpecs
    bounds: dict[str, tuple[float, float]]

    @cached_property
    def box(self) -> np.ndarray:
        return bounds_array(self.bounds)

    def report(self, x: np.ndarray) -> CoarseReport:
        return evaluate_coarse(self.cfg, np.array([x], dtype=float), self.specs, self.box).row(0)

    def evaluate_batch(self, xs: np.ndarray, memo: dict | None = None
                       ) -> tuple[np.ndarray, np.ndarray]:
        """Powers (n,) and slacks (n, m) of the rows of xs, from at most
        one kernel call, which skips the rows whose conversions the
        caller's memo holds (``evaluate_coarse``); each row's result
        equals its own report's."""
        batch = evaluate_coarse(self.cfg, np.asarray(xs, dtype=float), self.specs, self.box, memo)
        return batch.power, batch.slack


@dataclass(eq=False)
class CheapObjective:
    """Scalar nonnegative target for the local phase, scored in batches.

    Power normalized by the phase's starting power plus a weighted sum of
    normalized constraint violations; zero only for a feasible zero-power
    design, so the rollback comparison stays meaningful.

    Two memos, which live as long as the instance: one instance per local
    run.  scored keeps every row's power and slacks, in the order rows
    were first scored, so no row (by its bytes) is scored twice.
    converted keeps every noise-free conversion (``coarse.convert``) by
    its key, every field but sigma_cmp (``adc.conversion_keys``), so a
    probe that moves only sigma_cmp is checked and priced, but makes no
    kernel call.
    """

    problem: CoarseProblem
    power_scale: float
    slack_scale: np.ndarray
    scored: dict = field(default_factory=dict, init=False, repr=False)  # bytes -> (power, slacks)
    converted: dict = field(default_factory=dict, init=False, repr=False)  # key -> conversion row

    @classmethod
    def anchored_at(cls, problem: CoarseProblem, x0: np.ndarray) -> "CheapObjective":
        s = problem.specs  # each violation is measured against its own bound
        scales = np.concatenate([s.ssre_bound, [s.sampling_bound, s.noise_bound, 1.0]])
        cheap = cls(problem, MIN_POWER_SCALE, scales)
        [power], _ = cheap._score(np.asarray(x0, dtype=float)[None])  # x0 is now scored
        cheap.power_scale = max(float(power), MIN_POWER_SCALE)
        return cheap

    def _score(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Powers (n,) and slacks (n, m) of the rows of xs; the rows not
        scored before are priced together, and those whose conversions
        are new go to the kernel in one call."""
        keys = [x.tobytes() for x in xs]
        new = {key: x for key, x in zip(keys, xs) if key not in self.scored}
        if new:
            powers, slacks = self.problem.evaluate_batch(np.array(list(new.values())),
                                                         self.converted)
            self.scored.update(zip(new, zip(powers, slacks)))
            if len(new) == len(keys):  # every row new and distinct: the batch is xs
                return powers, slacks
        return (np.array([self.scored[key][0] for key in keys]),
                np.array([self.scored[key][1] for key in keys]))

    def __call__(self, xs: np.ndarray) -> np.ndarray:
        """Values (n,) of the rows of xs, from at most one kernel call."""
        powers, slacks = self._score(np.asarray(xs, dtype=float))
        violation = np.maximum(0.0, -slacks) / self.slack_scale
        return powers / self.power_scale + VIOLATION_WEIGHT * violation.sum(axis=1)

    def best_feasible(self) -> np.ndarray | None:
        """The first-scored row of least value among the scored rows whose
        slacks are all >= 0, or None.  Such a row's value is its power over
        power_scale, bit for bit: its violation term is zero."""
        values = {key: power / self.power_scale for key, (power, slack) in self.scored.items()
                  if np.all(slack >= 0.0) and power / self.power_scale < np.inf}
        return np.frombuffer(min(values, key=values.get)).copy() if values else None


@dataclass(frozen=True)
class ExpensiveObjective:
    """Full sine-test score for the local phase: minimize -FoM_S.

    FoM_S folds measured SNDR and estimated power into one figure, so the
    expensive checkpoints guard exactly what the coarse tests approximate.
    Each call is one ``sine_test``: the capture and the power grid convert
    in one kernel call per block, and the value equals the one built from
    ``run_segments`` and ``power_estimate``.  A point outside bounds (a
    field bounds omits is unbounded) raises BoundsError, and an unusable
    capture (e.g. every conversion timing-dead) MetricsError; run_local
    scores either as +inf and counts it as failed.
    """

    cfg: AdcConfig
    plan: TestPlan
    bounds: dict[str, tuple[float, float]]
    noise: bool = True

    @cached_property
    def box(self) -> np.ndarray:
        return bounds_array(self.bounds)

    @cached_property
    def stimuli(self) -> tuple:
        """Every block's stimulus, power grid included, built on the first
        call: it depends on (plan, cfg, noise) only, so each capture of
        this objective reuses it."""
        return sine_stimuli(self.cfg, self.plan, self.noise)

    @cached_property
    def kernel_arrays(self) -> tuple[np.ndarray, ...]:
        """The kernel's arrays, made on the first call; every capture
        overwrites them."""
        return kernel_out(self.cfg.n_bits, largest_block(self.plan))

    def __call__(self, x: np.ndarray) -> float:
        row = np.asarray(x, dtype=float)[None]
        check_designs(row, self.box)
        codes, _, power = sine_test(self.cfg, row, self.plan, stimuli=self.stimuli,
                                    out=self.kernel_arrays)
        return -spectrum_metrics(codes, self.plan, power, self.cfg.n_bits).fom_s
