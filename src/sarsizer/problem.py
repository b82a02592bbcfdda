"""Adapters exposing the behavioral ADC as optimization objectives.

Determinism is carried entirely by each adapter's constructor state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .adc import DESIGN_FIELDS, AdcConfig, DesignPoint, build_model
from .coarse import CoarseReport, evaluate_coarse, power_estimate
from .errors import MetricsError
from .sndr import TestPlan, run_segments, segment_stimulus, spectrum_metrics
from .specs import DerivedSpecs

# Fallback anchor when the starting design draws no power at all.
MIN_POWER_SCALE = 1e-12
VIOLATION_WEIGHT = 10.0


def bounds_array(bounds: dict[str, tuple[float, float]]) -> np.ndarray:
    """Bounds dict -> (d, 2) array in design-vector order."""
    return np.array([bounds[name] for name in DESIGN_FIELDS], dtype=float)


@dataclass(frozen=True)
class CoarseProblem:
    """Cheap evaluation of a design vector: power objective, signed slacks."""

    cfg: AdcConfig
    specs: DerivedSpecs
    bounds: dict[str, tuple[float, float]]

    def _model(self, x: np.ndarray):
        return build_model(DesignPoint.from_vector(x), self.cfg, self.bounds)

    def report(self, x: np.ndarray) -> CoarseReport:
        return evaluate_coarse(self._model(x), self.specs)

    def __call__(self, x: np.ndarray) -> tuple[float, np.ndarray]:
        rep = self.report(x)
        return rep.power, rep.slack

    def evaluate_batch(self, xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Powers (n,) and slacks (n, m) of the rows of xs, from one
        kernel call; each row's result equals its own __call__'s."""
        reports = evaluate_coarse([self._model(x) for x in xs], self.specs)
        return np.array([r.power for r in reports]), np.array([r.slack for r in reports])

    def slack_scales(self) -> np.ndarray:
        """Per-constraint magnitudes used to normalize violations."""
        s = self.specs
        return np.concatenate(
            [s.ssre_bound, [s.sampling_bound], [s.noise_bound], [1.0]]
        )


@dataclass(frozen=True)
class CheapObjective:
    """Scalar nonnegative target for the local phase.

    Power normalized by the phase's starting power plus a weighted sum of
    normalized constraint violations; zero only for a feasible zero-power
    design, so the rollback comparison stays meaningful.
    """

    problem: CoarseProblem
    power_scale: float
    slack_scale: np.ndarray

    @classmethod
    def anchored_at(cls, problem: CoarseProblem, x0: np.ndarray) -> "CheapObjective":
        power, _ = problem(x0)
        return cls(
            problem=problem,
            power_scale=max(power, MIN_POWER_SCALE),
            slack_scale=problem.slack_scales(),
        )

    def value_from(self, power: float, slack: np.ndarray) -> float:
        violation = np.maximum(0.0, -slack) / self.slack_scale
        return power / self.power_scale + VIOLATION_WEIGHT * float(violation.sum())

    def __call__(self, x: np.ndarray) -> float:
        return self.value_from(*self.problem(x))


@dataclass(frozen=True)
class ExpensiveObjective:
    """Full sine-test score for the local phase: minimize -FoM_S.

    FoM_S folds measured SNDR and estimated power into one figure, so the
    expensive checkpoints guard exactly what the coarse tests approximate.
    Unusable captures (e.g. every conversion timing-dead) surface as +inf.
    """

    cfg: AdcConfig
    plan: TestPlan
    bounds: dict[str, tuple[float, float]]
    noise: bool = True

    @cached_property
    def stimuli(self) -> tuple:
        """Every segment's stimulus, built on the first call: it depends on
        (plan, N, noise) only, so each capture of this objective reuses it."""
        return tuple(segment_stimulus(self.plan, k, self.cfg.n_bits, self.noise)
                     for k in range(self.plan.m_segments))

    def __call__(self, x: np.ndarray) -> float:
        design = DesignPoint.from_vector(x)
        model = build_model(design, self.cfg, self.bounds)
        codes = run_segments(model, self.plan, noise=self.noise, stimuli=self.stimuli)
        power = power_estimate(model)
        try:
            report = spectrum_metrics(codes, self.plan, power, self.cfg.n_bits)
        except MetricsError:
            return float("inf")
        return -report.fom_s
