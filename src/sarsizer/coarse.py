"""Cheap single-point measurements and constraint aggregation.

Three measurements, each deterministic and independent per candidate:
a noise-free full-scale conversion (sampling error, step ratios, timing),
a closed-form thermal-noise total, and an average-power estimate over a
fixed input grid.  Slacks are signed margins, positive when satisfied,
so optimizers always get a continuous feasibility signal.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .adc import AdcModel, convert_rows, sample_input
from .errors import SpecError
from .specs import DerivedSpecs

# Substitute for step ratios that cannot be formed (dead or zero steps);
# large enough to dominate any bound, finite so violation sums stay usable.
SSRE_INVALID = 1e9

POWER_GRID_POINTS = 8
ROWS = 1 + POWER_GRID_POINTS  # kernel rows per candidate: single point + grid


@dataclass
class CoarseReport:
    """Single-candidate result of the cheap evaluation phase."""

    sampling_error: float      # V
    ssre: np.ndarray           # measured step-ratio errors, i = 1..N-1
    noise_rms: float           # V
    power: float               # W
    timing_ok: bool
    slack: np.ndarray          # signed margins: ssre..., sampling, noise, timing

    @property
    def feasible(self) -> bool:
        return bool(np.all(self.slack >= 0.0))


def step_ratio_errors(steps: np.ndarray) -> np.ndarray:
    """|step_i / step_{i+1} - 2| for adjacent applied steps (along the last axis).

    Pairs involving a missing step (typically a timing-dead bit) get the
    finite SSRE_INVALID sentinel instead of inf/nan.
    """
    steps = np.asarray(steps, dtype=float)
    out = np.full(steps[..., 1:].shape, SSRE_INVALID)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = steps[..., :-1] / steps[..., 1:]
    valid = (steps[..., :-1] > 0) & (steps[..., 1:] > 0)
    out[valid] = np.abs(ratio[valid] - 2.0)
    return out


def _measure(models: Sequence[AdcModel]):
    """Per-candidate sampling error, step-ratio errors, timing flag and
    average power, from one noise-free kernel call.  Candidate c owns rows
    c*ROWS .. c*ROWS+ROWS-1: the input at the supply, then the power grid."""
    v_in = np.array([[m.cfg.v_dd, *power_grid(m)] for m in models])
    sampled = np.array([sample_input(m, v, v_prev=0.0) for m, v in zip(models, v_in)])
    owner = np.repeat(np.arange(len(models)), ROWS)
    conv = convert_rows(models, sampled.ravel(), owner=owner, charge=True)
    power = conv.e_total.reshape(-1, ROWS)[:, 1:].mean(axis=1) * models[0].cfg.f_s
    single = slice(None, None, ROWS)
    return (np.abs(v_in - sampled)[:, 0], step_ratio_errors(conv.applied_step[single]),
            conv.timing_ok[single], power)


def thermal_noise_estimate(model: AdcModel) -> float:
    """Total rms noise: sampled kT/C plus comparator input-referred noise."""
    return math.sqrt(model.kt_c_sigma**2 + model.design.sigma_cmp**2)


def power_grid(model: AdcModel) -> np.ndarray:
    """Fixed differential inputs spanning full scale for the power average."""
    half = model.v_fs / 2.0
    return np.linspace(-half, half, POWER_GRID_POINTS)


def power_estimate(model: AdcModel) -> float:
    """Average supply power over the deterministic input grid."""
    return float(_measure([model])[3][0])


def evaluate_coarse(
    model: AdcModel | Sequence[AdcModel], specs: DerivedSpecs
) -> CoarseReport | list[CoarseReport]:
    """All three measurements plus the signed constraint-margin vector.

    A sequence of models (one AdcConfig) runs in one kernel call and gives
    one report per model, each equal to the model's own batch-of-one report.

    Slack layout matches specs.constraint_labels(): N-1 step-ratio margins,
    sampling, noise, then timing mapped to +1/-1.
    """
    models = [model] if isinstance(model, AdcModel) else list(model)
    if any(m.cfg.n_bits != specs.n_bits for m in models):
        raise SpecError(f"specs for {specs.n_bits} bits, model has {models[0].cfg.n_bits}")
    error, ssre, timing_ok, power = _measure(models)
    noise = np.array([thermal_noise_estimate(m) for m in models])
    slack = np.column_stack([
        specs.ssre_bound - ssre,
        specs.sampling_bound - error,
        specs.noise_bound - noise,
        np.where(timing_ok, 1.0, -1.0),
    ])
    reports = [
        CoarseReport(float(error[c]), ssre[c], float(noise[c]), float(power[c]),
                     bool(timing_ok[c]), slack[c])
        for c in range(len(models))
    ]
    return reports[0] if isinstance(model, AdcModel) else reports
