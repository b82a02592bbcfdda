"""Cheap single-point measurements and constraint aggregation.

Three measurements, each deterministic and independent per candidate:
a noise-free full-scale conversion (sampling error, step ratios, timing),
a closed-form thermal-noise total, and an average-power estimate over a
fixed input grid.  Slacks are signed margins, positive when satisfied,
so optimizers always get a continuous feasibility signal.

``evaluate_coarse`` measures an (n, d) design matrix in one kernel call;
each field of its ``CoarseReport`` holds a row per design.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .adc import (AdcConfig, AdcModel, check_designs, conversion_energy, convert_rows, sample_input,
                  sampling_constants)
from .errors import SpecError
from .specs import DerivedSpecs

# Substitute for step ratios that cannot be formed (dead or zero steps);
# large enough to dominate any bound, finite so violation sums stay usable.
SSRE_INVALID = 1e9

POWER_GRID_POINTS = 8


@dataclass
class CoarseReport:
    """Result of the cheap evaluation phase: of one candidate, or with a
    leading row axis on every field, of a batch (``evaluate_coarse``)."""

    sampling_error: float      # V
    ssre: np.ndarray           # measured step-ratio errors, i = 1..N-1
    noise_rms: float           # V
    power: float               # W
    timing_ok: bool
    slack: np.ndarray          # signed margins: ssre..., sampling, noise, timing

    @property
    def feasible(self) -> bool:
        return bool(np.all(self.slack >= 0.0))

    def row(self, c: int) -> "CoarseReport":
        """Candidate c's report from a batch, its scalars as Python numbers."""
        return CoarseReport(float(self.sampling_error[c]), self.ssre[c], float(self.noise_rms[c]),
                            float(self.power[c]), bool(self.timing_ok[c]), self.slack[c])


def step_ratio_errors(steps: np.ndarray) -> np.ndarray:
    """|step_i / step_{i+1} - 2| for adjacent applied steps (along the last axis).

    Pairs involving a missing step (typically a timing-dead bit) get the
    finite SSRE_INVALID sentinel instead of inf/nan.
    """
    steps = np.asarray(steps, dtype=float)
    upper, lower = steps[..., :-1], steps[..., 1:]
    valid = upper > 0.0
    valid &= lower > 0.0
    errors = np.full(valid.shape, SSRE_INVALID)
    np.divide(upper, lower, out=errors, where=valid)
    np.subtract(errors, 2.0, out=errors, where=valid)
    return np.abs(errors, out=errors, where=valid)


@lru_cache(maxsize=16)
def _inputs(cfg: AdcConfig) -> np.ndarray:
    """Each candidate's inputs: the supply, then the power grid (shared, so read-only)."""
    v_in = np.array([cfg.v_dd, *power_grid(cfg)])
    v_in.flags.writeable = False
    return v_in


@lru_cache(maxsize=64)
def _owner(n: int) -> np.ndarray:
    """The kernel rows' candidates in a batch of n (shared, so read-only):
    every supply row, then each candidate's power grid."""
    owner = np.concatenate([np.arange(n), np.repeat(np.arange(n), POWER_GRID_POINTS)])
    owner.flags.writeable = False
    return owner


def _measure(cfg: AdcConfig, designs: np.ndarray):
    """Per-candidate sampling error, step-ratio errors, rms noise, average
    power and timing flag, from one noise-free kernel call over
    1 + POWER_GRID_POINTS rows per candidate (``_inputs``) held from rest:
    every supply row, then each candidate's power grid.  The noise total stays a per-row Python float
    expression, as a lone candidate's: ``**`` is libm pow, unlike numpy's x*x."""
    n = len(designs)
    v_in, owner = _inputs(cfg), _owner(n)
    tau_smp, kt_c_sigma = sampling_constants(cfg, designs)
    sampled = sample_input(cfg, designs, v_in, tau_smp=tau_smp)
    conv = convert_rows(cfg, designs, np.concatenate([sampled[:, 0], sampled[:, 1:].ravel()]),
                        owner=owner)
    single, grid = slice(None, n), slice(n, None)
    power = grid_power(cfg, designs, conv.bits[grid], conv.n_fired[grid], owner[grid])
    sigma_cmp = designs[:, 3]
    noise = [math.sqrt(k**2 + s**2) for k, s in zip(kt_c_sigma.tolist(), sigma_cmp.tolist())]
    return (np.abs(v_in[0] - sampled[:, 0]), step_ratio_errors(conv.applied_step[single]),
            np.array(noise), power, conv.timing_ok[single])


def power_grid(cfg: AdcConfig) -> np.ndarray:
    """Fixed differential inputs spanning full scale for the power average."""
    half = cfg.v_dd / 2.0
    return np.linspace(-half, half, POWER_GRID_POINTS)


def grid_power(cfg: AdcConfig, designs: np.ndarray, bits: np.ndarray, n_fired: np.ndarray,
               owner: np.ndarray | None = None) -> np.ndarray:
    """Average supply power per design over its power grid: the rows of
    (bits, n_fired) are noise-free conversions of ``power_grid`` held from
    rest, POWER_GRID_POINTS consecutive rows per design, on designs[owner]
    as in ``convert_rows``.  The charge post-pass runs on these rows only."""
    _, e_total = conversion_energy(cfg, designs, bits, n_fired, owner)
    return e_total.reshape(-1, POWER_GRID_POINTS).sum(axis=1) / POWER_GRID_POINTS * cfg.f_s


def power_estimate(model: AdcModel) -> float:
    """Average supply power over the deterministic input grid."""
    return float(_measure(model.cfg, model.row)[3][0])


def evaluate_coarse(cfg: AdcConfig, designs: np.ndarray, specs: DerivedSpecs,
                    box: np.ndarray | None = None) -> CoarseReport:
    """All three measurements plus the signed constraint-margin vector of
    each row of the (n, d) design matrix (DESIGN_FIELDS order), in one
    kernel call after ``check_designs`` against box if one is given.  Each
    field has one entry per row; ``row(c)`` equals row c's batch of one.

    Slack layout matches specs.constraint_labels(): N-1 step-ratio margins,
    sampling, noise, then timing mapped to +1/-1.
    """
    if cfg.n_bits != specs.n_bits:
        raise SpecError(f"specs for {specs.n_bits} bits, model has {cfg.n_bits}")
    if box is not None:
        check_designs(designs, box)
    error, ssre, noise, power, timing_ok = _measure(cfg, designs)
    slack = np.empty((len(designs), cfg.n_bits + 2))
    np.subtract(specs.ssre_bound, ssre, out=slack[:, :-3])
    np.subtract(specs.sampling_bound, error, out=slack[:, -3])
    np.subtract(specs.noise_bound, noise, out=slack[:, -2])
    slack[:, -1] = np.where(timing_ok, 1.0, -1.0)
    return CoarseReport(error, ssre, noise, power, timing_ok, slack)
