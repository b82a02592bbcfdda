"""Cheap single-point measurements and constraint aggregation.

Three measurements, each deterministic and independent per candidate:
a noise-free full-scale conversion (sampling error, step ratios, timing),
a closed-form thermal-noise total, and an average-power estimate over a
fixed input grid.  Slacks are signed margins, positive when satisfied,
so optimizers always get a continuous feasibility signal.

``evaluate_coarse`` measures an (n, d) design matrix: ``convert``, one
noise-free kernel call that reads every field but sigma_cmp, then
``price``.  Each field of its ``CoarseReport`` holds a row per design.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .adc import (AdcConfig, AdcModel, check_designs, conversion_energy, conversion_keys,
                  convert_rows, reference_charge, sample_input, sampling_constants)
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


class CoarseConversions(NamedTuple):
    """``convert``'s result: one entry or row per design."""

    sampling_error: np.ndarray  # (n,) V
    kt_c_sigma: np.ndarray      # (n,) sampled thermal noise, V rms
    timing_ok: np.ndarray       # (n,)
    ssre: np.ndarray            # (n, N-1)
    q_ref: np.ndarray           # (n, POWER_GRID_POINTS) reference charge of each grid row, C
    n_fired: np.ndarray         # (n, POWER_GRID_POINTS) fired decisions of each grid row


def convert(cfg: AdcConfig, designs: np.ndarray) -> CoarseConversions:
    """The noise-free part of the coarse tests of the (n, d) designs: one
    kernel call over 1 + POWER_GRID_POINTS rows per design (``_inputs``)
    held from rest, every supply row, then each design's power grid, and
    the grid rows' charges (``reference_charge``).  Nothing here reads
    sigma_cmp: designs with one ``conversion_keys`` key get equal entries."""
    n = len(designs)
    v_in, owner = _inputs(cfg), _owner(n)
    tau_smp, kt_c_sigma = sampling_constants(cfg, designs)
    sampled = sample_input(cfg, designs, v_in, tau_smp=tau_smp)
    conv = convert_rows(cfg, designs, np.concatenate([sampled[:, 0], sampled[:, 1:]], axis=None),
                        owner=owner)
    single, grid = slice(None, n), slice(n, None)
    fired = conv.n_fired[grid]
    q_ref = reference_charge(cfg, designs, conv.bits[grid], fired, owner[grid]).sum(axis=1)
    return CoarseConversions(np.abs(v_in[0] - sampled[:, 0]), kt_c_sigma,
                             conv.timing_ok[single], step_ratio_errors(conv.applied_step[single]),
                             q_ref.reshape(n, POWER_GRID_POINTS),
                             fired.reshape(n, POWER_GRID_POINTS))


def _convert_once(cfg: AdcConfig, designs: np.ndarray, memo: dict) -> CoarseConversions:
    """``convert`` of designs, each distinct ``conversion_keys`` key
    converted at most once over the memo's lifetime: memo keeps each key's
    conversions as one float row, the fields of ``CoarseConversions`` in
    order, and rows whose key it holds make no kernel call."""
    keys = conversion_keys(designs)
    new = {}
    for c, key in enumerate(keys):
        if key not in memo:
            new.setdefault(key, c)
    if new:
        conv = convert(cfg, designs[list(new.values())])
        memo.update(zip(new, np.column_stack(conv)))
        if len(new) == len(keys):  # every row new and distinct: the batch's conversions
            return conv
    rows = np.array([memo[key] for key in keys])
    q, f = cfg.n_bits + 2, cfg.n_bits + 2 + POWER_GRID_POINTS  # where q_ref and n_fired start
    return CoarseConversions(rows[:, 0], rows[:, 1], rows[:, 2] != 0.0, rows[:, 3:q],
                             rows[:, q:f], rows[:, f:])


def power_grid(cfg: AdcConfig) -> np.ndarray:
    """Fixed differential inputs spanning full scale for the power average."""
    half = cfg.v_dd / 2.0
    return np.linspace(-half, half, POWER_GRID_POINTS)


def grid_power(cfg: AdcConfig, designs: np.ndarray, q_ref: np.ndarray,
               n_fired: np.ndarray) -> np.ndarray:
    """Average supply power per design of the (n, d) designs over its
    power grid: q_ref and n_fired hold the reference charge and fired
    count of each design's noise-free conversions of ``power_grid`` held
    from rest, POWER_GRID_POINTS consecutive entries per design.  Prices
    them by ``conversion_energy``; one design's constants are 0-d."""
    if len(designs) == 1:
        sigma_cmp, r_sw = designs[0, 3, ...], designs[0, 1, ...]
    else:
        sigma_cmp, r_sw = designs[:, 3, None], designs[:, 1, None]
    e_total = conversion_energy(cfg, sigma_cmp, r_sw, q_ref.reshape(-1, POWER_GRID_POINTS),
                                n_fired.reshape(-1, POWER_GRID_POINTS))
    return e_total.sum(axis=1) / POWER_GRID_POINTS * cfg.f_s


def power_estimate(model: AdcModel) -> float:
    """Average supply power over the deterministic input grid."""
    conv = convert(model.cfg, model.row)
    return float(grid_power(model.cfg, model.row, conv.q_ref, conv.n_fired)[0])


def price(cfg: AdcConfig, designs: np.ndarray, conv: CoarseConversions,
          specs: DerivedSpecs) -> CoarseReport:
    """The report of the (n, d) designs from their conversions: the grid
    power, the noise total and the slacks, with each design's own
    sigma_cmp.  The noise total stays a per-row Python float expression,
    as a lone candidate's: ``**`` is libm pow, unlike numpy's x*x."""
    power = grid_power(cfg, designs, conv.q_ref, conv.n_fired)
    noise = np.array([math.sqrt(k**2 + s**2)
                      for k, s in zip(conv.kt_c_sigma.tolist(), designs[:, 3].tolist())])
    slack = np.empty((len(designs), cfg.n_bits + 2))
    np.subtract(specs.ssre_bound, conv.ssre, out=slack[:, :-3])
    np.subtract(specs.sampling_bound, conv.sampling_error, out=slack[:, -3])
    np.subtract(specs.noise_bound, noise, out=slack[:, -2])
    slack[:, -1] = np.where(conv.timing_ok, 1.0, -1.0)
    return CoarseReport(conv.sampling_error, conv.ssre, noise, power, conv.timing_ok, slack)


def evaluate_coarse(cfg: AdcConfig, designs: np.ndarray, specs: DerivedSpecs,
                    box: np.ndarray | None = None, memo: dict | None = None) -> CoarseReport:
    """All three measurements plus the signed constraint-margin vector of
    each row of the (n, d) design matrix (DESIGN_FIELDS order), after
    ``check_designs`` against box if one is given: ``convert``, then
    ``price``.  Each field has one entry per row; ``row(c)`` equals row
    c's batch of one.

    Without memo every row converts, in one kernel call.  With memo, a
    dict the caller owns, a row whose ``conversion_keys`` key it holds
    makes no kernel call, and the others convert in one, each distinct
    key once.  Every row is still checked and priced, and the report is
    the memo-free one, bit for bit.

    Slack layout matches specs.constraint_labels(): N-1 step-ratio margins,
    sampling, noise, then timing mapped to +1/-1.
    """
    if cfg.n_bits != specs.n_bits:
        raise SpecError(f"specs for {specs.n_bits} bits, model has {cfg.n_bits}")
    if box is not None:
        check_designs(designs, box)
    conv = convert(cfg, designs) if memo is None else _convert_once(cfg, designs, memo)
    return price(cfg, designs, conv, specs)
