"""Coherent sine testing with block-wise capture and FFT metrics.

A capture of K samples at J input cycles (J odd, so coprime to the
power-of-two K) needs no window.  Each conversion's noise is keyed by its
global sample index and its hold history is reconstructed analytically,
so a capture converts in contiguous blocks of CAPTURE_BLOCK samples, one
kernel call each, with the codes of one call over all K.  The paper's M
interleaved segments rest on the same argument: M must divide K and is
recorded, but changes no code and no work.  ``sine_test`` is the one
capture: its last block's call also converts the power grid, so every
capture prices its design.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, fields

import numpy as np

from .adc import (AdcConfig, AdcModel, convert_rows, kernel_out, reference_charge, sample_input,
                  sampling_constants)
from .coarse import POWER_GRID_POINTS, grid_power, power_grid
from .csvio import write_csv
from .errors import MetricsError, PlanError
from .rng import is_seed, noise_matrix

ENOB_OFFSET_DB = 1.76
ENOB_SLOPE_DB = 6.02


@dataclass(frozen=True)
class TestPlan:
    """Coherent capture description."""

    k_points: int      # total samples, power of two
    j_cycles: int      # integer input cycles, odd
    m_segments: int    # the paper's segment count M, divides k_points
    f_s: float         # Hz
    amplitude: float   # differential sine amplitude, V
    seed: int = 0

    def __post_init__(self) -> None:
        k = self.k_points
        if k < 4 or k & (k - 1):
            raise PlanError(f"k_points must be a power of two >= 4, got {k}")
        if self.j_cycles % 2 == 0 or not 0 < self.j_cycles < k // 2:
            raise PlanError(
                f"j_cycles must be odd and inside (0, {k // 2}), got {self.j_cycles}"
            )
        if self.m_segments < 1 or k % self.m_segments:
            raise PlanError(
                f"m_segments must divide k_points, got {self.m_segments}"
            )
        # Written so that NaN, which fails every comparison, breaks the rule.
        for name in ("f_s", "amplitude"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise PlanError(f"{name} must be finite and positive, got {value}")
        if not is_seed(self.seed):
            raise PlanError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))

    @property
    def f_in(self) -> float:
        return self.j_cycles * self.f_s / self.k_points


def plan_test(
    f_s: float,
    k_points: int,
    m_segments: int,
    f_target: float,
    amplitude: float,
    seed: int = 0,
) -> TestPlan:
    """Choose the odd cycle count nearest the target frequency.

    Ties go to the smaller candidate.  Targets at or above Nyquist, or
    capture sizes with no odd cycle count below K/2, are rejected.
    """
    if not 0.0 < f_target < f_s / 2.0:
        raise PlanError(
            f"target frequency {f_target} outside (0, f_s/2 = {f_s / 2.0})"
        )
    j0 = k_points * f_target / f_s
    below = int(math.floor(j0))
    below = below if below % 2 else below - 1
    above = int(math.ceil(j0))
    above = above if above % 2 else above + 1
    j_max = k_points // 2 - 1
    candidates = [j for j in (below, above) if 0 < j <= j_max]
    if not candidates:
        raise PlanError(
            f"no odd cycle count in (0, {k_points // 2}) near target {f_target}"
        )
    j = min(candidates, key=lambda c: (abs(c - j0), c))
    return TestPlan(
        k_points=k_points,
        j_cycles=j,
        m_segments=m_segments,
        f_s=f_s,
        amplitude=amplitude,
        seed=seed,
    )


def _sine(plan: TestPlan, idx: np.ndarray) -> np.ndarray:
    """The planned input at full-rate sample instants idx."""
    return plan.amplitude * np.sin(2.0 * math.pi * plan.f_in * idx * (1.0 / plan.f_s))


# Conversions per kernel call: a 65,536-point capture runs as 8 calls, and
# any capture of up to 8,192 points as one.
CAPTURE_BLOCK = 8192


def block_stimulus(
    cfg: AdcConfig, plan: TestPlan, start: int, noise: bool, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """The design-independent part of the block of conversions from start:
    (input, previous input, noise draws or None).  The last block ends with
    the power grid's POWER_GRID_POINTS rows, held from rest with zero kT/C
    and comparator draws, so they convert as ``coarse`` converts them and
    take no draw from the stream.  It depends on (cfg, plan, start, noise)
    only, so callers that run one plan on many designs may build it once.
    The draws are the first rows of out (float64, Fortran-ordered, n_bits + 1
    columns, at least the block's rows) if given, else of a new array."""
    n, idx = cfg.n_bits, np.arange(start, min(start + CAPTURE_BLOCK, plan.k_points))
    rows, grid = len(idx), power_grid(cfg) if idx[-1] == plan.k_points - 1 else np.empty(0)
    # The draws come first: a capture's memory peaks inside noise_matrix,
    # and the sine and the concatenations are not built yet.  Column 0 is
    # kT/C, columns 1..n the comparator.
    draws = None
    if noise:
        draws = (np.empty((rows + len(grid), n + 1), order="F") if out is None
                 else out[:rows + len(grid)])
        noise_matrix(plan.seed, idx, n, out=draws[:rows])
        draws[rows:] = 0.0
    # Hold history: the array last held the previous full-rate sample's
    # input value.  Reconstructing it analytically (rather than chaining
    # conversions) keeps blocks independent of each other; one sine over
    # start-1 .. stop-1 holds both the inputs and their history.
    v = _sine(plan, np.arange(start - 1, start + rows))
    return np.concatenate([v[1:], grid]), np.concatenate([v[:-1], np.zeros(len(grid))]), draws


def sine_stimuli(cfg: AdcConfig, plan: TestPlan, noise: bool) -> tuple:
    """Every block's stimulus for ``sine_test``, each owning its arrays."""
    return tuple(block_stimulus(cfg, plan, start, noise)
                 for start in range(0, plan.k_points, CAPTURE_BLOCK))


def largest_block(plan: TestPlan) -> int:
    """The most conversions one of plan's blocks makes: the power grid's rows included."""
    return min(plan.k_points, CAPTURE_BLOCK) + POWER_GRID_POINTS


def sine_test(cfg: AdcConfig, row: np.ndarray, plan: TestPlan, noise: bool = True,
              stimuli: Sequence | None = None, out: tuple[np.ndarray, ...] | None = None
              ) -> tuple[np.ndarray, np.ndarray, float]:
    """(codes, timing_ok, average power) of the capture of the (1, d)
    design row: codes index m holds conversion m of the schedule, and
    per-sample timing failures are recorded, never fatal.  The power grid
    converts in the last block's kernel call, so the power equals
    ``power_estimate``'s.  Blocks run one after another, each building,
    converting and dropping its block_stimulus before the next is built,
    unless stimuli holds every block's (``sine_stimuli`` for this cfg,
    plan and noise; noise is then not read).

    A capture has one working set, sized for its largest block: its noise
    draws and the kernel's per-decision arrays (``kernel_out``) are
    allocated once, and every block overwrites them.  Freed and allocated
    again per block, those few MB went back to the OS and were faulted in
    again by the next block.  The kernel's arrays are made after the first
    block's draws: made before, they were alive at the peak inside
    ``noise_matrix``, and an 8-bit 2,048-point capture's peak rose by 0.3 MB.
    A caller that runs many captures of one plan may pass the kernel's
    arrays as out, a ``kernel_out(cfg.n_bits, r)`` with r at least
    ``largest_block(plan)``; each capture then overwrites them.
    """
    n = cfg.n_bits
    rows = largest_block(plan)
    tau_smp, (kt_c_sigma,) = sampling_constants(cfg, row)
    # Draws Fortran-ordered, as noise_matrix's own: the kernel reads a column per decision.
    draw_buf = np.empty((rows, n + 1), order="F") if noise and stimuli is None else None
    kernel_buf = out
    codes = np.zeros(plan.k_points, dtype=np.int64)
    ok = np.zeros(plan.k_points, dtype=bool)
    for b, start in enumerate(range(0, plan.k_points, CAPTURE_BLOCK)):
        v_now, v_prev, draws = (stimuli[b] if stimuli is not None
                                else block_stimulus(cfg, plan, start, noise, out=draw_buf))
        kernel_buf = kernel_buf or kernel_out(n, rows)
        sampled = sample_input(cfg, row, v_now, v_prev, tau_smp)[0]
        if draws is not None:
            sampled = sampled + kt_c_sigma * draws[:, 0]
        conv = convert_rows(cfg, row, sampled,
                            None if draws is None else draws[:, 1:], out=kernel_buf)
        stop = min(start + CAPTURE_BLOCK, plan.k_points)
        codes[start:stop] = conv.codes[:stop - start]
        ok[start:stop] = conv.timing_ok[:stop - start]
        if stop == plan.k_points:
            grid = slice(stop - start, None)
            fired = conv.n_fired[grid]
            q_ref = reference_charge(cfg, row, conv.bits[grid], fired).sum(axis=1)
            [power] = grid_power(cfg, row, q_ref, fired)
            return codes, ok, float(power)
        del v_now, v_prev, draws, sampled, conv  # freed before the next block is built


def run_segments(model: AdcModel, plan: TestPlan, noise: bool = True) -> np.ndarray:
    """The codes of ``sine_test``'s capture of model."""
    return sine_test(model.cfg, model.row, plan, noise)[0]


def run_segments_detailed(
    model: AdcModel, plan: TestPlan, noise: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """(codes, timing_ok) of ``sine_test``'s capture of model."""
    return sine_test(model.cfg, model.row, plan, noise)[:2]


@dataclass(frozen=True)
class SpectrumReport:
    """FFT metrics of a coherent capture."""

    sndr_db: float
    sfdr_db: float
    enob: float
    fom_w: float        # J per conversion step
    fom_s: float        # dB
    bin_power_db: np.ndarray  # one-sided, bins 0..K/2-1, dB re full scale

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in SPECTRUM_FIGURES}


# The scalar metrics, in field order; the spectrum itself has its own CSV.
SPECTRUM_FIGURES = tuple(f.name for f in fields(SpectrumReport) if f.name != "bin_power_db")


def enob_from_sndr(sndr_db: float) -> float:
    return (sndr_db - ENOB_OFFSET_DB) / ENOB_SLOPE_DB


def fom_walden(power: float, f_s: float, enob: float) -> float:
    return power / (2.0**enob * f_s)


def fom_schreier(power: float, f_s: float, sndr_db: float) -> float:
    return sndr_db + 10.0 * math.log10(f_s / 2.0 / power)


def spectrum_metrics(
    codes: np.ndarray,
    plan: TestPlan,
    power: float,
    n_bits: int,
) -> SpectrumReport:
    """Windowless FFT metrics of a coherent capture.

    The signal is the planned input bin; noise-plus-distortion is every
    other bin except DC (offset is not distortion).  Figures of merit use
    the externally supplied power.
    """
    codes = np.asarray(codes, dtype=float)
    if len(codes) != plan.k_points:
        raise MetricsError(
            f"capture length {len(codes)} != plan k_points {plan.k_points}"
        )
    k = plan.k_points
    spectrum = np.fft.rfft(codes - codes.mean())
    bin_power = np.abs(spectrum) ** 2
    bin_power[1:-1] *= 2.0  # fold negative frequencies; DC and Nyquist single

    j = plan.j_cycles
    signal = bin_power[j]
    if signal <= 0.0:
        raise MetricsError(f"no signal power in bin {j}")
    noise_dist = float(bin_power[1:].sum() - signal)
    if noise_dist <= 0.0:
        raise MetricsError("capture has no noise or distortion power")
    sndr = 10.0 * math.log10(signal / noise_dist)

    spurs = bin_power[1:].copy()
    spurs[j - 1] = 0.0
    sfdr = 10.0 * math.log10(signal / spurs.max()) if spurs.max() > 0 else math.inf

    enob = enob_from_sndr(sndr)
    full_scale = 2.0 ** (n_bits - 1)  # code amplitude of a full-scale sine
    ref = (k / 2.0 * full_scale) ** 2
    with np.errstate(divide="ignore"):
        bin_db = 10.0 * np.log10(bin_power[: k // 2] / ref)
    return SpectrumReport(
        sndr_db=sndr,
        sfdr_db=sfdr,
        enob=enob,
        fom_w=fom_walden(power, plan.f_s, enob),
        fom_s=fom_schreier(power, plan.f_s, sndr),
        bin_power_db=bin_db,
    )


def capture_inputs(plan: TestPlan) -> np.ndarray:
    """Ideal input value at each sample instant of the schedule: the
    input each block's stimulus converts, in order."""
    return _sine(plan, np.arange(plan.k_points))


def write_capture_csv(plan: TestPlan, codes: np.ndarray, path: str) -> None:
    inputs = capture_inputs(plan)
    rows = ([i, float(v), int(c)] for i, (v, c) in enumerate(zip(inputs, codes)))
    write_csv(path, ["index", "input", "code"], rows)


def write_spectrum_csv(report: SpectrumReport, path: str) -> None:
    rows = ([b, float(p)] for b, p in enumerate(report.bin_power_db))
    write_csv(path, ["bin", "power_db"], rows)
