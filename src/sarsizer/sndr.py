"""Coherent sine testing with segment-parallel capture and FFT metrics.

A capture of K samples at J input cycles (J odd, so coprime to the
power-of-two K) needs no window.  The capture can be split into M
independent segments: segment k converts samples {k, k+M, k+2M, ...},
i.e. the segment's input is the same sine advanced by k full-rate sample
periods.  Because each conversion's noise is keyed by its global sample
index and its hold history is reconstructed analytically, the merged
segment outputs are bit-identical to a single full-rate run, for any M
dividing K.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, fields, replace

import numpy as np

from .adc import AdcModel, convert_rows, sample_input
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
    m_segments: int    # parallel segments, divides k_points
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
        if self.f_s <= 0 or self.amplitude <= 0:
            raise PlanError("f_s and amplitude must be positive")
        if not is_seed(self.seed):
            raise PlanError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")

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


def segment_indices(plan: TestPlan, k: int) -> np.ndarray:
    """Global sample indices owned by segment k."""
    return np.arange(plan.k_points // plan.m_segments) * plan.m_segments + k


def _sine(plan: TestPlan, idx: np.ndarray) -> np.ndarray:
    """The planned input at full-rate sample instants idx."""
    return plan.amplitude * np.sin(2.0 * math.pi * plan.f_in * idx * (1.0 / plan.f_s))


def segment_stimulus(
    plan: TestPlan, k: int, n_bits: int, noise: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """The design-independent part of segment k: (indices, input, previous
    input, noise draws or None).  It depends on (plan, n_bits, noise) only,
    so callers that run one plan on many designs may build it once."""
    idx = segment_indices(plan, k)
    # Hold history: the array last held the previous full-rate sample's
    # input value.  Reconstructing it analytically (rather than chaining
    # conversions) keeps segments independent of each other.
    v_now, v_prev = _sine(plan, idx), _sine(plan, idx - 1)
    # One draw per segment: column 0 is kT/C, columns 1..n the comparator.
    draws = noise_matrix(plan.seed, idx, n_bits) if noise else None
    return idx, v_now, v_prev, draws


def _convert_segment(model: AdcModel, stimulus: tuple) -> tuple[np.ndarray, ...]:
    """Run one segment's stimulus on model; returns (indices, codes, timing_ok)."""
    idx, v_now, v_prev, draws = stimulus
    sampled = sample_input(model, v_now, v_prev)
    cmp_draws = None
    if draws is not None:
        sampled = sampled + model.kt_c_sigma * draws[:, 0]
        cmp_draws = draws[:, 1:]
    conv = convert_rows([model], sampled, cmp_draws)
    return idx, conv.codes, conv.timing_ok


def run_segments(
    model: AdcModel, plan: TestPlan, noise: bool = True, stimuli: Sequence | None = None
) -> np.ndarray:
    """Merged capture codes, index m holds conversion m of the schedule."""
    codes, _ = run_segments_detailed(model, plan, noise=noise, stimuli=stimuli)
    return codes


def run_segments_detailed(
    model: AdcModel, plan: TestPlan, noise: bool = True, stimuli: Sequence | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Merged (codes, timing_ok); per-sample timing failures are recorded,
    never fatal.  Segments run one after another in this process, each
    building, using and dropping its segment_stimulus, unless stimuli
    holds every segment's (built for this plan, N and noise).
    """
    codes = np.zeros(plan.k_points, dtype=np.int64)
    ok = np.zeros(plan.k_points, dtype=bool)
    for k in range(plan.m_segments):
        idx, seg_codes, seg_ok = _convert_segment(
            model,
            stimuli[k] if stimuli is not None
            else segment_stimulus(plan, k, model.cfg.n_bits, noise),
        )
        codes[idx] = seg_codes
        ok[idx] = seg_ok
    return codes, ok


def equivalence_check(
    model: AdcModel,
    plan: TestPlan,
    noise: bool = True,
) -> bool:
    """True iff the segmented capture is code-identical to a full-rate one."""
    merged = run_segments(model, plan, noise=noise)
    full = run_segments(model, replace(plan, m_segments=1), noise=noise)
    return bool(np.array_equal(merged, full))


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
        """The scalar metrics; the spectrum itself has its own CSV."""
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "bin_power_db"}


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
    input each segment's stimulus converts, merged."""
    return _sine(plan, np.arange(plan.k_points))


def write_capture_csv(plan: TestPlan, codes: np.ndarray, path_or_buf) -> None:
    inputs = capture_inputs(plan)
    rows = ([i, float(v), int(c)] for i, (v, c) in enumerate(zip(inputs, codes)))
    write_csv(path_or_buf, ["index", "input", "code"], rows)


def write_spectrum_csv(report: SpectrumReport, path_or_buf) -> None:
    rows = ([b, float(p)] for b, p in enumerate(report.bin_power_db))
    write_csv(path_or_buf, ["bin", "power_db"], rows)
