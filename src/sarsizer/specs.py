"""Performance budgets derived from resolution, supply, and a scaling factor.

All coarse-phase budgets follow one rule: each error source is allowed at
most the quantization noise power of the converter.  Splitting that budget
equally across bits yields per-bit relative step-error allowances, and the
ratio of adjacent allowances gives the step-size-ratio-error (SSRE) bound
for each bit pair.  The scaling factor ``alpha`` relaxes (>1) or tightens
(<1) every coarse bound linearly; it never touches the SNDR ceiling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import SpecError


def _check_inputs(n_bits: int, alpha: float = 1.0) -> None:
    if n_bits < 2:
        raise SpecError(f"resolution must be >= 2 bits, got {n_bits}")
    if alpha <= 0:
        raise SpecError(f"scaling factor must be positive, got {alpha}")


def derive_ssre_bounds(n_bits: int, alpha: float = 1.0) -> np.ndarray:
    """Per-pair step-size-ratio-error bounds, index i = 1..N-1.

    Bound i is alpha / (2**(N-i-1) * sqrt(12*N)): tightest for the MSB
    pair, doubling toward the LSB pair.
    """
    _check_inputs(n_bits, alpha)
    i = np.arange(1, n_bits)
    return alpha / (2.0 ** (n_bits - i - 1) * math.sqrt(12.0 * n_bits))


def derive_sampling_bound(n_bits: int, v_dd: float, alpha: float = 1.0) -> float:
    """Largest tolerated |ideal - sampled| voltage: alpha * LSB / sqrt(12)."""
    _check_inputs(n_bits, alpha)
    return alpha * v_dd / (2.0**n_bits * math.sqrt(12.0))


def derive_noise_bound(n_bits: int, v_dd: float, alpha: float = 1.0) -> float:
    """Total rms thermal-noise allowance; numerically equal to the sampling bound."""
    return derive_sampling_bound(n_bits, v_dd, alpha)


def derive_sndr_ceiling(n_bits: int) -> float:
    """Worst-case SNDR in dB when all four error powers hit their budgets.

    Four equal LSB^2/12 contributions (quantization, thermal, step errors,
    sampling) total LSB^2/3, i.e. 6.02*N - 4.25 dB.  Reporting reference
    only, never an optimizer constraint.
    """
    _check_inputs(n_bits)
    return 6.02 * n_bits - 4.25


@dataclass(frozen=True)
class DerivedSpecs:
    """Full coarse constraint set plus reporting references for one target."""

    n_bits: int
    v_dd: float
    alpha: float
    ssre_bound: np.ndarray  # index i-1 holds the bound for bit pair (i, i+1)
    sampling_bound: float
    noise_bound: float
    sndr_ceiling: float
    lsb: float = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "lsb", self.v_dd / 2.0**self.n_bits)

    @classmethod
    def derive(cls, n_bits: int, v_dd: float, alpha: float = 1.0) -> "DerivedSpecs":
        _check_inputs(n_bits, alpha)
        if v_dd <= 0:
            raise SpecError(f"supply must be positive, got {v_dd}")
        return cls(
            n_bits=n_bits,
            v_dd=v_dd,
            alpha=alpha,
            ssre_bound=derive_ssre_bounds(n_bits, alpha),
            sampling_bound=derive_sampling_bound(n_bits, v_dd, alpha),
            noise_bound=derive_noise_bound(n_bits, v_dd, alpha),
            sndr_ceiling=derive_sndr_ceiling(n_bits),
        )

    def constraint_labels(self) -> list[str]:
        labels = [f"ssre_{i}" for i in range(1, self.n_bits)]
        return labels + ["sampling_error", "thermal_noise", "timing"]

    def to_dict(self) -> dict:
        return {f.name: np.asarray(getattr(self, f.name)).tolist() for f in fields(self)}
