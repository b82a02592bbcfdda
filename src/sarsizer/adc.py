"""Behavioral model of an N-bit differential asynchronous SAR ADC.

The converter is abstracted to the handful of quantities that drive its
accuracy/speed/power trade-offs: sampling-switch resistance, per-bit DAC
driver resistances, comparator noise and regeneration delay, and logic
delay.  Two distortion mechanisms are modeled: incomplete charge transfer
during the sampling window (RC settling toward the input) and incomplete
DAC settling in the asynchronous time available before each comparator
decision.  Thermal noise enters as a sampled kT/C term plus the
comparator's input-referred noise; the caller supplies both as standard
normal draws (``rng.noise_matrix``, keyed by the global sample index), so
this module draws nothing itself.

Energy is tallied per conversion from event-level charge accounting on a
common-mode-referenced switched capacitor array, a comparator term that
scales inversely with its noise power, per-cycle logic energy, and a
sampling-switch driver term.

One kernel, ``convert_rows``, runs every conversion and returns one
``Conversions`` row per input: its rows may belong to different designs,
so a whole generation's coarse tests are one call and a capture segment
is another.  A single conversion is a batch of one.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import BoundsError, ConfigError

BOLTZMANN = 1.380649e-23  # J/K

# Vector layout used by the optimizers; order matters and is part of the
# design-file schema.
DESIGN_FIELDS = (
    "c_unit",
    "r_sw",
    "t_sample",
    "sigma_cmp",
    "t_d0",
    "tau_reg",
    "r_drv_msb",
    "t_dff",
)


@dataclass(frozen=True)
class AdcConfig:
    """Fixed converter-level parameters (not searched by the optimizer)."""

    n_bits: int
    f_s: float                     # sampling rate, Hz
    v_dd: float                    # supply, V; also the differential full scale
    temp_k: float = 300.0
    kappa_cmp: float = 0.0         # comparator energy coefficient, J*V^2
    kappa_sw: float = 0.0          # sampling-switch driver coefficient, J*Ohm
    e_dff: float = 0.0             # logic energy per latched bit cycle, J
    r_drv_cap: float = 100e3       # driver scaling stops at this resistance, Ohm
    v_floor: float = 1e-6          # residue magnitude floor in the delay law, V
    t_cmp_max: float | None = None # comparator delay clamp; None = floor-implied

    def __post_init__(self) -> None:
        if self.n_bits < 2:
            raise ConfigError(f"n_bits must be >= 2, got {self.n_bits}")
        if self.f_s <= 0 or self.v_dd <= 0 or self.temp_k <= 0:
            raise ConfigError("f_s, v_dd and temp_k must be positive")
        for name in ("kappa_cmp", "kappa_sw", "e_dff"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be nonnegative")
        if self.r_drv_cap <= 0 or self.v_floor <= 0:
            raise ConfigError("r_drv_cap and v_floor must be positive")

    @property
    def t_conv(self) -> float:
        return 1.0 / self.f_s


@dataclass(frozen=True)
class DesignPoint:
    """Sizing vector: the behavioral equivalents of the sized devices."""

    c_unit: float      # unit capacitance, F
    r_sw: float        # sampling-switch on-resistance, Ohm
    t_sample: float    # sampling window, s
    sigma_cmp: float   # comparator input-referred noise, V rms
    t_d0: float        # comparator fixed delay, s
    tau_reg: float     # comparator regeneration time constant, s
    r_drv_msb: float   # MSB DAC driver resistance, Ohm
    t_dff: float       # logic delay per bit cycle, s

    def validate(self, bounds: dict[str, tuple[float, float]] | None = None) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not value > 0:
                raise BoundsError(f"{f.name} must be strictly positive, got {value}")
            if bounds and f.name in bounds:
                lo, hi = bounds[f.name]
                if not lo <= value <= hi:
                    raise BoundsError(
                        f"{f.name}={value} outside bounds [{lo}, {hi}]"
                    )

    @classmethod
    def from_vector(cls, x: np.ndarray) -> "DesignPoint":
        return cls(**dict(zip(DESIGN_FIELDS, (float(v) for v in x))))

    def to_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in DESIGN_FIELDS}


@dataclass(frozen=True)
class AdcModel:
    """Design + config with every derived quantity precomputed."""

    design: DesignPoint
    cfg: AdcConfig
    c_tot: float = field(init=False)         # single-ended array capacitance, F
    tau_smp: float = field(init=False)       # sampling time constant, s
    v_fs: float = field(init=False)          # differential full scale, V
    step_amp: np.ndarray = field(init=False) # ideal step amplitudes, index i-1 -> v_fs/2**i
    r_drv: np.ndarray = field(init=False)    # per-step driver resistance, Ohm
    tau_step: np.ndarray = field(init=False) # per-step settling constants, s
    t_cmp_max: float = field(init=False)

    def __post_init__(self) -> None:
        n = self.cfg.n_bits
        c_tot = 2.0 ** (n - 1) * self.design.c_unit
        i = np.arange(1, n + 1)
        # Driver strength halves per bit until the minimum-size device;
        # its resistance is the growth limit for the geometric scaling.
        r_drv = np.minimum(self.design.r_drv_msb * 2.0 ** (i - 1), self.cfg.r_drv_cap)
        t_max = self.cfg.t_cmp_max
        if t_max is None:
            t_max = self.design.t_d0 + self.design.tau_reg * math.log(
                self.cfg.v_dd / self.cfg.v_floor
            )
        object.__setattr__(self, "c_tot", c_tot)
        object.__setattr__(self, "tau_smp", self.design.r_sw * c_tot)
        object.__setattr__(self, "v_fs", self.cfg.v_dd)
        object.__setattr__(self, "step_amp", self.cfg.v_dd / 2.0**i)
        object.__setattr__(self, "r_drv", r_drv)
        object.__setattr__(self, "tau_step", r_drv * c_tot)
        object.__setattr__(self, "t_cmp_max", float(t_max))

    @property
    def kt_c_sigma(self) -> float:
        """Sampled thermal noise, rms; factor 2 covers the differential array."""
        return math.sqrt(2.0 * BOLTZMANN * self.cfg.temp_k / self.c_tot)


def build_model(
    design: DesignPoint,
    cfg: AdcConfig,
    bounds: dict[str, tuple[float, float]] | None = None,
) -> AdcModel:
    """Validate a design against bounds and derive all model constants."""
    design.validate(bounds)
    return AdcModel(design=design, cfg=cfg)


def sample_input(
    model: AdcModel,
    v_in: float | np.ndarray,
    v_prev: float | np.ndarray = 0.0,
) -> float | np.ndarray:
    """Noise-free track-and-hold output for one sample, or elementwise for arrays.

    The held voltage settles from v_prev toward v_in with time constant
    r_sw * c_tot over the sampling window.  Overrange inputs are allowed
    (they clip later, in the conversion).
    """
    return v_in - (v_in - v_prev) * math.exp(-model.design.t_sample / model.tau_smp)


@dataclass
class Conversions:
    """The kernel's output: one conversion per row."""

    bits: np.ndarray          # (rows, n) 0/1, MSB first
    applied_step: np.ndarray  # (rows, n) realized step entering each decision, V
    t_bit: np.ndarray         # (rows, n) comparator + logic time per fired bit cycle, s
    t_total: np.ndarray       # (rows,) sampling window + fired bit cycles, s
    n_fired: np.ndarray       # (rows,)
    timing_ok: np.ndarray     # (rows,)
    delta_q: np.ndarray | None = None  # (rows, n) reference charge per switch event, C
    e_total: np.ndarray | None = None  # (rows,) conversion energy, J

    @property
    def codes(self) -> np.ndarray:
        return self.bits @ (2 ** np.arange(self.bits.shape[1])[::-1])


def convert_rows(
    models: Sequence[AdcModel],
    v_sampled: np.ndarray,
    cmp_draws: np.ndarray | None = None,
    owner: np.ndarray | None = None,
    charge: bool = False,
) -> Conversions:
    """The conversion kernel: row m converts v_sampled[m] on models[owner[m]].

    With owner=None every row converts on models[0].  All models share
    one AdcConfig.  cmp_draws holds one standard-normal comparator draw
    per row and bit; None disables noise.

    Bit 1 compares the sampled voltage directly (top-plate sampling).
    Each later decision i sees the previous residue minus/plus a step of
    ideal amplitude v_fs/2**i, realized only partially: the step settles
    for the logic delay plus an estimate of the upcoming comparator delay
    (one fixed-point pass: the estimate is computed on the ideally-stepped
    residue, then the settled step determines the actual decision and its
    delay).  The recorded step for bit 1 is the MSB-weight settling that
    the first bit cycle would allow; it never enters a residue but is what
    the step-ratio measurement reads.

    Timing failures are never exceptions: once the elapsed time passes the
    conversion period, remaining bits resolve to 0 and timing_ok is False.
    charge=True adds the switch charges and energies in a post-pass over
    the bits, which captures skip.  Every step is elementwise over rows,
    so a row's result does not depend on the rest of the batch.
    """
    cfg = models[0].cfg
    if any(m.cfg != cfg for m in models):
        raise ConfigError("one kernel call converts on a single AdcConfig")
    # Design constants per row, or scalars (numpy's faster path) for one model.
    consts = np.array([[m.design.t_sample, m.design.t_dff, m.design.t_d0, m.design.tau_reg,
                        m.design.sigma_cmp, m.design.r_sw, m.design.c_unit, m.c_tot,
                        m.t_cmp_max] for m in models])
    tau_step = np.array([m.tau_step for m in models])
    pick = 0 if owner is None else owner
    consts, tau_step = consts[pick], tau_step[pick]
    t_sample, t_dff, t_d0, tau_reg, sigma_cmp, r_sw, c_unit, c_tot, t_cmp_max = consts.T

    def delay(mag: np.ndarray) -> np.ndarray:
        """Regeneration delay per decision: grows as the residue shrinks."""
        raw = t_d0 + tau_reg * np.log(cfg.v_dd / np.maximum(mag, cfg.v_floor))
        return np.minimum(np.maximum(raw, t_d0), t_cmp_max)

    n = cfg.n_bits
    amp = models[0].step_amp
    residue = np.asarray(v_sampled, dtype=float)
    rows = len(residue)
    sign_prev = np.zeros(rows)  # 0 before bit 1, so its step is recorded, not applied
    elapsed = t_sample + np.zeros(rows)
    alive = np.ones(rows, dtype=bool)
    n_fired = np.zeros(rows, dtype=np.int64)
    # Bit-major while filling: one contiguous row per decision.
    bits = np.zeros((n, rows), dtype=np.int64)
    applied = np.zeros((n, rows))
    t_bit = np.zeros((n, rows))
    for j in range(n):
        alive &= elapsed < cfg.t_conv
        live = alive.astype(float)  # masks a dead row's step and time to 0.0
        t_est = delay(np.abs(residue - sign_prev * amp[j]))
        step = live * amp[j] * (1.0 - np.exp(-(t_dff + t_est) / tau_step[..., j]))
        residue = residue - sign_prev * step
        noisy = residue if cmp_draws is None else residue + sigma_cmp * cmp_draws[:, j]
        bits[j] = (noisy >= 0.0) & alive
        t_bit[j] = live * (delay(np.abs(noisy)) + t_dff)
        applied[j] = step
        elapsed = elapsed + t_bit[j]
        n_fired += alive
        sign_prev = 2.0 * bits[j] - 1.0

    t_bit = np.ascontiguousarray(t_bit.T)  # rows sum in the order a lone row's would
    t_total = t_sample + t_bit.sum(axis=1)
    out = Conversions(bits.T, applied.T, t_bit, t_total, n_fired,
                      timing_ok=(n_fired == n) & (t_total <= cfg.t_conv))
    if charge:
        out.delta_q = _switch_charge(cfg.v_dd, c_unit, c_tot, out.bits, n_fired)
        out.e_total = _energy(cfg, sigma_cmp, r_sw, out.delta_q.sum(axis=1), n_fired)
    return out


def _switch_charge(v_dd: float, c_unit: np.ndarray, c_tot: np.ndarray,
                   bits: np.ndarray, n_fired: np.ndarray) -> np.ndarray:
    """Reference charge drawn by the switch event after each fired decision.

    Common-mode-referenced switching: after decision j the cap weighted
    2**(n-1-j) units moves from mid-rail to a rail on each side, in
    opposite directions (a 1 takes the n side's cap to the supply, a 0
    the p side's).  c_vdd_* is the capacitance each side already ties to
    the supply rail.
    """
    rows, n = bits.shape
    half_rail = v_dd / 2.0
    # (rows or 1, n-1): column j is the switch event after decision j.
    c_sw = np.reshape(c_unit, (-1, 1)) * 2.0 ** np.arange(n - 2, -1, -1)
    dv_top = half_rail * c_sw / np.reshape(c_tot, (-1, 1))
    up = bits[:, :-1] == 1
    fired = n_fired[:, None] > np.arange(n - 1)
    # Supply-tied capacitance before each event: exclusive running sums,
    # added in event order (accumulate is sequential, like a loop).
    before = np.zeros((rows, 1))
    c_vdd_n = np.cumsum(np.hstack([before, (c_sw * (fired & up))[:, :-1]]), axis=1)
    c_vdd_p = np.cumsum(np.hstack([before, (c_sw * (fired & ~up))[:, :-1]]), axis=1)
    c_rising = np.where(up, c_vdd_n, c_vdd_p)  # side whose cap joins the rail
    c_other = np.where(up, c_vdd_p, c_vdd_n)
    dq = (c_sw * (half_rail - dv_top) - c_rising * dv_top) + c_other * dv_top
    return np.hstack([dq * fired, np.zeros((rows, 1))])


def _energy(cfg: AdcConfig, sigma_cmp: np.ndarray, r_sw: np.ndarray,
            q_ref: np.ndarray, n_fired: np.ndarray) -> np.ndarray:
    """Conversion energy per row.

    DAC term: supply voltage times the reference charge of every switch
    event.  Comparator term: kappa_cmp / sigma_cmp^2 per firing, coupling
    noise and power so lower noise is never free.  Logic term: e_dff per
    fired bit cycle.  Switch-driver term: kappa_sw / r_sw per sample.
    """
    e_dac = cfg.v_dd * q_ref
    e_cmp = (cfg.kappa_cmp / (sigma_cmp * sigma_cmp)) * n_fired
    e_logic = cfg.e_dff * n_fired
    e_sw = cfg.kappa_sw / r_sw
    return e_dac + e_cmp + e_logic + e_sw
