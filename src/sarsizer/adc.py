"""Behavioral model of an N-bit differential asynchronous SAR ADC.

The converter is abstracted to the handful of quantities that drive its
accuracy/speed/power trade-offs: sampling-switch resistance, per-bit DAC
driver resistances, comparator noise and regeneration delay, and logic
delay.  Two distortion mechanisms are modeled: incomplete charge transfer
during the sampling window (RC settling toward the input) and incomplete
DAC settling in the asynchronous time available before each comparator
decision.  Thermal noise enters as a sampled kT/C term plus the
comparator's input-referred noise, both drawn from counter-based streams
keyed by the global sample index so parallel captures reproduce full-rate
runs exactly.

Energy is tallied per conversion from event-level charge accounting on a
common-mode-referenced switched capacitor array, a comparator term that
scales inversely with its noise power, per-cycle logic energy, and a
sampling-switch driver term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import BoundsError, ConfigError
from .rng import NoiseKey, conversion_noise, noise_matrix

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

    def to_vector(self) -> np.ndarray:
        return np.array([getattr(self, name) for name in DESIGN_FIELDS])

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


@dataclass
class ConversionTrace:
    """Everything observable from a single conversion."""

    code: int
    bits: np.ndarray          # 0/1 per bit, MSB first
    applied_step: np.ndarray  # realized differential step entering each decision, V
    t_bit: np.ndarray         # comparator + logic time per fired bit cycle, s
    delta_q: np.ndarray       # reference charge drawn by the switch event after each bit, C
    t_total: float            # sampling window + fired bit cycles, s
    q_ref: float              # total reference charge, C
    e_total: float            # conversion energy, J
    timing_ok: bool
    n_fired: int


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
    rng_key: NoiseKey | tuple[int, np.ndarray] | None = None,
) -> float | np.ndarray:
    """Track-and-hold output for one sample, or elementwise for arrays.

    The held voltage settles from v_prev toward v_in with time constant
    r_sw * c_tot over the sampling window; with a noise key (seed, index
    or index array), the kT/C draw of each index is added on top.
    Overrange inputs are allowed (they clip later, in the conversion).
    """
    settled = v_in - (v_in - v_prev) * math.exp(
        -model.design.t_sample / model.tau_smp
    )
    if rng_key is None:
        return settled
    seed, index = rng_key
    draw = noise_matrix(seed, np.reshape(index, -1), 0)[:, 0]
    return settled + model.kt_c_sigma * draw.reshape(np.shape(index))


def _delay(model: AdcModel, residue_mag: float) -> float:
    """Regeneration delay for one decision: grows as the residue shrinks."""
    d = model.design
    raw = d.t_d0 + d.tau_reg * math.log(
        model.cfg.v_dd / max(residue_mag, model.cfg.v_floor)
    )
    return min(max(raw, d.t_d0), model.t_cmp_max)


def convert(
    model: AdcModel,
    v_sampled: float,
    rng_key: NoiseKey | None = None,
) -> ConversionTrace:
    """Run one asynchronous successive-approximation conversion.

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
    """
    n = model.cfg.n_bits
    d = model.design
    _, cmp_draws = conversion_noise(rng_key, n)

    bits = np.zeros(n, dtype=np.int64)
    applied = np.zeros(n)
    t_bit = np.zeros(n)
    delta_q = np.zeros(n)

    # Charge-accounting state, one side each: capacitance currently tied
    # to the supply rail, in farads.  Event bookkeeping below mirrors a
    # common-mode-referenced switch scheme: after decision i the cap
    # weighted 2**(n-1-i) units moves from mid-rail to a rail on each
    # side, in opposite directions.
    c_vdd_p = 0.0
    c_vdd_n = 0.0
    half_rail = model.cfg.v_dd / 2.0

    elapsed = d.t_sample
    residue = v_sampled
    sign_prev = 0.0
    n_fired = 0

    for j in range(1, n + 1):
        if elapsed >= model.cfg.t_conv:
            break
        if j == 1:
            t_est = _delay(model, abs(v_sampled))
            applied[0] = model.step_amp[0] * (
                1.0 - math.exp(-(d.t_dff + t_est) / model.tau_step[0])
            )
        else:
            r_ideal = residue - sign_prev * model.step_amp[j - 1]
            t_est = _delay(model, abs(r_ideal))
            step = model.step_amp[j - 1] * (
                1.0 - math.exp(-(d.t_dff + t_est) / model.tau_step[j - 1])
            )
            applied[j - 1] = step
            residue = residue - sign_prev * step

        noisy = residue + d.sigma_cmp * cmp_draws[j - 1]
        bit = 1 if noisy >= 0.0 else 0
        bits[j - 1] = bit
        t_cmp = _delay(model, abs(noisy))
        t_bit[j - 1] = t_cmp + d.t_dff
        elapsed += t_bit[j - 1]
        n_fired = j
        sign_prev = 1.0 if bit else -1.0

        if j <= n - 1:
            # Switch event triggered by decision j: weight 2**(n-1-j) units.
            c_sw = 2.0 ** (n - 1 - j) * d.c_unit
            dv_top = half_rail * c_sw / model.c_tot
            if bit:
                dv_p, dv_n = -dv_top, dv_top
                dq_n = c_sw * (half_rail - dv_n) - c_vdd_n * dv_n
                dq_p = -c_vdd_p * dv_p
                c_vdd_n += c_sw
            else:
                dv_p, dv_n = dv_top, -dv_top
                dq_p = c_sw * (half_rail - dv_p) - c_vdd_p * dv_p
                dq_n = -c_vdd_n * dv_n
                c_vdd_p += c_sw
            delta_q[j - 1] = dq_p + dq_n

    code = int(np.sum(bits * 2 ** np.arange(n - 1, -1, -1)))
    t_total = d.t_sample + float(t_bit.sum())
    trace = ConversionTrace(
        code=code,
        bits=bits,
        applied_step=applied,
        t_bit=t_bit,
        delta_q=delta_q,
        t_total=t_total,
        q_ref=float(delta_q.sum()),
        e_total=0.0,
        timing_ok=(n_fired == n) and (t_total <= model.cfg.t_conv),
        n_fired=n_fired,
    )
    trace.e_total = conversion_energy(trace, model)
    return trace


def conversion_energy(trace: ConversionTrace, model: AdcModel) -> float:
    """Total conversion energy from a trace.

    DAC term: supply voltage times the reference charge of every switch
    event.  Comparator term: kappa_cmp / sigma_cmp^2 per firing, coupling
    noise and power so lower noise is never free.  Logic term: e_dff per
    fired bit cycle.  Switch-driver term: kappa_sw / r_sw per sample.
    """
    cfg = model.cfg
    d = model.design
    e_dac = cfg.v_dd * float(trace.delta_q.sum())
    e_cmp = (cfg.kappa_cmp / d.sigma_cmp**2) * trace.n_fired
    e_logic = cfg.e_dff * trace.n_fired
    e_sw = cfg.kappa_sw / d.r_sw
    return e_dac + e_cmp + e_logic + e_sw


def convert_batch(
    model: AdcModel,
    v_sampled: np.ndarray,
    seed: int | None = None,
    indices: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized conversions; returns (codes, timing_ok).

    Sample m draws its noise from the stream keyed by (seed, indices[m]),
    matching scalar convert() bit for bit.  seed=None disables noise.
    """
    v = np.asarray(v_sampled, dtype=float)
    if seed is None:
        return _convert_draws(model, v, np.zeros((len(v), model.cfg.n_bits)))
    if indices is None:
        indices = np.arange(len(v))
    return _convert_draws(model, v, noise_matrix(seed, indices, model.cfg.n_bits)[:, 1:])


def _convert_draws(model: AdcModel, v: np.ndarray, cmp_draws: np.ndarray):
    """convert_batch's per-bit loop, given one comparator draw per sample and bit."""
    n = model.cfg.n_bits
    d = model.design

    t_d0 = d.t_d0
    t_max = model.t_cmp_max
    v_dd = model.cfg.v_dd
    v_floor = model.cfg.v_floor

    def delay(mag):
        raw = t_d0 + d.tau_reg * np.log(v_dd / np.maximum(mag, v_floor))
        return np.clip(raw, t_d0, t_max)

    residue = v.copy()
    sign_prev = np.zeros_like(v)
    elapsed = np.full_like(v, d.t_sample)
    alive = np.ones(len(v), dtype=bool)
    bits = np.zeros((len(v), n), dtype=np.int64)
    fired = np.zeros(len(v), dtype=np.int64)

    for j in range(1, n + 1):
        alive = alive & (elapsed < model.cfg.t_conv)
        if j > 1:
            r_ideal = residue - sign_prev * model.step_amp[j - 1]
            t_est = delay(np.abs(r_ideal))
            step = model.step_amp[j - 1] * (
                1.0 - np.exp(-(d.t_dff + t_est) / model.tau_step[j - 1])
            )
            residue = np.where(alive, residue - sign_prev * step, residue)
        noisy = residue + d.sigma_cmp * cmp_draws[:, j - 1]
        bit = (noisy >= 0.0) & alive
        bits[:, j - 1] = bit
        t_bit = delay(np.abs(noisy)) + d.t_dff
        elapsed = np.where(alive, elapsed + t_bit, elapsed)
        fired = np.where(alive, j, fired)
        sign_prev = np.where(alive, np.where(bit, 1.0, -1.0), sign_prev)

    codes = bits @ (2 ** np.arange(n - 1, -1, -1))
    timing_ok = (fired == n) & (elapsed <= model.cfg.t_conv)
    return codes, timing_ok
