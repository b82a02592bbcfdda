"""Behavioral model of an N-bit differential asynchronous SAR ADC.

The converter is abstracted to the handful of quantities that drive its
accuracy/speed/power trade-offs: sampling-switch resistance, per-bit DAC
driver resistances, comparator noise and regeneration delay, and logic
delay.  Two distortion mechanisms are modeled: incomplete charge transfer
during the sampling window (RC settling toward the input) and incomplete
DAC settling in the asynchronous time available before each comparator
decision.  Thermal noise enters as a sampled kT/C term plus the
comparator's input-referred noise; the caller supplies both as standard
normal draws (``rng.noise_matrix``: Box-Muller, with a float32 angle, on
Philox4x32-10 words keyed by the seed and the global sample index), so this
module draws nothing itself.

Energy is tallied per conversion from event-level charge accounting on a
common-mode-referenced switched capacitor array, a comparator term that
scales inversely with its noise power, per-cycle logic energy, and a
sampling-switch driver term.  Two post-passes over the rows a caller
prices (the power grid's): ``reference_charge``, which reads the bits and
c_unit, then ``conversion_energy``, which prices that charge and the fired
decisions.

sigma_cmp scales the comparator draws and the comparator energy, nothing
else: a noise-free conversion and its charge never read it, so a caller
may convert once per ``conversion_keys`` key.

One kernel, ``convert_rows``, runs every conversion and returns one
``Conversions`` row per input.  It takes the designs as an (n, d) matrix
in ``DESIGN_FIELDS`` order and derives their constants once per call; its
rows may belong to different designs, so a whole generation's coarse
tests are one call and each block of a capture (``sndr.CAPTURE_BLOCK``
conversions) is another; a single conversion is a batch of one.  ``AdcModel``
is one design's row with its config, ``sample_input`` the one track-and-hold,
and ``design_box`` the one reading of a bounds dict as the (d, 2) box that
``check_designs`` applies.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields
from functools import lru_cache

import numpy as np

from .errors import BoundsError, require

BOLTZMANN = 1.380649e-23  # J/K

@dataclass(frozen=True)
class AdcConfig:
    """Fixed converter-level parameters (not searched by the optimizer)."""

    n_bits: int
    f_s: float                     # sampling rate, Hz
    v_dd: float                    # supply, V; also the differential full scale
    temp_k: float = 300.0
    kappa_cmp: float = 1e-25       # comparator energy coefficient, J*V^2
    kappa_sw: float = 1e-13        # sampling-switch driver coefficient, J*Ohm
    e_dff: float = 1e-15           # logic energy per latched bit cycle, J
    r_drv_cap: float = 100e3       # driver scaling stops at this resistance, Ohm
    v_floor: float = 1e-6          # residue magnitude floor in the delay law, V

    def __post_init__(self) -> None:
        # <= 63: the int64 code weights 2**j wrap at j = 63.
        require(2 <= self.n_bits <= 63, "n_bits", "in [2, 63]", self.n_bits)
        # Written so that NaN, which fails every comparison, breaks the rule.
        for name in ("f_s", "v_dd", "temp_k", "r_drv_cap"):
            value = getattr(self, name)
            require(0.0 < value < math.inf, name, "finite and positive", value)
        # At or above v_dd the delay law t_d0 + tau_reg*ln(v_dd/max(|v|, v_floor))
        # is flat: every decision takes t_d0.
        require(0.0 < self.v_floor < self.v_dd, "v_floor", f"in (0, v_dd = {self.v_dd})",
                self.v_floor)
        for name in ("kappa_cmp", "kappa_sw", "e_dff"):
            value = getattr(self, name)
            require(0.0 <= value < math.inf, name, "finite and nonnegative", value)

    @property
    def t_conv(self) -> float:
        return 1.0 / self.f_s

    @property
    def step_amp(self) -> np.ndarray:
        """Ideal step amplitudes, index i-1 -> v_dd/2**i."""
        return self.v_dd / (2.0 * 2.0 ** np.arange(self.n_bits))


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

    @classmethod
    def from_vector(cls, x: np.ndarray) -> "DesignPoint":
        return cls(*np.asarray(x, dtype=float).tolist())  # DESIGN_FIELDS order

    def to_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in DESIGN_FIELDS}


# Vector layout used by the optimizers: DesignPoint's field order, which
# matters and is part of the design-file schema.
DESIGN_FIELDS = tuple(f.name for f in fields(DesignPoint))


def check_designs(designs: np.ndarray, box: np.ndarray) -> None:
    """Raise BoundsError at the first entry, row by row, of the (n, d) designs that is not
    positive (NaN is not) or outside its row of the (d, 2) box; n > 1 names the row."""
    ok = (designs > 0.0) & (designs >= box[:, 0]) & (designs <= box[:, 1])
    if not ok.all():
        row, j = np.argwhere(~ok)[0]
        where, name, value = f"row {row}: " * (len(designs) > 1), DESIGN_FIELDS[j], designs[row, j]
        if not value > 0:
            raise BoundsError(f"{where}{name} must be strictly positive, got {value.item()}")
        raise BoundsError(f"{where}{name}={value.item()} outside bounds {box[j].tolist()}")


def sampling_constants(cfg: AdcConfig, designs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per row of designs: the sampling time constant tau_smp = r_sw * c_tot
    and the sampled thermal noise kt_c_sigma, rms (factor 2 covers the
    differential array)."""
    c_tot = 2.0 ** (cfg.n_bits - 1) * designs[:, 0]  # c_unit
    return designs[:, 1] * c_tot, np.sqrt(2.0 * BOLTZMANN * cfg.temp_k / c_tot)  # r_sw


@lru_cache(maxsize=64)
def _doublings(n: int) -> np.ndarray:
    """2**i for i < n (read-only): made per call, they cost a kernel call about 1 us."""
    return _frozen(2.0 ** np.arange(n))


def derive(cfg: AdcConfig, designs: np.ndarray) -> tuple[np.ndarray, ...]:
    """What the kernel needs per row of designs (DESIGN_FIELDS order): c_tot, and the
    per-step driver resistance r_drv and settling constant tau_step (rows, n), each
    the transpose of a bit-major array."""
    c_tot = 2.0 ** (cfg.n_bits - 1) * designs[:, 0]  # c_unit
    # Driver strength halves per bit from r_drv_msb until the minimum-size
    # device; its resistance is the growth limit for the geometric scaling.
    r_drv = np.multiply.outer(_doublings(cfg.n_bits), designs[:, 6])
    np.minimum(r_drv, cfg.r_drv_cap, out=r_drv)
    return c_tot, r_drv.T, (r_drv * c_tot).T


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class AdcModel:
    """One design under its config."""

    cfg: AdcConfig
    row: np.ndarray  # the design as a (1, d) kernel matrix


def design_box(bounds: dict[str, tuple[float, float]] | None) -> np.ndarray:
    """bounds as a (d, 2) box in DESIGN_FIELDS order; a field bounds omits is unbounded."""
    box = [(bounds or {}).get(name, (-math.inf, math.inf)) for name in DESIGN_FIELDS]
    return np.array(box, dtype=float)


def build_model(design: DesignPoint, cfg: AdcConfig,
                bounds: dict[str, tuple[float, float]] | None = None) -> AdcModel:
    """design's model under cfg, once every field is positive and inside
    bounds (``design_box``); BoundsError otherwise."""
    row = np.array([astuple(design)])
    check_designs(row, design_box(bounds))
    return AdcModel(cfg, row)


def sample_input(cfg: AdcConfig, designs: np.ndarray, v_in: float | np.ndarray,
                 v_prev: float | np.ndarray = 0.0, tau_smp: np.ndarray | None = None
                 ) -> np.ndarray:
    """The track-and-hold: each row of the (n, d) designs holds v_in, noise
    free, shape (n, len(v_in)), or (n, 1) for a scalar v_in.

    The held voltage settles from v_prev toward v_in with time constant
    tau_smp = r_sw * c_tot over the sampling window (a caller that already
    has ``sampling_constants`` may pass its tau_smp); exp is libm's, per row
    on Python floats, so a row's result does not depend on the batch.
    Overrange inputs are allowed (they clip later, in the conversion).
    """
    if tau_smp is None:
        tau_smp, _ = sampling_constants(cfg, designs)
    settle = np.array([math.exp(r) for r in (-designs[:, 2] / tau_smp).tolist()])  # t_sample
    return v_in - (v_in - v_prev) * settle[:, None]


@dataclass
class Conversions:
    """The kernel's output: one conversion per row."""

    bits: np.ndarray          # (rows, n) 0/1, MSB first
    applied_step: np.ndarray  # (rows, n) realized step entering each decision, V
    t_bit: np.ndarray         # (rows, n) comparator + logic time per fired bit cycle, s
    t_total: np.ndarray       # (rows,) sampling window + fired bit cycles, added in bit order, s
    n_fired: np.ndarray       # (rows,)
    timing_ok: np.ndarray     # (rows,)

    @property
    def codes(self) -> np.ndarray:
        return self.bits @ (2 ** np.arange(self.bits.shape[1])[::-1])


def kernel_out(n_bits: int, rows: int) -> tuple[np.ndarray, ...]:
    """Uninitialized arrays for convert_rows' out: the bits (int64), the
    applied steps and the bit times, each bit-major (n_bits, rows).

    They share one allocation.  As separate arrays, a capture's reused
    working set still left a 65,536-point capture about 4,700 minor page
    faults (glibc trims free heap above twice the largest block it has
    unmapped).  With the bits first rather than last, verify12's peak RSS
    read 0.4 MB higher."""
    slab = np.empty((3, n_bits, rows))
    return slab[2].view(np.int64), slab[0], slab[1]


def _loop_arrays(n_bits: int, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """The decision loop's own arrays, in one allocation made per call:
    five float rows (residue, signed step, live mask, the two-row delay
    pair) and 2 n_bits bool rows (each bit's comparison, then each bit's
    alive flag).  Inside a capture's kernel_out they were alive at
    noise_matrix's peak in every later block, and verify12's peak RSS read
    0.5 MB higher; made per call they fault no page once glibc's mmap
    threshold has risen to their size."""
    raw = np.empty(5 * rows * 8 + 2 * n_bits * rows, dtype=np.uint8)
    return (raw[:5 * rows * 8].view(np.float64).reshape(5, rows),
            raw[5 * rows * 8:].view(bool).reshape(2 * n_bits, rows))


@lru_cache(maxsize=16)
def _constants(cfg: AdcConfig) -> tuple:
    """cfg's kernel constants as read-only 0-d arrays, numpy's cheapest
    operand for a small ufunc call: (t_conv, v_floor, v_dd, one per step
    amplitude)."""
    values = (cfg.t_conv, cfg.v_floor, cfg.v_dd, *cfg.step_amp.tolist())
    return tuple(_frozen(np.array(v)) for v in values)


_ONE, _ZERO = _frozen(np.array(1.0)), _frozen(np.array(0.0))


def convert_rows(cfg: AdcConfig, designs: np.ndarray, v_sampled: np.ndarray,
                 cmp_draws: np.ndarray | None = None, owner: np.ndarray | None = None,
                 out: tuple[np.ndarray, ...] | None = None) -> Conversions:
    """The conversion kernel: row m converts v_sampled[m] on design
    designs[owner[m]] of the (n, d) matrix designs (DESIGN_FIELDS order).

    With owner=None every row converts on designs[0]; a one-design
    matrix takes the same 0-d constants whatever owner says.  cmp_draws
    holds one standard-normal comparator draw per row and bit; None
    disables noise, and sigma_cmp, which only scales the draws, is then
    not read (``conversion_keys``).  Its columns are read one per
    decision, so a column-contiguous (Fortran-ordered) cmp_draws reads
    fastest.  The designs are not
    checked here (see ``check_designs``), and a design it would reject (a
    zero, negative or NaN field) converts to meaningless values;
    v_sampled and cmp_draws are never written.

    Bit 1 compares the sampled voltage directly (top-plate sampling).
    Each later decision i sees the previous residue minus/plus a step of
    ideal amplitude v_fs/2**i, realized only partially: the step settles
    for the logic delay plus an estimate of the upcoming comparator delay
    (one fixed-point pass: the estimate is computed on the ideally-stepped
    residue, then the settled step determines the actual decision and its
    delay).  The recorded step for bit 1 is the MSB-weight settling that
    the first bit cycle would allow; it never enters a residue but is what
    the step-ratio measurement reads.

    One clock per row, the sampling window plus the bit times added in bit
    order, decides which decisions fire and is t_total.  Timing failures
    are never exceptions: once it passes the conversion period, remaining
    bits resolve to 0 and timing_ok is False.  Charges and energies are a
    post-pass over the bits (``conversion_energy``).  Every step is
    elementwise over rows, so a row's result does not depend on the batch.

    A small call costs its ufunc dispatches, not its arithmetic, so the
    loop makes few, and cheap ones: every constant is a 0-d array (a
    Python float or a numpy scalar operand costs about half as much again
    per call); bit j's decision delay and bit j + 1's estimate, which both
    wait on bit j's result, run as one delay pass over two rows; the
    comparisons and the alive flags are kept as bools, and are masked,
    cast to the int64 bits and counted into n_fired once, after the loop;
    and outputs are passed positionally (a keyword out costs about 30 ns
    more per call), except np.maximum's, whose positional out is
    deprecated.

    out, a ``kernel_out(n_bits, r)`` for any r >= rows, is used in place
    of new arrays: bits, applied_step and t_bit then view it, so a later
    call with the same out overwrites them.
    """
    n, rows = cfg.n_bits, len(v_sampled)
    t_conv, v_floor, v_dd, *amp = _constants(cfg)
    # Design constants: 0-d for one design.  Per row, the delay constants
    # are (2, rows), the rows twice, so that the paired delay pass below
    # reads same-shape operands (a broadcast one costs about twice as
    # much).  The settling constants are bit-major and negated.
    if owner is None or len(designs) == 1:
        t_sample, sigma_cmp, t_d0, tau_reg, t_dff = (designs[0, k, ...] for k in (2, 3, 4, 5, 7))
        neg_tau = np.negative(derive(cfg, designs[:1])[2][0])
    else:
        cols = np.ascontiguousarray(designs.T)[:, np.concatenate([owner, owner])]
        cols = cols.reshape(len(cols), 2, rows)
        t_sample, sigma_cmp, t_d0, tau_reg, t_dff = cols[2, 0], cols[3, 0], cols[4], cols[5], cols[7]
        neg_tau = np.negative(derive(cfg, cols[:, 0].T)[2].T)

    def delay(mag: np.ndarray) -> np.ndarray:
        """Regeneration delay per decision, in place of mag: grows as the
        residue shrinks, to at most its value at v_floor."""
        np.maximum(mag, v_floor, out=mag)
        np.divide(v_dd, mag, mag)
        np.log(mag, mag)
        np.multiply(tau_reg, mag, mag)
        np.add(t_d0, mag, mag)
        return np.maximum(mag, t_d0, out=mag)

    # Bit-major: one contiguous row per decision.  Every entry of the
    # first rows of the outputs is written below.
    bits, applied, t_bit = (a[:, :rows] for a in (kernel_out(n, rows) if out is None else out))
    floats, flags = _loop_arrays(n, rows)
    residue, signed, live, pair = floats[0], floats[1], floats[2], floats[3:]
    decided, fired = flags[:n], flags[n:]
    # pair: decision j's compared voltage and bit j + 1's ideally-stepped
    # residue, each turned into its delay plus t_dff by one pass.
    noisy, est = pair
    np.copyto(residue, v_sampled)  # the loop writes residue, never v_sampled
    elapsed = np.full(rows, t_sample)  # the clock
    np.abs(residue, pair)  # bit 1's estimate sees the sampled voltage
    delay(pair)
    np.add(pair, t_dff, pair)
    for j in range(n):
        # A dead row's bit time is 0 (or NaN), so its clock never comes
        # back inside the period: a row stays dead.
        np.less(elapsed, t_conv, fired[j])
        np.copyto(live, fired[j])  # masks a dead row's step and time to 0.0
        # The settled fraction 1 - exp(-(t_dff + t_est) / tau_step); the
        # step is live * amp times it.
        np.divide(est, neg_tau[j, ...], est)
        np.exp(est, est)
        np.subtract(_ONE, est, est)
        if j:
            # signed holds +-amp[j], the sign of bit j - 1's comparison: the
            # step, signed, moves the residue (applied keeps |step|, below).
            np.multiply(signed, live, signed)
            np.multiply(signed, est, applied[j])
            np.subtract(residue, applied[j], residue)
        else:  # bit 1's step is recorded, not applied
            np.multiply(live, amp[0], applied[0])
            np.multiply(applied[0], est, applied[0])
        if cmp_draws is None:
            np.copyto(noisy, residue)
        else:
            np.multiply(sigma_cmp, cmp_draws[:, j], noisy)
            np.add(residue, noisy, noisy)
        # The comparison; a dead row's is masked to 0 after the loop.  Its
        # sign steers only that row's masked steps and times.
        np.greater_equal(noisy, _ZERO, decided[j])
        if j < n - 1:
            # amp[j] is exactly 2 * amp[j + 1], so this is +-amp[j + 1].
            np.multiply(decided[j], amp[j], signed)
            np.subtract(signed, amp[j + 1], signed)
            np.subtract(residue, signed, est)
        # After the last bit est holds a finite stale value; its pass is unread.
        delay(np.abs(pair, pair))
        np.add(pair, t_dff, pair)
        np.multiply(live, noisy, t_bit[j])
        np.add(elapsed, t_bit[j], elapsed)

    np.abs(applied, applied)
    np.copyto(bits, np.logical_and(decided, fired, decided))
    return Conversions(bits.T, applied.T, t_bit.T, elapsed, np.add.reduce(fired, axis=0),
                       timing_ok=fired[n - 1] & (elapsed <= t_conv))


# Every field but sigma_cmp, in DESIGN_FIELDS order: what a noise-free
# conversion reads.
_NOISE_FREE = np.array([j for j, name in enumerate(DESIGN_FIELDS) if name != "sigma_cmp"])


def conversion_keys(designs: np.ndarray) -> list[bytes]:
    """Per row of the (n, d) designs, the bytes of every field but
    sigma_cmp: its conversion key.  sigma_cmp enters ``convert_rows`` only
    through cmp_draws and ``reference_charge`` not at all, so rows with
    one key convert alike without noise, bit for bit, and draw equal
    charges; only ``conversion_energy`` tells them apart."""
    return [row.tobytes() for row in designs[:, _NOISE_FREE]]


def reference_charge(cfg: AdcConfig, designs: np.ndarray, bits: np.ndarray,
                     n_fired: np.ndarray, owner: np.ndarray | None = None) -> np.ndarray:
    """The charge post-pass over converted rows: the reference charge per
    switch event (rows, n) of each row of bits with n_fired fired
    decisions, on designs[owner[m]] as in convert_rows (one design's
    c_unit is 0-d, whatever owner says).  Rows are independent, so a
    caller may pass only the rows it prices (``conversion_energy``)."""
    c_unit = designs[0, 0, ...] if owner is None or len(designs) == 1 else designs[owner, 0]
    return _switch_charge(cfg.v_dd, c_unit, 2.0 ** (cfg.n_bits - 1) * c_unit, bits, n_fired)


@lru_cache(maxsize=64)
def _event_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per switch event j < n - 1 (read-only): its capacitor's weight
    2**(n-2-j) in unit caps, and j."""
    return _frozen(2.0 ** np.arange(n - 2, -1, -1)), _frozen(np.arange(n - 1))


def _switch_charge(v_dd: float, c_unit: np.ndarray, c_tot: np.ndarray,
                   bits: np.ndarray, n_fired: np.ndarray) -> np.ndarray:
    """Reference charge drawn by the switch event after each fired decision.

    Common-mode-referenced switching: after decision j the cap weighted
    2**(n-1-j) units moves from mid-rail to a rail on each side, in
    opposite directions (a 1 takes the n side's cap to the supply, a 0
    the p side's).  tied holds the capacitance each side (n, then p)
    already ties to the supply rail.
    """
    rows, n = bits.shape
    weight, event = _event_tables(n)
    half_rail = v_dd / 2.0
    # (rows, n-1), or (n-1,) for one c_unit: column j is the switch event
    # after decision j.
    c_sw = c_unit[..., None] * weight
    dv_top = half_rail * c_sw / c_tot[..., None]
    up = bits[:, :-1] == 1
    fired = n_fired[:, None] > event
    # The side each fired event ties to the rail: n (a 1), then p (fired
    # and not up).
    joins = np.empty((2, rows, n - 1), dtype=bool)
    np.logical_and(fired, up, out=joins[0])
    np.greater(fired, up, out=joins[1])
    # Supply-tied capacitance before each event: exclusive running sums,
    # added in event order (accumulate is sequential, like a loop).
    tied = np.empty((2, rows, n - 1))
    tied[:, :, 0] = 0.0
    np.add.accumulate(c_sw[..., :-1] * joins[:, :, :-1], axis=2, out=tied[:, :, 1:])
    # Per event: the side whose cap joins the rail, then the other side.
    sides = np.where(up, tied, tied[::-1])
    np.multiply(sides, dv_top, out=sides)
    delta_q = np.empty((rows, n))
    delta_q[:, -1] = 0.0
    dq = delta_q[:, :-1]
    np.subtract(c_sw * (half_rail - dv_top), sides[0], out=dq)
    np.add(dq, sides[1], out=dq)
    np.multiply(dq, fired, out=dq)
    return delta_q


def conversion_energy(cfg: AdcConfig, sigma_cmp: np.ndarray, r_sw: np.ndarray,
                      q_ref: np.ndarray, n_fired: np.ndarray) -> np.ndarray:
    """Conversion energy per conversion whose switch events drew q_ref in
    all (``reference_charge``) over n_fired fired decisions, on designs
    whose sigma_cmp and r_sw broadcast against them.

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
