import math
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sarsizer import adc, sndr
from sarsizer.adc import AdcConfig, DesignPoint, build_model, convert_rows, sample_input
from sarsizer.adc import _switch_charge
from sarsizer.coarse import POWER_GRID_POINTS
from sarsizer.errors import BoundsError, ConfigError
from sarsizer.pipeline import load_config
from sarsizer.rng import noise_matrix

from conftest import (
    binary_search_oracle,
    convert_one,
    ideal_design,
    ideal_quantizer,
    sane_design,
)

BOLTZMANN = 1.380649e-23


def design_with(**overrides):
    base = sane_design().to_dict()
    base.update(overrides)
    return DesignPoint(**base)


def design_of(model):
    """The DesignPoint of a model's row."""
    return DesignPoint.from_vector(model.row[0])


class TestBuildModel:
    def test_total_capacitance(self):
        cfg = AdcConfig(n_bits=12, f_s=1e6, v_dd=1.0)
        m = build_model(design_with(c_unit=1e-15), cfg)
        c_tot = adc.derive(cfg, m.row)[0]
        assert c_tot[0] == 2**11 * 1e-15

    def test_driver_resistance_doubles_per_bit(self):
        cfg = AdcConfig(n_bits=8, f_s=1e6, v_dd=1.0)
        m = build_model(design_with(r_drv_msb=1e3), cfg)
        r_drv = adc.derive(cfg, m.row)[1][0]
        # halved driver strength per bit: resistance doubles
        assert r_drv[2] == 1e3 * 2**2 == 4e3

    def test_driver_resistance_capped(self):
        cfg = AdcConfig(n_bits=12, f_s=1e6, v_dd=1.0, r_drv_cap=8e3)
        m = build_model(design_with(r_drv_msb=1e3), cfg)
        _, r_drv, tau_step = (v[0] for v in adc.derive(cfg, m.row))
        assert r_drv.max() == 8e3
        # settling constants nondecreasing, flat once the cap engages
        assert np.all(np.diff(tau_step) >= 0)

    def test_binary_step_amplitudes(self):
        cfg = AdcConfig(n_bits=4, f_s=1e6, v_dd=2.0)
        np.testing.assert_array_equal(cfg.step_amp, [1.0, 0.5, 0.25, 0.125])
        np.testing.assert_array_equal(cfg.step_amp[:-1] / cfg.step_amp[1:], 2.0)

    def test_bounds_error_names_field(self):
        cfg = AdcConfig(n_bits=8, f_s=1e6, v_dd=1.0)
        bounds = {"r_sw": (100.0, 1e3)}
        with pytest.raises(BoundsError, match="r_sw"):
            build_model(design_with(r_sw=5e3), cfg, bounds)

    def test_nonpositive_field_rejected(self):
        cfg = AdcConfig(n_bits=8, f_s=1e6, v_dd=1.0)
        with pytest.raises(BoundsError, match="sigma_cmp"):
            build_model(design_with(sigma_cmp=0.0), cfg)

    def test_model_is_config_and_row(self):
        cfg = AdcConfig(n_bits=8, f_s=1e6, v_dd=1.0)
        m = build_model(sane_design(), cfg)
        assert [f.name for f in fields(m)] == ["cfg", "row"]
        assert m.cfg is cfg
        np.testing.assert_array_equal(m.row, [list(sane_design().to_dict().values())])

    @pytest.mark.parametrize("name, value", [
        ("f_s", math.nan), ("f_s", math.inf), ("v_dd", -math.inf), ("temp_k", math.nan),
        ("r_drv_cap", math.inf), ("v_floor", 0.0), ("kappa_cmp", math.nan),
        ("kappa_sw", math.inf), ("e_dff", -1e-15), ("n_bits", 1),
    ])
    def test_config_rejects_nonfinite_and_out_of_range(self, name, value):
        with pytest.raises(ConfigError, match=name):
            AdcConfig(**{"n_bits": 8, "f_s": 1e6, "v_dd": 1.0, name: value})

    @pytest.mark.parametrize("v_floor", [1.0, 2.0, math.nan], ids=["v_dd", "twice_v_dd", "nan"])
    def test_config_rejects_v_floor_not_below_v_dd(self, v_floor):
        # At or above v_dd the delay law is flat: every decision takes t_d0.
        with pytest.raises(ConfigError, match=r"v_floor must be in \(0, v_dd = 1.0\)"):
            AdcConfig(n_bits=8, f_s=1e6, v_dd=1.0, v_floor=v_floor)
        with pytest.raises(ConfigError, match="v_floor"):
            load_config(f"{{N: 8, fs: 1.0e6, V_DD: 1.0, v_floor: {v_floor}}}", is_text=True)


class TestSampleInput:
    def test_zero_switch_resistance_is_exact(self):
        cfg = AdcConfig(n_bits=8, f_s=1e6, v_dd=1.0)
        m = build_model(ideal_design(), cfg)
        for v in (-0.3, 0.0, 0.44):
            assert sample_input(cfg, m.row, v)[0, 0] == v

    def test_rc_settling_matches_analytic(self):
        # c_tot = 2 pF via c_unit, r_sw = 1 kOhm, 10 ns window: 5 time constants
        cfg = AdcConfig(n_bits=12, f_s=1e6, v_dd=1.2)
        m = build_model(
            design_with(c_unit=2e-12 / 2**11, r_sw=1e3, t_sample=10e-9), cfg
        )
        sampled = sample_input(cfg, m.row, 1.0, v_prev=0.0)[0, 0]
        tau_smp, _ = adc.sampling_constants(cfg, m.row)
        assert tau_smp[0] == pytest.approx(2e-9, rel=1e-12)
        error = 1.0 - sampled
        assert error == pytest.approx(math.exp(-5.0), rel=1e-12)
        assert sampled == pytest.approx(0.99326, abs=5e-6)

    def test_kt_c_noise_std(self, monkeypatch):
        # the kT/C column the capture adds to the held input before converting
        cfg = AdcConfig(n_bits=12, f_s=1e6, v_dd=1.0, temp_k=300.0)
        m = build_model(design_with(c_unit=1e-12 / 2**11, r_sw=1e-30), cfg)
        held = []

        def recording(cfg, designs, v_sampled, *args, **kwargs):
            held.append(v_sampled)
            return convert_rows(cfg, designs, v_sampled, *args, **kwargs)

        monkeypatch.setattr(sndr, "convert_rows", recording)
        plan = sndr.plan_test(cfg.f_s, 2**17, 1, 0.1 * cfg.f_s, 0.5, seed=11)
        stimuli = sndr.sine_stimuli(cfg, plan, noise=True)
        for v_now, v_prev, _ in stimuli:  # held input before the noise: 0 at every sample
            v_now[:sndr.CAPTURE_BLOCK] = v_prev[:sndr.CAPTURE_BLOCK] = 0.0
        sndr.sine_test(cfg, m.row, plan, stimuli=stimuli)
        assert sum(map(len, held)) == plan.k_points + POWER_GRID_POINTS  # the grid's rows last
        draws = np.concatenate(held)[:plan.k_points]
        expected = math.sqrt(2 * BOLTZMANN * 300.0 / 1e-12)
        assert expected == pytest.approx(91.0e-6, abs=0.1e-6)
        assert draws.std() == pytest.approx(expected, rel=0.02)

    def test_previous_sample_memory(self):
        cfg = AdcConfig(n_bits=8, f_s=1e6, v_dd=1.0)
        m = build_model(design_with(r_sw=2e3, t_sample=1e-9), cfg)
        a = sample_input(cfg, m.row, 0.4, v_prev=0.0)[0, 0]
        b = sample_input(cfg, m.row, 0.4, v_prev=-0.4)[0, 0]
        assert a != b
        # same v_prev restores exact reproducibility
        assert sample_input(cfg, m.row, 0.4, v_prev=-0.4)[0, 0] == b

    def test_matrix_equals_rows_one_by_one(self):
        # the coarse tests hold a whole design matrix at once, a capture
        # one row: each row of the matrix call is that row's own call
        cfg = AdcConfig(n_bits=10, f_s=1e6, v_dd=1.0)
        rng = np.random.default_rng(3)
        designs = np.vstack([
            build_model(design_with(c_unit=c, r_sw=r, t_sample=t), cfg).row
            for c, r, t in zip(10 ** rng.uniform(-15, -13, 6), 10 ** rng.uniform(2, 4, 6),
                               10 ** rng.uniform(-10, -9, 6))
        ])
        v_in, v_prev = rng.uniform(-0.6, 0.6, 50), rng.uniform(-0.6, 0.6, 50)
        many = sample_input(cfg, designs, v_in, v_prev)
        assert many.shape == (6, 50)
        for c in range(6):
            one = sample_input(cfg, designs[c:c + 1], v_in, v_prev)
            np.testing.assert_array_equal(many[c], one[0])
            assert not np.array_equal(one[0], v_in)  # the window does not settle fully


class TestConvert:
    def test_midscale_ties_high(self):
        cfg = AdcConfig(n_bits=4, f_s=1e6, v_dd=2.0)
        m = build_model(ideal_design(), cfg)
        assert convert_one(m, 0.0).code == 8

    def test_binary_search_oracle_value(self):
        cfg = AdcConfig(n_bits=4, f_s=1e6, v_dd=2.0)
        m = build_model(ideal_design(), cfg)
        v = 0.3 * 2.0
        assert binary_search_oracle(v, 4, 2.0) == 12
        assert convert_one(m, v).code == 12

    @pytest.mark.parametrize("n", [4, 6, 8, 10])
    def test_ideal_limit_matches_quantizer_exhaustively(self, n):
        cfg = AdcConfig(n_bits=n, f_s=1e6, v_dd=1.0)
        m = build_model(ideal_design(), cfg)
        # hit every code plus both overrange sides and exact boundaries
        grid = np.linspace(-0.6, 0.6, 2**n * 4 + 1)
        got = convert_rows(cfg, m.row, grid).codes
        np.testing.assert_array_equal(got, ideal_quantizer(grid, n, 1.0))

    def test_overrange_clips_to_extremes(self):
        cfg = AdcConfig(n_bits=8, f_s=1e6, v_dd=1.0)
        m = build_model(ideal_design(), cfg)
        assert convert_one(m, 5.0).code == 255
        assert convert_one(m, -5.0).code == 0

    def test_monotone_in_input_without_noise(self, sane_model_12):
        grid = np.linspace(-0.55, 0.55, 2**12)
        codes = convert_rows(sane_model_12.cfg, sane_model_12.row, grid).codes
        assert np.all(np.diff(codes) >= 0)

    def test_ideal_steps_ratio_exact(self, ideal_model_12):
        trace = convert_one(ideal_model_12, ideal_model_12.cfg.v_dd)
        np.testing.assert_array_equal(
            trace.applied_step[:-1] / trace.applied_step[1:], 2.0
        )

    def test_timing_failure_zeroes_trailing_bits(self):
        # decisions at half supply stay metastable long enough to blow the
        # conversion period
        cfg = AdcConfig(n_bits=10, f_s=20e6, v_dd=1.0)
        m = build_model(design_with(t_d0=4e-9, tau_reg=2e-9, t_dff=4e-9), cfg)
        trace = convert_one(m, 1e-7)
        assert not trace.timing_ok
        assert trace.n_fired < 10
        assert np.all(trace.bits[trace.n_fired:] == 0)
        assert np.all(trace.t_bit[trace.n_fired:] == 0.0)

    def test_time_accounting_identity(self):
        """t_total is the kernel's clock: the sampling window plus each bit
        time, added in bit order, and timing_ok reads it."""
        cfg = AdcConfig(n_bits=12, f_s=20e6, v_dd=1.0)
        designs = np.vstack([build_model(d, cfg).row for d in
                             (sane_design(), design_with(t_d0=4e-9, tau_reg=2e-9, t_dff=4e-9))])
        owner = np.repeat([0, 1], 50)
        v = np.tile(np.linspace(-0.55, 0.55, 50), 2)
        conv = convert_rows(cfg, designs, v, noise_matrix(3, np.arange(100), 12)[:, 1:], owner)
        assert conv.timing_ok[:50].all() and not conv.timing_ok[50:].any()
        for m in range(100):
            clock = designs[owner[m], 2]  # t_sample
            for t in conv.t_bit[m].tolist():
                clock += t
            assert conv.t_total[m] == clock
            assert conv.timing_ok[m] == (conv.n_fired[m] == 12 and clock <= cfg.t_conv)

    def test_determinism_bit_identical(self, sane_model_12):
        a = convert_one(sane_model_12, 0.123, (5, 77))
        b = convert_one(sane_model_12, 0.123, (5, 77))
        assert a.code == b.code
        np.testing.assert_array_equal(a.applied_step, b.applied_step)
        np.testing.assert_array_equal(a.t_bit, b.t_bit)
        np.testing.assert_array_equal(a.delta_q, b.delta_q)
        assert a.e_total == b.e_total

    def test_different_key_changes_noise(self, sane_model_12):
        vals = {convert_one(sane_model_12, 0.123, (5, i)).code for i in range(20)}
        assert len(vals) > 1


def charge_oracle(model, bits):
    """Independent supply-charge bookkeeping from absolute node voltages.

    Tracks every capacitor's bottom-plate potential and the top-plate
    shift per side; the supply charge of an event is the change of
    (v_bottom - v_top) summed over supply-connected capacitors, plus the
    hookup charge of the newly connected one.
    """
    n = model.cfg.n_bits
    v_dd = model.cfg.v_dd
    v_cm = v_dd / 2.0
    c_unit = design_of(model).c_unit
    caps = [2 ** (n - 1 - j) * c_unit for j in range(1, n)]  # event j-1 switches caps[j-1]
    c_tot = 2 ** (n - 1) * c_unit

    events = []
    for side_sign in (+1, -1):  # +1: p side, -1: n side
        vb = [v_cm] * len(caps)
        vt = 0.0
        side_events = []
        for j, bit in enumerate(bits[: n - 1]):
            # p side goes down when the bit is 1; n side mirrors
            goes_up = (bit == 0) if side_sign == 1 else (bit == 1)
            new_vb = v_dd if goes_up else 0.0
            dvb = new_vb - vb[j]
            vt_new = vt + dvb * caps[j] / c_tot
            dq = 0.0
            for k in range(len(caps)):
                if k == j:
                    if new_vb == v_dd:
                        dq += caps[k] * ((new_vb - vt_new) - (v_cm - vt))
                elif vb[k] == v_dd:
                    dq += caps[k] * ((v_dd - vt_new) - (v_dd - vt))
            vb[j] = new_vb
            vt = vt_new
            side_events.append(dq)
        events.append(side_events)
    return np.array(events[0]) + np.array(events[1])


class TestEnergy:
    def cfg(self, **kw):
        defaults = dict(n_bits=4, f_s=1e6, v_dd=1.0, kappa_cmp=0.0, kappa_sw=0.0, e_dff=0.0)
        defaults.update(kw)
        return AdcConfig(**defaults)

    def test_dac_only_when_coefficients_zero(self):
        m = build_model(ideal_design(), self.cfg())
        trace = convert_one(m, 0.2)
        assert trace.e_total == m.cfg.v_dd * trace.delta_q.sum()

    def test_comparator_term_scales_inverse_square(self):
        base = design_with(sigma_cmp=2e-4)
        halved = design_with(sigma_cmp=1e-4)
        cfg = self.cfg(kappa_cmp=1e-24)
        t1 = convert_one(build_model(base, cfg), 0.2)
        t2 = convert_one(build_model(halved, cfg), 0.2)
        term1 = cfg.kappa_cmp / base.sigma_cmp**2 * t1.n_fired
        term2 = cfg.kappa_cmp / halved.sigma_cmp**2 * t2.n_fired
        assert term2 == pytest.approx(4.0 * term1, rel=1e-12)
        assert t2.e_total - t2.delta_q.sum() * cfg.v_dd - term2 == pytest.approx(
            t1.e_total - t1.delta_q.sum() * cfg.v_dd - term1, rel=1e-12
        )

    def test_hand_tracked_midscale_charges(self):
        # four-bit conversion of v = 0 (code 1000): hand-tracked supply
        # charges per event with 1 fF unit and 1 V supply
        m = build_model(ideal_design(), self.cfg())
        assert design_of(m).c_unit == 1e-15
        trace = convert_one(m, 0.0)
        assert trace.code == 8
        np.testing.assert_allclose(
            trace.delta_q[:3], [1.0e-15, 1.25e-15, 0.5625e-15], rtol=1e-12
        )
        assert trace.e_total == pytest.approx(2.8125e-15, rel=1e-12)

    @pytest.mark.parametrize("v", [-0.37, -0.125, 0.0, 0.2, 0.49])
    def test_charge_conservation_oracle(self, v):
        cfg = AdcConfig(n_bits=8, f_s=1e6, v_dd=1.0)
        m = build_model(sane_design(), cfg)
        trace = convert_one(m, v)
        oracle = charge_oracle(m, trace.bits)
        np.testing.assert_allclose(trace.delta_q[:-1], oracle, rtol=1e-12)

    def test_energy_nonnegative_and_additive(self):
        cfg = self.cfg(kappa_cmp=1e-25, kappa_sw=1e-13, e_dff=1e-15)
        m = build_model(sane_design(), cfg)
        trace = convert_one(m, -0.11)
        e_dac = cfg.v_dd * trace.delta_q.sum()
        d = design_of(m)
        e_cmp = cfg.kappa_cmp / d.sigma_cmp**2 * trace.n_fired
        e_logic = cfg.e_dff * trace.n_fired
        e_sw = cfg.kappa_sw / d.r_sw
        assert min(e_dac, e_cmp, e_logic, e_sw) >= 0.0
        assert trace.e_total == pytest.approx(e_dac + e_cmp + e_logic + e_sw, rel=1e-12)


def reference_convert(model, v, cmp_draws):
    """Scalar per-bit reference with libm exp/log: (applied steps, t_bit,
    delta_q, e_total, timing_ok), written out from the model equations."""
    n, d, cfg = model.cfg.n_bits, design_of(model), model.cfg
    c_tot = 2 ** (n - 1) * d.c_unit
    # The kernel has no such cap: its v_floor floor keeps the delay below
    # it, which the kernel-against-oracle tests pin.
    t_cmp_max = d.t_d0 + d.tau_reg * math.log(cfg.v_dd / cfg.v_floor)

    def delay(mag):
        raw = d.t_d0 + d.tau_reg * math.log(cfg.v_dd / max(mag, cfg.v_floor))
        return min(max(raw, d.t_d0), t_cmp_max)

    def step_amp(j):
        return cfg.v_dd / 2 ** (j + 1)

    def settled(j, t_est):
        tau_step = min(d.r_drv_msb * 2**j, cfg.r_drv_cap) * c_tot  # driver halves per bit, capped
        return step_amp(j) * (1.0 - math.exp(-(d.t_dff + t_est) / tau_step))

    applied, t_bit, delta_q = np.zeros(n), np.zeros(n), np.zeros(n)
    c_rail = {"p": 0.0, "n": 0.0}
    half = cfg.v_dd / 2.0
    elapsed, residue, sign, fired = d.t_sample, v, 0.0, 0
    for j in range(n):
        if elapsed >= cfg.t_conv:
            break
        if j == 0:
            applied[0] = settled(0, delay(abs(v)))
        else:
            applied[j] = settled(j, delay(abs(residue - sign * step_amp(j))))
            residue -= sign * applied[j]
        noisy = residue + d.sigma_cmp * cmp_draws[j]
        t_bit[j] = delay(abs(noisy)) + d.t_dff
        elapsed += t_bit[j]
        fired = j + 1
        sign = 1.0 if noisy >= 0.0 else -1.0
        if j < n - 1:
            c_sw = 2.0 ** (n - 2 - j) * d.c_unit
            dv = half * c_sw / c_tot
            rising, other = ("n", "p") if sign > 0 else ("p", "n")
            delta_q[j] = c_sw * (half - dv) - c_rail[rising] * dv + c_rail[other] * dv
            c_rail[rising] += c_sw
    e_total = (cfg.v_dd * delta_q.sum() + cfg.kappa_cmp / d.sigma_cmp**2 * fired
               + cfg.e_dff * fired + cfg.kappa_sw / d.r_sw)
    t_total = d.t_sample + t_bit.sum()
    return applied, t_bit, delta_q, e_total, fired == n and t_total <= cfg.t_conv


class TestKernel:
    CASES = {
        # partially settled DAC steps, comparator noise, every bit fires
        "settling": (AdcConfig(n_bits=10, f_s=2e6, v_dd=1.0, kappa_cmp=1e-25,
                               kappa_sw=1e-13, e_dff=1e-15),
                     design_with(r_drv_msb=400.0, c_unit=2e-15), 0.1234, (4, 9)),
        # metastable decisions run out of time: dead trailing bits
        "timing_failure": (AdcConfig(n_bits=10, f_s=20e6, v_dd=1.0, kappa_cmp=1e-25),
                           design_with(t_d0=4e-9, tau_reg=2e-9, t_dff=4e-9), 1e-7, None),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_batch_of_one_matches_hand_reference(self, case):
        cfg, design, v, key = self.CASES[case]
        m = build_model(design, cfg)
        trace = convert_one(m, v, key)
        draws = np.zeros(cfg.n_bits) if key is None else noise_matrix(key[0], [key[1]], cfg.n_bits)[0, 1:]
        applied, t_bit, delta_q, e_total, timing_ok = reference_convert(m, v, draws)
        np.testing.assert_allclose(trace.applied_step, applied, rtol=1e-12, atol=0)
        np.testing.assert_allclose(trace.t_bit, t_bit, rtol=1e-12, atol=0)
        np.testing.assert_allclose(trace.delta_q, delta_q, rtol=1e-12, atol=0)
        assert trace.e_total == pytest.approx(e_total, rel=1e-12)
        assert trace.timing_ok == timing_ok
        assert trace.timing_ok == (case == "settling")

    def test_row_result_independent_of_batch(self):
        cfg = AdcConfig(n_bits=8, f_s=1e6, v_dd=1.0, kappa_cmp=1e-25, e_dff=1e-15)
        rng = np.random.default_rng(5)
        designs = np.vstack([
            build_model(design_with(c_unit=c, r_drv_msb=r, t_d0=t), cfg).row
            for c, r, t in zip(10 ** rng.uniform(-15.3, -13.5, 5),
                               10 ** rng.uniform(2, 4, 5), 10 ** rng.uniform(-10, -7, 5))
        ])
        owner = np.repeat(np.arange(5), 7)
        v = rng.uniform(-0.6, 0.6, len(owner))
        draws = noise_matrix(2, np.arange(len(owner)), cfg.n_bits)[:, 1:]
        many = with_charges(cfg, designs, convert_rows(cfg, designs, v, draws, owner=owner), owner)
        for row, c in enumerate(owner):
            one = with_charges(cfg, designs[c:c + 1],
                               convert_rows(cfg, designs[c:c + 1], v[row:row + 1], draws[row:row + 1]))
            for name in ("bits", "applied_step", "t_bit", "delta_q"):
                np.testing.assert_array_equal(getattr(many, name)[row], getattr(one, name)[0])
            for name in ("t_total", "n_fired", "timing_ok", "e_total"):
                assert getattr(many, name)[row] == getattr(one, name)[0], name

    @pytest.mark.parametrize("noisy", [False, True], ids=["noise_free", "noisy"])
    @pytest.mark.parametrize("spare", [0, 37])
    def test_buffer_matches_fresh_call(self, noisy, spare):
        """A call into a buffer (holding an earlier call's values, and with
        spare rows past this call's) returns the fresh call's conversions,
        as views of the buffer."""
        cfg = AdcConfig(n_bits=12, f_s=20e6, v_dd=1.0, kappa_cmp=1e-25, e_dff=1e-15)
        designs = np.vstack([build_model(d, cfg).row for d in
                             (sane_design(), design_with(t_d0=4e-9, tau_reg=2e-9, t_dff=4e-9))])
        rng = np.random.default_rng(8)
        rows = 200
        owner = rng.integers(0, 2, rows)
        v = rng.uniform(-0.55, 0.55, rows)
        draws = noise_matrix(4, np.arange(rows), cfg.n_bits)[:, 1:] if noisy else None
        buf = adc.kernel_out(cfg.n_bits, rows + spare)
        convert_rows(cfg, designs, -v[::-1], None, owner=1 - owner, out=buf)  # stale values
        fresh = with_charges(cfg, designs, convert_rows(cfg, designs, v, draws, owner=owner), owner)
        reused = with_charges(cfg, designs,
                              convert_rows(cfg, designs, v, draws, owner=owner, out=buf), owner)
        assert not fresh.timing_ok.all() and fresh.timing_ok.any()
        assert len(buf) == 3
        for name, array in zip(("bits", "applied_step", "t_bit"), buf):
            assert np.shares_memory(getattr(reused, name), array), name
        for name in ("bits", "applied_step", "t_bit", "t_total", "n_fired", "timing_ok",
                     "delta_q", "e_total", "codes"):
            np.testing.assert_array_equal(getattr(reused, name), getattr(fresh, name))


@settings(max_examples=40, deadline=None)
@given(n_bits=st.sampled_from([8, 12]), noisy=st.booleans(), owned=st.booleans(),
       use_out=st.booleans(), data=st.data())
def test_draw_layout_changes_no_conversion(n_bits, noisy, owned, use_out, data):
    """Row-major and column-contiguous cmp_draws convert alike, and neither
    they nor v_sampled are written, with or without owners and out, on
    designs around the sane one (some dead before their last bit)."""
    cfg = AdcConfig(n_bits=n_bits, f_s=20e6, v_dd=1.0)
    scale = st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8)
    designs = np.vstack([
        build_model(sane_design(), cfg).row * 10.0 ** np.array(data.draw(scale))
        for _ in range(data.draw(st.integers(1, 3)))
    ] + [build_model(design_with(t_d0=4e-9, tau_reg=2e-9, t_dff=4e-9), cfg).row])
    designs = designs[data.draw(st.permutations(range(len(designs))))]
    rows = data.draw(st.integers(1, 40))
    v = np.array(data.draw(st.lists(st.floats(-0.6, 0.6), min_size=rows, max_size=rows)))
    owner = (np.array(data.draw(st.lists(st.integers(0, len(designs) - 1),
                                         min_size=rows, max_size=rows))) if owned else None)
    columns = noise_matrix(data.draw(st.integers(0, 2**64 - 1)), np.arange(rows), n_bits)[:, 1:]
    layouts = (np.ascontiguousarray(columns), columns) if noisy else (None, None)
    inputs = [a for a in (v, *layouts) if a is not None]
    before = [a.copy() for a in inputs]
    results = []
    for draws in layouts:
        out = adc.kernel_out(n_bits, rows + data.draw(st.integers(0, 5))) if use_out else None
        results.append(convert_rows(cfg, designs, v, draws, owner=owner, out=out))
    for name in ("bits", "applied_step", "t_bit", "t_total", "n_fired", "timing_ok"):
        np.testing.assert_array_equal(getattr(results[0], name), getattr(results[1], name))
    for a, b in zip(inputs, before):
        np.testing.assert_array_equal(a, b)


@settings(max_examples=40, deadline=None)
@given(n_bits=st.sampled_from([8, 12]), noisy=st.booleans(), slow=st.booleans(),
       use_out=st.booleans(), data=st.data())
def test_one_design_converts_as_owned_rows(n_bits, noisy, slow, use_out, data):
    """owner=None (0-d design constants) and owner=zeros (a constant per
    row) convert bit for bit alike, rows that die before their last bit
    included (slow: every row of that design does)."""
    cfg = AdcConfig(n_bits=n_bits, f_s=20e6, v_dd=1.0)
    scale = 10.0 ** np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8)))
    first = (design_with(t_d0=4e-9, tau_reg=2e-9, t_dff=4e-9) if slow
             else DesignPoint.from_vector(build_model(sane_design(), cfg).row[0] * scale))
    designs = np.vstack([build_model(first, cfg).row, build_model(sane_design(), cfg).row])
    rows = data.draw(st.integers(1, 40))
    v = np.array(data.draw(st.lists(st.floats(-0.6, 0.6), min_size=rows, max_size=rows)))
    seed = data.draw(st.integers(0, 2**64 - 1))
    draws = noise_matrix(seed, np.arange(rows), n_bits)[:, 1:] if noisy else None
    spare = data.draw(st.integers(0, 5))
    one, owned = (convert_rows(cfg, designs, v, draws, owner=owner,
                               out=adc.kernel_out(n_bits, rows + spare) if use_out else None)
                  for owner in (None, np.zeros(rows, dtype=np.int64)))
    if slow:
        assert not one.timing_ok.any()
    for name in ("bits", "applied_step", "t_bit", "t_total", "n_fired", "timing_ok"):
        a, b = getattr(one, name), getattr(owned, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes(), name
    # The charge post-pass too; and a one-design matrix takes the 0-d
    # constants whatever owner says.
    zeros = np.zeros(rows, dtype=np.int64)
    charges = [adc.reference_charge(cfg, designs, one.bits, one.n_fired),
               adc.reference_charge(cfg, designs, one.bits, one.n_fired, zeros),
               adc.reference_charge(cfg, designs[:1], one.bits, one.n_fired, zeros)]
    assert charges[0].tobytes() == charges[1].tobytes() == charges[2].tobytes()
    alone = convert_rows(cfg, designs[:1], v, draws, owner=zeros)
    for name in ("bits", "applied_step", "t_bit", "t_total", "n_fired", "timing_ok"):
        a, b = getattr(one, name), getattr(alone, name)
        assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes(), name


@settings(max_examples=60, deadline=None)
@given(n_bits=st.sampled_from([8, 12]), owned=st.booleans(), data=st.data())
def test_sigma_cmp_reaches_no_noise_free_conversion(n_bits, owned, data):
    """Replacing sigma_cmp changes no field of a noise-free conversion and
    no reference charge, bit for bit, on designs around the sane one (some
    dead before their last bit): the rule ``conversion_keys`` stands on."""
    cfg = AdcConfig(n_bits=n_bits, f_s=20e6, v_dd=1.0)
    scale = st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8)
    designs = np.vstack([
        build_model(sane_design(), cfg).row * 10.0 ** np.array(data.draw(scale))
        for _ in range(data.draw(st.integers(1, 3)))
    ] + [build_model(design_with(t_d0=4e-9, tau_reg=2e-9, t_dff=4e-9), cfg).row])
    rows = data.draw(st.integers(1, 64))
    # Inputs near the decision levels, where a shifted comparison shows.
    codes = np.array(data.draw(st.lists(st.integers(0, 2**n_bits), min_size=rows, max_size=rows)))
    jitter = np.array(data.draw(st.lists(st.floats(-2e-3, 2e-3), min_size=rows, max_size=rows)))
    v = (codes / 2**n_bits - 0.5) * cfg.v_dd + jitter
    owner = (np.array(data.draw(st.lists(st.integers(0, len(designs) - 1),
                                         min_size=rows, max_size=rows))) if owned else None)
    other = designs.copy()
    other[:, 3] = data.draw(st.lists(st.floats(1e-9, 1.0), min_size=len(designs),
                                     max_size=len(designs)))
    assert adc.conversion_keys(designs) == adc.conversion_keys(other)
    results = [convert_rows(cfg, d, v, None, owner=owner) for d in (designs, other)]
    for name in ("bits", "applied_step", "t_bit", "t_total", "n_fired", "timing_ok"):
        a, b = (np.ascontiguousarray(getattr(r, name)) for r in results)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
    charges = [adc.reference_charge(cfg, d, r.bits, r.n_fired, owner)
               for d, r in zip((designs, other), results)]
    assert charges[0].tobytes() == charges[1].tobytes()


def test_n_fired_counts_the_bits_each_row_was_alive_for():
    """A row is alive at bit j while its clock (the sampling window plus the
    earlier bit times, in order) is inside the conversion period; n_fired
    counts those bits, and a dead bit decides 0 in no time with no step."""
    cfg = AdcConfig(n_bits=12, f_s=20e6, v_dd=1.0)
    designs = np.vstack([build_model(d, cfg).row for d in
                         (sane_design(), design_with(t_d0=4e-9, tau_reg=2e-9, t_dff=4e-9),
                          design_with(t_d0=1e-9, tau_reg=1e-9, t_dff=1.5e-9))])
    owner = np.repeat([0, 1, 2], 40)
    v = np.tile(np.linspace(-0.55, 0.55, 40), 3)
    conv = convert_rows(cfg, designs, v, noise_matrix(6, np.arange(120), 12)[:, 1:], owner)
    assert len(set(conv.n_fired.tolist())) > 2
    for m in range(120):
        clock, alive = designs[owner[m], 2], []  # t_sample
        for t in conv.t_bit[m].tolist():
            alive.append(clock < cfg.t_conv)
            clock += t if alive[-1] else 0.0
        assert conv.n_fired[m] == sum(alive)
        dead = ~np.array(alive)
        assert (conv.bits[m][dead] == 0).all() and (conv.t_bit[m][dead] == 0.0).all()
        assert (conv.applied_step[m][dead] == 0.0).all()


def with_charges(cfg, designs, conv, owner=None):
    """conv's fields plus the post-pass's delta_q (``reference_charge``) and
    e_total (``conversion_energy``)."""
    delta_q = adc.reference_charge(cfg, designs, conv.bits, conv.n_fired, owner)
    _, r_sw, _, sigma_cmp = designs[0 if owner is None else owner, :4].T
    e_total = adc.conversion_energy(cfg, sigma_cmp, r_sw, delta_q.sum(axis=1), conv.n_fired)
    return SimpleNamespace(**vars(conv), codes=conv.codes, delta_q=delta_q, e_total=e_total)


def loop_switch_charge(v_dd, c_unit, c_tot, bits, n_fired):
    """The per-bit loop that adc._switch_charge replaced, kept as its reference."""
    rows, n = bits.shape
    half_rail = v_dd / 2.0
    c_vdd_p = np.zeros(rows)
    c_vdd_n = np.zeros(rows)
    delta_q = np.zeros((rows, n))
    for j in range(n - 1):
        c_sw = 2.0 ** (n - 2 - j) * c_unit
        dv_top = half_rail * c_sw / c_tot
        up = bits[:, j] == 1
        fired = n_fired > j
        c_rising = np.where(up, c_vdd_n, c_vdd_p)
        c_other = np.where(up, c_vdd_p, c_vdd_n)
        dq = (c_sw * (half_rail - dv_top) - c_rising * dv_top) + c_other * dv_top
        delta_q[:, j] = dq * fired
        c_vdd_n = c_vdd_n + c_sw * (fired & up)
        c_vdd_p = c_vdd_p + c_sw * (fired & ~up)
    return delta_q


class TestSwitchCharge:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 14),
        rows=st.integers(1, 40),
        per_row=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_loop_bit_for_bit(self, n, rows, per_row, seed):
        """Random bits, rows that stopped early (n_fired < n), and one
        c_unit for all rows (a numpy scalar, as the kernel passes it for a
        single model) or one per row."""
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, (rows, n))
        n_fired = rng.integers(0, n + 1, rows)
        c_unit = 10.0 ** rng.uniform(-15.5, -13.0, rows if per_row else None)
        if not per_row:
            c_unit = np.float64(c_unit)
        c_tot = 2.0 ** (n - 1) * c_unit
        v_dd = float(rng.uniform(0.5, 1.5))
        got = _switch_charge(v_dd, c_unit, c_tot, bits, n_fired)
        want = loop_switch_charge(v_dd, c_unit, c_tot, bits, n_fired)
        assert got.shape == (rows, n)
        np.testing.assert_array_equal(got, want)
        assert (got[n_fired[:, None] <= np.arange(n)] == 0.0).all()
