import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sarsizer import sndr
from sarsizer.adc import AdcConfig, DesignPoint, build_model, convert_rows, sample_input
from sarsizer.adc import _switch_charge
from sarsizer.errors import BoundsError, ConfigError
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


class TestBuildModel:
    def test_total_capacitance(self):
        cfg = AdcConfig(n_bits=12, f_s=1e6, v_dd=1.0)
        m = build_model(design_with(c_unit=1e-15), cfg)
        assert m.c_tot == 2**11 * 1e-15

    def test_driver_resistance_doubles_per_bit(self):
        cfg = AdcConfig(n_bits=8, f_s=1e6, v_dd=1.0)
        m = build_model(design_with(r_drv_msb=1e3), cfg)
        # halved driver strength per bit: resistance doubles
        assert m.r_drv[2] == 1e3 * 2**2 == 4e3

    def test_driver_resistance_capped(self):
        cfg = AdcConfig(n_bits=12, f_s=1e6, v_dd=1.0, r_drv_cap=8e3)
        m = build_model(design_with(r_drv_msb=1e3), cfg)
        assert m.r_drv.max() == 8e3
        # settling constants nondecreasing, flat once the cap engages
        assert np.all(np.diff(m.tau_step) >= 0)

    def test_binary_step_amplitudes(self):
        cfg = AdcConfig(n_bits=4, f_s=1e6, v_dd=2.0)
        m = build_model(ideal_design(), cfg)
        np.testing.assert_array_equal(m.step_amp, [1.0, 0.5, 0.25, 0.125])
        np.testing.assert_array_equal(m.step_amp[:-1] / m.step_amp[1:], 2.0)

    def test_bounds_error_names_field(self):
        cfg = AdcConfig(n_bits=8, f_s=1e6, v_dd=1.0)
        bounds = {"r_sw": (100.0, 1e3)}
        with pytest.raises(BoundsError, match="r_sw"):
            build_model(design_with(r_sw=5e3), cfg, bounds)

    def test_nonpositive_field_rejected(self):
        with pytest.raises(BoundsError, match="sigma_cmp"):
            design_with(sigma_cmp=0.0).validate()


class TestSampleInput:
    def test_zero_switch_resistance_is_exact(self):
        cfg = AdcConfig(n_bits=8, f_s=1e6, v_dd=1.0)
        m = build_model(ideal_design(), cfg)
        for v in (-0.3, 0.0, 0.44):
            assert sample_input(m, v) == v

    def test_rc_settling_matches_analytic(self):
        # c_tot = 2 pF via c_unit, r_sw = 1 kOhm, 10 ns window: 5 time constants
        cfg = AdcConfig(n_bits=12, f_s=1e6, v_dd=1.2)
        m = build_model(
            design_with(c_unit=2e-12 / 2**11, r_sw=1e3, t_sample=10e-9), cfg
        )
        sampled = sample_input(m, 1.0, v_prev=0.0)
        assert m.tau_smp == pytest.approx(2e-9, rel=1e-12)
        error = 1.0 - sampled
        assert error == pytest.approx(math.exp(-5.0), rel=1e-12)
        assert sampled == pytest.approx(0.99326, abs=5e-6)

    def test_kt_c_noise_std(self, monkeypatch):
        # the kT/C column the capture adds to the held input before converting
        cfg = AdcConfig(n_bits=12, f_s=1e6, v_dd=1.0, temp_k=300.0)
        m = build_model(design_with(c_unit=1e-12 / 2**11, r_sw=1e-30), cfg)
        held = []

        def recording(models, v_sampled, *args):
            held.append(v_sampled)
            return convert_rows(models, v_sampled, *args)

        monkeypatch.setattr(sndr, "convert_rows", recording)
        idx, zeros = np.arange(100_000), np.zeros(100_000)
        sndr._convert_segment(m, (idx, zeros, zeros, noise_matrix(11, idx, cfg.n_bits)))
        draws = held[0]
        expected = math.sqrt(2 * BOLTZMANN * 300.0 / 1e-12)
        assert expected == pytest.approx(91.0e-6, abs=0.1e-6)
        assert draws.std() == pytest.approx(expected, rel=0.02)

    def test_previous_sample_memory(self):
        cfg = AdcConfig(n_bits=8, f_s=1e6, v_dd=1.0)
        m = build_model(design_with(r_sw=2e3, t_sample=1e-9), cfg)
        a = sample_input(m, 0.4, v_prev=0.0)
        b = sample_input(m, 0.4, v_prev=-0.4)
        assert a != b
        # same v_prev restores exact reproducibility
        assert sample_input(m, 0.4, v_prev=-0.4) == b


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
        got = convert_rows([m], grid).codes
        np.testing.assert_array_equal(got, ideal_quantizer(grid, n, 1.0))

    def test_overrange_clips_to_extremes(self):
        cfg = AdcConfig(n_bits=8, f_s=1e6, v_dd=1.0)
        m = build_model(ideal_design(), cfg)
        assert convert_one(m, 5.0).code == 255
        assert convert_one(m, -5.0).code == 0

    def test_monotone_in_input_without_noise(self, sane_model_12):
        grid = np.linspace(-0.55, 0.55, 2**12)
        codes = convert_rows([sane_model_12], grid).codes
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

    def test_time_accounting_identity(self, sane_model_12):
        trace = convert_one(sane_model_12, 0.21)
        assert trace.t_total == sane_model_12.design.t_sample + trace.t_bit.sum()
        if trace.timing_ok:
            assert trace.t_total <= sane_model_12.cfg.t_conv

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
    c_unit = model.design.c_unit
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
        defaults = dict(n_bits=4, f_s=1e6, v_dd=1.0)
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
        assert m.design.c_unit == 1e-15
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
        e_cmp = cfg.kappa_cmp / m.design.sigma_cmp**2 * trace.n_fired
        e_logic = cfg.e_dff * trace.n_fired
        e_sw = cfg.kappa_sw / m.design.r_sw
        assert min(e_dac, e_cmp, e_logic, e_sw) >= 0.0
        assert trace.e_total == pytest.approx(e_dac + e_cmp + e_logic + e_sw, rel=1e-12)


def reference_convert(model, v, cmp_draws):
    """Scalar per-bit reference with libm exp/log: (applied steps, t_bit,
    delta_q, e_total, timing_ok), written out from the model equations."""
    n, d, cfg = model.cfg.n_bits, model.design, model.cfg

    def delay(mag):
        raw = d.t_d0 + d.tau_reg * math.log(cfg.v_dd / max(mag, cfg.v_floor))
        return min(max(raw, d.t_d0), model.t_cmp_max)

    def settled(j, t_est):
        return model.step_amp[j] * (1.0 - math.exp(-(d.t_dff + t_est) / model.tau_step[j]))

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
            applied[j] = settled(j, delay(abs(residue - sign * model.step_amp[j])))
            residue -= sign * applied[j]
        noisy = residue + d.sigma_cmp * cmp_draws[j]
        t_bit[j] = delay(abs(noisy)) + d.t_dff
        elapsed += t_bit[j]
        fired = j + 1
        sign = 1.0 if noisy >= 0.0 else -1.0
        if j < n - 1:
            c_sw = 2.0 ** (n - 2 - j) * d.c_unit
            dv = half * c_sw / model.c_tot
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
        models = [
            build_model(design_with(c_unit=c, r_drv_msb=r, t_d0=t), cfg)
            for c, r, t in zip(10 ** rng.uniform(-15.3, -13.5, 5),
                               10 ** rng.uniform(2, 4, 5), 10 ** rng.uniform(-10, -7, 5))
        ]
        owner = np.repeat(np.arange(5), 7)
        v = rng.uniform(-0.6, 0.6, len(owner))
        draws = noise_matrix(2, np.arange(len(owner)), cfg.n_bits)[:, 1:]
        many = convert_rows(models, v, draws, owner=owner, charge=True)
        for row, c in enumerate(owner):
            one = convert_rows([models[c]], v[row:row + 1], draws[row:row + 1], charge=True)
            for name in ("bits", "applied_step", "t_bit", "delta_q"):
                np.testing.assert_array_equal(getattr(many, name)[row], getattr(one, name)[0])
            for name in ("t_total", "n_fired", "timing_ok", "e_total"):
                assert getattr(many, name)[row] == getattr(one, name)[0], name

    def test_one_config_per_call(self):
        a = build_model(sane_design(), AdcConfig(n_bits=8, f_s=1e6, v_dd=1.0))
        b = build_model(sane_design(), AdcConfig(n_bits=8, f_s=2e6, v_dd=1.0))
        with pytest.raises(ConfigError):
            convert_rows([a, b], np.zeros(2), owner=np.arange(2))


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
