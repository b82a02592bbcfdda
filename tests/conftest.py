from types import SimpleNamespace

import numpy as np
import pytest

from sarsizer.adc import (AdcConfig, DesignPoint, build_model, conversion_energy, convert_rows,
                         reference_charge)
from sarsizer.rng import noise_matrix


def ideal_design(t_sample=10e-9):
    """Instant settling, no noise, no delay: the ideal quantizer limit."""
    return DesignPoint(
        c_unit=1e-15,
        r_sw=1e-30,
        t_sample=t_sample,
        sigma_cmp=1e-30,
        t_d0=1e-30,
        tau_reg=1e-30,
        r_drv_msb=1e-30,
        t_dff=1e-12,
    )


def sane_design():
    """A functioning 12-bit/20MHz design: settled steps, visible noise."""
    return DesignPoint(
        c_unit=0.5e-15,
        r_sw=200.0,
        t_sample=15e-9,
        sigma_cmp=2e-4,
        t_d0=5e-11,
        tau_reg=1.5e-11,
        r_drv_msb=20.0,
        t_dff=1e-9,
    )


@pytest.fixture
def cfg12():
    # driver cap chosen so even LSB steps settle within a bit cycle
    return AdcConfig(n_bits=12, f_s=20e6, v_dd=1.0, r_drv_cap=150.0)


@pytest.fixture
def ideal_model_12(cfg12):
    return build_model(ideal_design(), cfg12)


@pytest.fixture
def sane_model_12(cfg12):
    return build_model(sane_design(), cfg12)


def ideal_quantizer(v, n_bits, v_fs):
    """Mid-rise uniform quantizer with ties toward the upper code."""
    v = np.asarray(v, dtype=float)
    codes = np.floor((v / v_fs + 0.5) * 2**n_bits)
    return np.clip(codes, 0, 2**n_bits - 1).astype(int)


def binary_search_oracle(v, n_bits, v_fs):
    """Literal successive-approximation search with exact half-interval steps."""
    lo, hi = -v_fs / 2.0, v_fs / 2.0
    code = 0
    for _ in range(n_bits):
        mid = (lo + hi) / 2.0
        if v >= mid:
            code = (code << 1) | 1
            lo = mid
        else:
            code <<= 1
            hi = mid
    return code


def convert_one(model, v, key=None):
    """Row 0 of the kernel run as a batch of one, with its charges (delta_q)
    and energy (e_total) from the post-pass; key = (seed, index) adds noise."""
    draws = None if key is None else noise_matrix(key[0], [key[1]], model.cfg.n_bits)[:, 1:]
    c = convert_rows(model.cfg, model.row, np.array([v], dtype=float), draws)
    delta_q = reference_charge(model.cfg, model.row, c.bits, c.n_fired)
    _, r_sw, _, sigma_cmp = model.row[0, :4]
    e_total = conversion_energy(model.cfg, sigma_cmp, r_sw, delta_q.sum(axis=1), c.n_fired)
    return SimpleNamespace(code=int(c.codes[0]), delta_q=delta_q[0], e_total=e_total[0],
                           **{k: col[0] for k, col in vars(c).items()})


def per_bit_error_budget(n_bits):
    """Equal-budget relative step errors delta_i = 1/(2**(N-i)*sqrt(12*N)), i=1..N,
    whose adjacent ratios the SSRE bounds approximate."""
    i = np.arange(1, n_bits + 1)
    return 1.0 / (2.0 ** (n_bits - i) * np.sqrt(12.0 * n_bits))


def no_sine_test(x):
    """The expensive objective of a local run at lambda = inf, which never calls it."""
    raise AssertionError("f_expensive called at lambda = inf")


def rowwise(f):
    """A batched objective, (n, d) rows -> (n,) values, from the point-wise f."""
    return lambda xs: np.array([f(x) for x in xs], dtype=float)
