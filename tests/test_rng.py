import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sarsizer
import sarsizer.rng
from sarsizer.rng import is_seed, noise_matrix, philox4x32


def reference_philox4x32(counter, key):
    """Philox4x32-10 on Python integers, round by round as Salmon et al.
    (SC'11) define it."""
    x, (k0, k1) = list(counter), key
    for _ in range(10):
        p0, p1 = 0xD2511F53 * x[0], 0xCD9E8D57 * x[2]
        x = [(p1 >> 32) ^ x[1] ^ k0, p1 & 0xFFFFFFFF, (p0 >> 32) ^ x[3] ^ k1, p0 & 0xFFFFFFFF]
        k0, k1 = (k0 + 0x9E3779B9) & 0xFFFFFFFF, (k1 + 0xBB67AE85) & 0xFFFFFFFF
    return x


def reference_uniforms(seed, index, n_bits):
    """The (u0, u1) pair of each block of one row, from the scalar Philox."""
    key = (seed & 0xFFFFFFFF, seed >> 32)
    for p in range(-(-(n_bits + 1) // 2)):
        w = reference_philox4x32((index & 0xFFFFFFFF, index >> 32, p, 0), key)
        yield tuple((((hi << 32 | lo) >> 11) + 0.5) * 2.0**-53 for hi, lo in (w[:2], w[2:]))


def reference_row(seed, index, n_bits):
    """One noise_matrix row from the scalar Philox, math's radius and
    numpy's float32 cos/sin of the angle rounded to float32."""
    row = []
    for u0, u1 in reference_uniforms(seed, index, n_bits):
        radius, angle = math.sqrt(-2.0 * math.log(u0)), np.float32(2.0 * math.pi * u1)
        row += [radius * float(np.cos(angle)), radius * float(np.sin(angle))]
    return row[: n_bits + 1]


# Random123's known-answer vectors for Philox4x32-10: counter, key, words.
KNOWN_ANSWERS = [
    ((0, 0, 0, 0), (0, 0), (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)),
    ((0xFFFFFFFF,) * 4, (0xFFFFFFFF,) * 2, (0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD)),
    (
        (0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344),
        (0xA4093822, 0x299F31D0),
        (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1),
    ),
]


@pytest.mark.parametrize("counter, key, words", KNOWN_ANSWERS, ids=["zeros", "ones", "pi"])
def test_known_answer_vectors(counter, key, words):
    assert reference_philox4x32(counter, key) == list(words)
    x = np.array(counter, dtype=np.uint64).reshape(4, 1)
    assert philox4x32(x, key).reshape(4).tolist() == list(words)


@pytest.mark.parametrize(
    "seed, indices",
    [
        (0, [0, 1, 2**32 - 1]),
        (7, [123456, 2**32, 2**33 + 9]),
        (2**40 + 3, [5, 2**40 + 17]),
        (2**64 - 1, [2**64 - 5, 2**64 - 1, 0]),
    ],
)
@pytest.mark.parametrize("n_bits", [0, 7, 12])
def test_rows_match_scalar_reference(seed, indices, n_bits):
    # Words are exact integers and cos/sin the same float32 loops; libm and
    # numpy's log may differ by a few ulp, and every draw is below 9 in
    # magnitude.
    rows = noise_matrix(seed, np.array(indices, dtype=np.uint64), n_bits)
    expected = [reference_row(seed, i, n_bits) for i in indices]
    np.testing.assert_allclose(rows, expected, rtol=0, atol=1e-13)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    indices=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=20),
    n_bits=st.integers(0, 16),
)
def test_draws_near_float64_box_muller(seed, indices, n_bits):
    # The float32 angle moves each draw by at most 2**-21 times its radius:
    # half an ulp of an angle below 2 pi is 2**-22, and float32 cos/sin
    # err by a few 2**-24.
    rows = noise_matrix(seed, np.array(indices, dtype=np.uint64), n_bits)
    for row, index in zip(rows, indices):
        exact, bound = [], []
        for u0, u1 in reference_uniforms(seed, index, n_bits):
            radius = math.sqrt(-2.0 * math.log(u0))
            exact += [radius * math.cos(2.0 * math.pi * u1), radius * math.sin(2.0 * math.pi * u1)]
            bound += [2.0**-21 * radius] * 2
        assert np.all(np.abs(row - exact[: n_bits + 1]) <= bound[: n_bits + 1])


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    indices=st.lists(st.integers(0, 2**40), min_size=1, max_size=40),
    n_bits=st.integers(0, 16),
    data=st.data(),
)
def test_rows_independent_of_partition_and_order(seed, indices, n_bits, data):
    full = noise_matrix(seed, np.array(indices), n_bits)
    assert full.shape == (len(indices), n_bits + 1)
    order = data.draw(st.permutations(range(len(indices))))
    cut = data.draw(st.integers(0, len(indices)))
    for part in (order[:cut], order[cut:]):
        if part:
            rows = noise_matrix(seed, np.array(indices)[part], n_bits)
            np.testing.assert_array_equal(rows, full[part])


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    indices=st.lists(st.integers(0, 2**64 - 1), max_size=40),
    sizes=st.lists(st.integers(0, 16), min_size=2, max_size=2, unique=True).map(sorted),
)
def test_first_columns_independent_of_n_bits(seed, indices, sizes):
    m, n = sizes
    idx = np.array(indices, dtype=np.uint64)
    np.testing.assert_array_equal(noise_matrix(seed, idx, n)[:, : m + 1], noise_matrix(seed, idx, m))


@pytest.mark.parametrize("n_bits", [0, 7, 12])
def test_out_receives_the_allocating_draws(n_bits):
    # A capture passes the first rows of a buffer sized for a whole block,
    # holding the previous block's draws.
    idx = np.arange(300, 1300)
    buf = np.full((1500, n_bits + 1), np.nan)
    rows = noise_matrix(5, idx, n_bits, out=buf[: len(idx)])
    assert np.shares_memory(rows, buf) and rows.shape == (len(idx), n_bits + 1)
    np.testing.assert_array_equal(rows, noise_matrix(5, idx, n_bits))
    assert np.isnan(buf[len(idx):]).all()


@pytest.mark.parametrize("n_bits", [0, 7, 12])
def test_out_order_changes_no_draw(n_bits):
    idx = np.arange(300, 2800)  # more than one pass
    row_major = noise_matrix(5, idx, n_bits, out=np.empty((len(idx), n_bits + 1)))
    column_major = noise_matrix(5, idx, n_bits, out=np.empty((len(idx), n_bits + 1), order="F"))
    assert row_major.flags.c_contiguous and column_major.flags.f_contiguous
    np.testing.assert_array_equal(row_major, column_major)


def test_default_result_has_contiguous_columns():
    # The kernel reads one column per decision.
    draws = noise_matrix(5, np.arange(3000), 12)
    assert draws.flags.f_contiguous and draws[:, 7].flags.c_contiguous


@pytest.mark.parametrize("rows", [1, 2047, 2048, 2049, 8192])
@pytest.mark.parametrize("noise_pass", [1, 3, 2048])
def test_draws_independent_of_noise_pass(monkeypatch, rows, noise_pass):
    idx = np.arange(rows, dtype=np.uint64) + 2**32 - 1000  # crosses a counter word
    monkeypatch.setattr(sarsizer.rng, "NOISE_PASS", rows)
    one_pass = noise_matrix(9, idx, 12)
    monkeypatch.setattr(sarsizer.rng, "NOISE_PASS", noise_pass)
    np.testing.assert_array_equal(noise_matrix(9, idx, 12), one_pass)


def test_noise_does_not_import_numpy_random():
    # numpy.random would add ~6 MB of resident memory to a capture
    code = ("import sys, numpy as np; from sarsizer.rng import noise_matrix; "
            "noise_matrix(1, np.arange(8), 12); assert 'numpy.random' not in sys.modules")
    env = {**os.environ, "PYTHONPATH": str(Path(sarsizer.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_moments_of_a_million_draws():
    draws = noise_matrix(1, np.arange(2**17), 7).ravel()
    assert draws.size >= 10**6
    assert np.isfinite(draws).all()
    assert abs(draws.mean()) < 5e-3
    assert draws.std() == pytest.approx(1.0, abs=5e-3)


@pytest.mark.parametrize("value", [0, 7, 2**64 - 1, np.uint64(2**64 - 1)])
def test_seed_range_accepts(value):
    assert is_seed(value)
