import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sarsizer.rng import is_seed, noise_matrix, philox4x64


@pytest.mark.parametrize(
    "seed, index",
    [(0, 0), (7, 123456), (2**40 + 3, 2**33 + 9), (2**64 - 1, 2**64 - 5)],
)
@pytest.mark.parametrize("n_blocks", [1, 4])
def test_raw_words_match_numpy_philox(seed, index, n_blocks):
    oracle = np.random.Philox(key=np.array([seed, index], dtype=np.uint64))
    expected = oracle.random_raw(4 * n_blocks)
    words = philox4x64(seed, np.array([index], dtype=np.uint64), n_blocks)
    np.testing.assert_array_equal(words[0], expected)


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


def test_moments_of_a_million_draws():
    draws = noise_matrix(1, np.arange(2**17), 7).ravel()
    assert draws.size >= 10**6
    assert np.isfinite(draws).all()
    assert abs(draws.mean()) < 5e-3
    assert draws.std() == pytest.approx(1.0, abs=5e-3)


@pytest.mark.parametrize("value", [0, 7, 2**64 - 1, np.uint64(2**64 - 1)])
def test_seed_range_accepts(value):
    assert is_seed(value)
