"""Counter-based noise generation keyed by global sample index.

Every conversion owns a Philox4x64-10 stream (Salmon et al., SC'11) keyed
by (seed, sample_index) with the block number 1..B as its counter, i.e.
the words of ``np.random.Philox(key=[seed, index])``.  Box-Muller turns
each word pair into two standard normals.  A row depends on its key alone,
so a capture drawn block by block, or as M interleaved segments, gets
exactly the noise of one draw over all its samples.
"""

from __future__ import annotations

import math

import numpy as np

_M0, _M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157  # round multipliers
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B  # key bumps


def is_seed(value) -> bool:
    """Whether value can key a stream: an integer, not a bool, in [0, 2**64)."""
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    return integer and 0 <= value < 2**64


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products m * x, from 32-bit halves."""
    m_lo, m_hi = m & 0xFFFFFFFF, m >> 32
    x_lo, x_hi = x & 0xFFFFFFFF, x >> 32
    lh, hl = x_lo * m_hi, x_hi * m_lo
    mid = ((x_lo * m_lo) >> 32) + (lh & 0xFFFFFFFF) + (hl & 0xFFFFFFFF)
    return x_hi * m_hi + (lh >> 32) + (hl >> 32) + (mid >> 32), x * m


def philox4x64(seed: int, indices: np.ndarray, n_blocks: int) -> np.ndarray:
    """Raw words, shape (len(indices), 4 * n_blocks): row m holds blocks
    1..n_blocks of the stream keyed by (seed, indices[m]), in output order."""
    k1 = np.asarray(indices).astype(np.uint64)[:, None]
    c0 = np.broadcast_to(np.arange(1, n_blocks + 1, dtype=np.uint64), (len(k1), n_blocks))
    c1 = c2 = c3 = np.zeros(c0.shape, dtype=np.uint64)
    for r in range(10):
        hi0, lo0 = _mulhilo(_M0, c0)
        hi1, lo1 = _mulhilo(_M1, c2)
        k0 = np.uint64((seed + r * _W0) % 2**64)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
        k1 = k1 + _W1
    return np.stack([c0, c1, c2, c3], axis=-1).reshape(len(k1), -1)


def noise_matrix(seed: int, indices: np.ndarray, n_bits: int) -> np.ndarray:
    """Stacked conversion draws, one row per sample index.

    Column 0 is the sampling-noise draw; columns 1..n_bits are the
    comparator draws.  Row m depends only on (seed, indices[m]), however
    the indices are partitioned or ordered.
    """
    words = philox4x64(seed, indices, -(-(n_bits + 1) // 4))
    u = ((words >> 11).astype(float) + 0.5) * 2.0**-53  # in (0, 1]
    radius = np.sqrt(-2.0 * np.log(u[:, 0::2]))
    angle = 2.0 * math.pi * u[:, 1::2]
    draws = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=-1)
    return draws.reshape(len(words), -1)[:, : n_bits + 1]
