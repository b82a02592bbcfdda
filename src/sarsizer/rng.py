"""Counter-based noise generation keyed by global sample index.

Block p of sample index i is Philox4x32-10 (Salmon et al., SC'11) of the
counter (i mod 2**32, i >> 32, p, 0) under the key (seed mod 2**32, seed >> 32).
Its words (w0, w1) and (w2, w3) give two 53-bit uniforms u0 and u1, which
Box-Muller turns into draws 2p and 2p + 1: the float64 radius
sqrt(-2 ln u0) times the float32 cos and sin of the angle 2 pi u1 rounded to
float32.  Each draw is within 2**-21 times its radius of the float64
transform, and float32 cos/sin give an element the same value wherever it
sits in an array.  A row depends on (seed, index) alone, and its
first draws not on how many follow, so a capture drawn block by block gets
exactly the noise of one draw over all its samples.  ``noise_matrix`` draws
in passes of NOISE_PASS rows and writes into a caller's array if given
one, so a capture fills one draw matrix block after block and its Philox
state never exceeds one pass.  A pass's counters are block-major, so each
column of the draws is written contiguously, and Box-Muller runs in the
pass's own words; a new draw matrix is Fortran-ordered, because the
conversion kernel reads one column per decision.
"""

from __future__ import annotations

import math

import numpy as np


def is_seed(value) -> bool:
    """Whether value can key a stream: an integer, not a bool, in [0, 2**64)."""
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    return integer and 0 <= value < 2**64


def philox4x32(x: np.ndarray, key: tuple[int, int]) -> np.ndarray:
    """Philox4x32-10, in place, of the counters in the columns of x (shape
    (4, n), 32-bit words in uint64) under key (k0, k1).  Returns the view
    of x that holds the words ((w0, w1), (w2, w3))."""
    (x0, x1, x2, x3), (k0, k1), hi = x, key, np.empty_like(x[0])
    for _ in range(10):
        x0 *= 0xD2511F53  # a 32x32-bit product fits the uint64
        x2 *= 0xCD9E8D57
        x1 ^= np.right_shift(x2, 32, out=hi)
        x1 ^= k0
        x3 ^= np.right_shift(x0, 32, out=hi)
        x3 ^= k1
        x0 &= 0xFFFFFFFF
        x2 &= 0xFFFFFFFF
        x0, x1, x2, x3 = x1, x2, x3, x0
        k0, k1 = (k0 + 0x9E3779B9) & 0xFFFFFFFF, (k1 + 0xBB67AE85) & 0xFFFFFFFF
    return x.reshape(2, 2, -1)[::-1]  # ten rounds moved each word two rows on


# Rows per Philox pass.  At 12 bits a pass's counters take about 0.46 MB,
# against 1.8 MB for a whole 8,192-row capture block.  With a capture's
# reused working set (sndr.sine_test), 2,048-row passes leave a
# 65,536-point capture no minor page faults; 4,096 brought back about 2,000
# per capture, and 1,024 ran 5-10% slower.
NOISE_PASS = 2048


def noise_matrix(seed: int, indices: np.ndarray, n_bits: int,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Stacked conversion draws, one row per sample index.

    Column 0 is the sampling-noise draw; columns 1..n_bits are the
    comparator draws.  Row m depends only on (seed, indices[m]), however
    the indices are partitioned or ordered, so the rows are drawn in passes
    of NOISE_PASS.  With out (float64, shape (len(indices), n_bits + 1))
    the draws are written into it and out is returned; otherwise a new
    Fortran-ordered array is.
    """
    index = np.asarray(indices).astype(np.uint64)
    blocks, sines = -(-(n_bits + 1) // 2), (n_bits + 1) // 2  # block p: columns 2p, 2p + 1
    key = (seed & 0xFFFFFFFF, seed >> 32)
    out = np.empty((len(index), n_bits + 1), order="F") if out is None else out
    # One counter buffer serves every pass, so two passes' counters are
    # never held at once.
    words = np.empty(4 * blocks * min(len(index), NOISE_PASS), dtype=np.uint64)
    for start in range(0, len(index), NOISE_PASS):
        part = index[start:start + NOISE_PASS]
        rows = len(part)
        x = words[:4 * blocks * rows].reshape(4, blocks, rows)  # block-major counters
        np.bitwise_and(part, 0xFFFFFFFF, out=x[0])
        np.right_shift(part, 32, out=x[1])
        x[2], x[3] = np.arange(blocks)[:, None], 0
        hi, lo = philox4x32(x.reshape(4, -1), key).swapaxes(0, 1)
        lo >>= 11
        hi <<= 21
        hi |= lo  # (hi << 32 | lo) >> 11
        # Box-Muller in the pass's words: the uniforms overwrite lo, the
        # float32 angle and its cos or sin the first row of hi.
        u = lo.view(np.float64)
        np.add(hi, 0.5, out=u)
        u *= 2.0**-53  # in (0, 1]
        radius, angle = u.reshape(2, blocks, rows)
        np.log(radius, out=radius)
        radius *= -2.0
        np.sqrt(radius, out=radius)
        # The angle is rounded to float32 for numpy's SIMD cos/sin (float64
        # runs scalar libm); the radius stays float64, so the tails do not
        # change.
        angle32, trig = hi[0].view(np.float32).reshape(2, blocks, rows)
        np.multiply(angle, 2.0 * math.pi, out=angle32)
        draws = out[start:start + rows].T  # one row per column of out
        np.multiply(np.cos(angle32, out=trig), radius, out=draws[0::2])
        np.multiply(np.sin(angle32[:sines], out=trig[:sines]), radius[:sines], out=draws[1::2])
    return out
