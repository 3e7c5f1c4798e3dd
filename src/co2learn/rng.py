"""Counter-based random number generation for reproducible streams.

The generator is SplitMix64: draw number i (1-based) is

    mix64(seed + i * 0x9E3779B97F4A7C15)

with the standard finalizer

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

all in uint64 arithmetic. Because the state is a pure counter, any block of
draws can be produced as a vectorized numpy expression, and independent
substreams are obtained by seeding with ``seed XOR substream_index``.

Derived values, in documented order:

* uniform in [0, 1):   (z >> 11) * 2**-53
* standard normals:    Box-Muller on consecutive uniform pairs (u_a, u_b):
                       r = sqrt(-2 ln(1 - u_a)),
                       z0 = r cos(2 pi u_b),  z1 = r sin(2 pi u_b).
                       A request for n normals always consumes
                       2 * ceil(n / 2) raw draws; a leftover normal from an
                       odd request is discarded, never cached.
* shuffle:             Fisher-Yates from the top, j = floor(u * (i + 1)).
                       Every j is computed in one vectorized pass before the
                       swaps; the values are those of the scalar formula.

This pins the byte-level content of every generated stream to (seed, draw
order) alone, independent of numpy's own RNG machinery.

Draws are produced in fixed-size blocks of ``_BLOCK`` raw draws, written in
place into the result through scratch buffers of at most that size, so a
large draw holds little more than its result. Every value is a function of
its own counter, so no value depends on the block size or on where the
block boundaries fall.

A normals result of ``_MAPPED_BYTES`` or more (a wide run's intervals) gets
an anonymous memory map of its own, unmapped when it goes. From
glibc's heap, where such blocks go once one has been freed, a run's peak RSS
depended on whether each fit in holes left by unrelated allocations.
"""

from __future__ import annotations

import mmap

import numpy as np

_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK = 0xFFFFFFFFFFFFFFFF
_SHIFTS = {n: np.uint64(n) for n in (11, 27, 30, 31)}

_U53 = 2.0**-53
# k * _NEG_U53 is -(k * 2**-53) and k * _TWO_PI_U53 is (2 pi) * (k * 2**-53),
# bit for bit: scaling by a power of two is exact.
_NEG_U53 = -_U53
_TWO_PI_U53 = 2.0 * np.pi * _U53

_BLOCK = 2**14  # raw draws per block (even); a normals block's scratch is 448 KiB
_RAMP = np.arange(_BLOCK, dtype=np.uint64) * np.uint64(_GOLDEN)  # k * gamma mod 2**64
_MAPPED_BYTES = 2**20  # a normals result this large gets its own memory map


def _mix64(z: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The SplitMix64 finalizer, in place on uint64 ``z``; ``t`` is scratch
    of the same shape. Returns ``z``."""
    for shift, mul in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(z, _SHIFTS[shift], out=t)
        z ^= t
        z *= mul
    np.right_shift(z, _SHIFTS[31], out=t)
    z ^= t
    return z


def _float_result(n: int) -> np.ndarray:
    """``n`` uninitialized float64 values, in a map of their own if large."""
    flags = getattr(mmap, "MAP_PRIVATE", 0) | getattr(mmap, "MAP_ANONYMOUS", 0)
    if 8 * n < _MAPPED_BYTES or not flags:
        return np.empty(n)
    return np.frombuffer(mmap.mmap(-1, 8 * n, flags=flags), dtype=np.float64)


def substream(seed: int, index: int) -> "CounterRng":
    """Independent substream ``seed XOR index`` (the per-interval scheme)."""
    return CounterRng((int(seed) ^ int(index)) & _MASK)


class CounterRng:
    """SplitMix64 counter generator; see the module docstring for the contract."""

    def __init__(self, seed: int):
        self._seed = int(seed) & _MASK
        self._count = 0  # raw draws consumed so far

    def _take(self, n: int) -> int:
        """Consume ``n`` raw draws; return the counter of the first."""
        self._count += n
        return self._count - n + 1

    def _fill(self, z: np.ndarray, t: np.ndarray, i: int) -> np.ndarray:
        """Raw draws ``i, i + 1, ...`` into ``z`` (at most ``_BLOCK`` long),
        in place; ``t`` is scratch at least as long."""
        np.add(_RAMP[: len(z)], (self._seed + i * _GOLDEN) & _MASK, out=z)
        return _mix64(z, t[: len(z)])

    def raw(self, n: int) -> np.ndarray:
        """Next ``n`` raw uint64 outputs."""
        first = self._take(n)
        out = np.empty(n, dtype=np.uint64)
        t = np.empty(min(_BLOCK, n), dtype=np.uint64)
        for lo in range(0, n, _BLOCK):
            self._fill(out[lo: lo + _BLOCK], t, first + lo)
        return out

    def uniforms(self, n: int) -> np.ndarray:
        """``n`` uniforms in [0, 1)."""
        z = self.raw(n)
        z >>= _SHIFTS[11]
        return z * _U53

    def normals(self, n: int) -> np.ndarray:
        """``n`` standard normals via Box-Muller on consecutive uniform pairs.

        Each block's u_a and u_b halves are converted into contiguous
        scratch, so the logarithm, square root and trigonometric functions
        run on contiguous arrays; only the products are written into the
        strided halves of the result."""
        m = (n + 1) // 2
        first = self._take(2 * m)
        out = _float_result(2 * m)
        size = min(_BLOCK, 2 * m)
        z, t = np.empty(size, dtype=np.uint64), np.empty(size, dtype=np.uint64)
        r, theta, trig = np.empty(size // 2), np.empty(size // 2), np.empty(size // 2)
        for lo in range(0, 2 * m, _BLOCK):
            k = min(_BLOCK, 2 * m - lo)
            if k < size:  # the last, short block
                z, r, theta, trig = z[:k], r[: k // 2], theta[: k // 2], trig[: k // 2]
            self._fill(z, t, first + lo)
            z >>= _SHIFTS[11]
            np.multiply(z[0::2], _NEG_U53, out=r)
            np.log1p(r, out=r)
            r *= -2.0
            np.sqrt(r, out=r)
            np.multiply(z[1::2], _TWO_PI_U53, out=theta)
            np.cos(theta, out=trig)
            np.multiply(r, trig, out=out[lo: lo + k: 2])
            np.sin(theta, out=trig)
            np.multiply(r, trig, out=out[lo + 1: lo + k: 2])
        return out[:n]

    def shuffle(self, items: np.ndarray) -> np.ndarray:
        """Fisher-Yates shuffle (not in place); consumes len(items)-1 uniforms."""
        arr = np.array(items)
        n = len(arr)
        if n < 2:
            return arr
        out = arr.tolist()  # swapping list items is cheaper than numpy scalars
        # j = floor(u * (i + 1)) for i = n-1 .. 1, all at once: each i + 1 is
        # exact in float64, the product is one rounding, and truncation is floor
        js = (self.uniforms(n - 1) * np.arange(n, 1, -1)).astype(np.int64).tolist()
        for i, j in zip(range(n - 1, 0, -1), js):
            out[i], out[j] = out[j], out[i]
        return np.array(out, dtype=arr.dtype)
