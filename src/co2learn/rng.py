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

This pins the byte-level content of every generated stream to (seed, draw
order) alone, independent of numpy's own RNG machinery.
"""

from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)

_U53 = 2.0**-53


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def substream(seed: int, index: int) -> "CounterRng":
    """Independent substream ``seed XOR index`` (the per-interval scheme)."""
    return CounterRng((int(seed) ^ int(index)) & 0xFFFFFFFFFFFFFFFF)


class CounterRng:
    """SplitMix64 counter generator; see the module docstring for the contract."""

    def __init__(self, seed: int):
        self._seed = np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF)
        self._count = 0  # raw draws consumed so far

    def raw(self, n: int) -> np.ndarray:
        """Next ``n`` raw uint64 outputs."""
        idx = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
        self._count += n
        with np.errstate(over="ignore"):
            return _mix64((self._seed + idx * _GOLDEN) & _MASK)

    def uniforms(self, n: int) -> np.ndarray:
        """``n`` uniforms in [0, 1)."""
        return (self.raw(n) >> np.uint64(11)).astype(np.float64) * _U53

    def normals(self, n: int) -> np.ndarray:
        """``n`` standard normals via Box-Muller on consecutive uniform pairs."""
        m = (n + 1) // 2
        u = self.uniforms(2 * m)
        r = np.sqrt(-2.0 * np.log1p(-u[0::2]))
        theta = 2.0 * np.pi * u[1::2]
        out = np.empty(2 * m)
        out[0::2] = r * np.cos(theta)
        out[1::2] = r * np.sin(theta)
        return out[:n]

    def shuffle(self, items: np.ndarray) -> np.ndarray:
        """Fisher-Yates shuffle (not in place); consumes len(items)-1 uniforms."""
        arr = np.array(items)
        n = len(arr)
        if n < 2:
            return arr
        out = arr.tolist()  # swapping list items is cheaper than numpy scalars
        for i, u in zip(range(n - 1, 0, -1), self.uniforms(n - 1).tolist()):
            j = int(u * (i + 1))
            out[i], out[j] = out[j], out[i]
        return np.array(out, dtype=arr.dtype)
