"""Brute-force oracles and reference implementations shared by the tests.

The grid oracle enumerates the hypothesis ball at a fixed pitch and
evaluates batch objectives directly from the loss formula, independent of
any solver code path it is used to check. softplus(-z) is computed as
-log_expit(z) (scipy's compiled kernel for the same expression), which
matches logaddexp(0, -z) to the last bit and is much faster on big grids.
"""

from __future__ import annotations

import numpy as np
from scipy.special import log_expit

_GRID_CACHE: dict[tuple[float, float], np.ndarray] = {}


def ball_grid(R: float = 1.0, pitch: float = 1e-3) -> np.ndarray:
    """All points of the pitch-spaced square grid that lie in the R-ball."""
    key = (R, pitch)
    if key not in _GRID_CACHE:
        axis = np.arange(-R, R + pitch / 2, pitch)
        gx, gy = np.meshgrid(axis, axis, indexing="ij")
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        _GRID_CACHE[key] = pts[np.einsum("ij,ij->i", pts, pts) <= R * R]
    return _GRID_CACHE[key]


def grid_min_objective(
    X: np.ndarray,
    y: np.ndarray,
    C: float,
    R: float = 1.0,
    pitch: float = 1e-3,
    gamma: float = 0.0,
    anchor: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Minimum of mean normalized-logistic loss (+ optional quadratic pull
    toward ``anchor``) over the ball grid; returns (value, argmin point)."""
    grid = ball_grid(R, pitch)
    Z = (grid @ X.T) * y  # (points, samples)
    objective = -log_expit(Z).sum(axis=1) / (len(X) * C)
    if gamma:
        d = grid - anchor
        objective = objective + 0.5 * gamma * np.einsum("ij,ij->i", d, d)
    best = int(np.argmin(objective))
    return float(objective[best]), grid[best]


def reference_shuffle(rng, items: np.ndarray) -> np.ndarray:
    """The Fisher-Yates of ``CounterRng.shuffle``'s contract, swapping numpy
    elements in place: draw k of ``rng.uniforms(n - 1)`` picks
    ``j = floor(u * (i + 1))`` for ``i = n - 1 - k``."""
    arr = np.array(items)
    n = len(arr)
    if n < 2:
        return arr
    u = rng.uniforms(n - 1)
    for k, i in enumerate(range(n - 1, 0, -1)):
        j = int(u[k] * (i + 1))
        arr[i], arr[j] = arr[j], arr[i]
    return arr


def reference_normals(rng, n: int) -> np.ndarray:
    """``CounterRng.normals``'s Box-Muller contract over the whole request at
    once: uniform pair k of ``rng.uniforms(2 * ceil(n / 2))`` gives normals
    2k (cosine) and 2k + 1 (sine); an odd request drops the last sine."""
    m = (n + 1) // 2
    u = rng.uniforms(2 * m)
    r = np.sqrt(-2.0 * np.log1p(-u[0::2]))
    theta = 2.0 * np.pi * u[1::2]
    out = np.empty(2 * m)
    out[0::2] = r * np.cos(theta)
    out[1::2] = r * np.sin(theta)
    return out[:n]


def reference_raw(seed: int, first: int, n: int) -> np.ndarray:
    """Raw draws ``first .. first + n - 1`` of SplitMix64 seeded ``seed``, one
    at a time in Python integers: ``mix64(seed + i * 0x9E3779B97F4A7C15)``."""
    mask = 0xFFFFFFFFFFFFFFFF
    out = []
    for i in range(first, first + n):
        z = (seed + i * 0x9E3779B97F4A7C15) & mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return np.array(out, dtype=np.uint64)
