"""Brute-force oracles and reference implementations shared by the tests.

The grid oracle minimizes over the hypothesis ball's points at a fixed pitch,
evaluating batch objectives directly from the loss formula, independent of
any solver code path it is used to check; a Lipschitz branch and bound skips
the blocks of points that cannot hold the minimum, and the full enumeration
stays as its reference. softplus(-z) is computed as
-log_expit(z) (scipy's compiled kernel for the same expression), which
matches logaddexp(0, -z) to the last bit and is much faster on big grids.
"""

from __future__ import annotations

import math
import re

import numpy as np
from scipy.special import log_expit

from co2learn.errors import StreamFormatError, check_int
from co2learn.geometry import _INSIDE_RTOL, Sample
from co2learn.losses import batch_mean_loss
from co2learn.rng import substream
from co2learn.streams import MAX_DIM, condition_norms

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


def grid_objective(points, X, y, C, gamma=0.0, anchor=None) -> np.ndarray:
    """Mean normalized-logistic loss (+ optional quadratic pull toward
    ``anchor``) at each row of ``points``."""
    Z = (points @ X.T) * y  # (points, samples)
    objective = -log_expit(Z).sum(axis=1) / (len(X) * C)
    if gamma:
        d = points - anchor
        objective = objective + 0.5 * gamma * np.einsum("ij,ij->i", d, d)
    return objective


def grid_min_objective_exhaustive(
    X: np.ndarray,
    y: np.ndarray,
    C: float,
    R: float = 1.0,
    pitch: float = 1e-3,
    gamma: float = 0.0,
    anchor: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """``grid_min_objective`` by evaluating every point of the ball grid."""
    grid = ball_grid(R, pitch)
    objective = grid_objective(grid, X, y, C, gamma, anchor)
    best = int(np.argmin(objective))
    return float(objective[best]), grid[best]


_BLOCK_SIDE = 16  # grid pitches per block edge
_BLOCKS_CACHE: dict[tuple[float, float], tuple] = {}


def grid_blocks(R: float = 1.0, pitch: float = 1e-3):
    """The ball grid cut into square blocks of ``_BLOCK_SIDE`` pitches:
    ``(points, starts, centres, radii)``, with the points sorted by block,
    block b being ``points[starts[b]: starts[b + 1]]``, its centre the mean of
    its points (inside the ball, which is convex) and its radius the largest
    distance from that centre to one of them."""
    key = (R, pitch)
    if key not in _BLOCKS_CACHE:
        grid = ball_grid(R, pitch)
        cell = np.rint((grid + R) / pitch).astype(np.int64) // _BLOCK_SIDE
        block = cell[:, 0] * (int(cell.max()) + 1) + cell[:, 1]
        order = np.argsort(block, kind="stable")
        points, block = grid[order], block[order]
        starts = np.flatnonzero(np.r_[True, block[1:] != block[:-1]])
        counts = np.diff(np.r_[starts, len(points)])
        centres = np.add.reduceat(points, starts) / counts[:, None]
        dist = np.linalg.norm(points - np.repeat(centres, counts, axis=0), axis=1)
        radii = np.maximum.reduceat(dist, starts)
        _BLOCKS_CACHE[key] = (points, np.r_[starts, len(points)], centres, radii)
    return _BLOCKS_CACHE[key]


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
    toward ``anchor``) over the ball grid; returns (value, argmin point).

    Lipschitz branch and bound (Piyavskii 1972; Shubert 1972) over
    ``grid_blocks``: on the ball the objective's gradient norm is at most
    L = max|x| / C + gamma (R + |anchor|), so no point of a block is below
    f(centre) - L * radius. Blocks are visited in increasing order of that
    bound, and every point is evaluated in each block whose bound is not
    above the best value found; the rest cannot hold the grid minimum."""
    points, starts, centres, radii = grid_blocks(R, pitch)
    L = float(np.linalg.norm(X, axis=1).max()) / C
    if gamma:
        L += gamma * (R + float(np.linalg.norm(anchor)))
    lower = grid_objective(centres, X, y, C, gamma, anchor) - L * radii
    best, best_point = np.inf, None
    for b in np.argsort(lower, kind="stable"):
        if lower[b] > best:
            break
        block = points[starts[b]: starts[b + 1]]
        objective = grid_objective(block, X, y, C, gamma, anchor)
        k = int(np.argmin(objective))
        if objective[k] < best:
            best, best_point = float(objective[k]), block[k]
    return best, best_point


def reference_sigmoid(z):
    """1 / (1 + exp(-z)), stable for any magnitude: a separate branch per sign."""
    z = np.asarray(z, dtype=np.float64)
    ez = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + ez), ez / (1.0 + ez))


def reference_batch_mean_grad(w, X, y, spec) -> np.ndarray:
    """The batch gradient as three whole-array expressions, ``@`` products and
    the labels in whatever dtype they come in."""
    z = y * (X @ w)
    coef = -y * reference_sigmoid(-z) / spec.C
    return (coef @ X) / X.shape[0]


def reference_projected_gradient(X, y, spec, *, gamma=0.0, anchor=None, tol, max_iters):
    """``offline.projected_gradient``'s contract as a plain loop: the labels
    as given, the gamma term always added, a new array for every step, and
    the certificate from ``np.linalg.norm``."""
    v = np.zeros(X.shape[1]) if anchor is None else anchor
    step = 1.0 / (spec.beta + gamma)
    w = v.copy()
    grad_map_norm = np.inf
    for it in range(max_iters):
        grad = reference_batch_mean_grad(w, X, y, spec) + gamma * (w - v)
        w_next = w - step * grad
        norm = math.sqrt(w_next @ w_next)
        if norm > spec.R * (1.0 + _INSIDE_RTOL):
            w_next *= spec.R / norm
        grad_map_norm = float(np.linalg.norm(w - w_next)) / step
        if grad_map_norm <= tol:
            return w, grad_map_norm, it, True
        w = w_next
    return w, grad_map_norm, max_iters, False


def reference_expert_risks(experts, X, y, spec) -> np.ndarray:
    """Each expert's empirical risk on (X, y), one ``batch_mean_loss`` each."""
    return np.array([batch_mean_loss(w_k, X, y, spec) for w_k in experts])


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


def reference_make_multidist(samples: list[Sample], spec) -> list[tuple[np.ndarray, np.ndarray]]:
    """``make_multidist``'s intervals as ``(X, y)`` pairs, with the shuffled
    rows and labels gathered one sample at a time."""
    need = spec.G * spec.B
    order = substream(spec.seed, 0).shuffle(np.arange(len(samples)))[:need]
    X_all = np.asarray([samples[i].x for i in order])
    y_all = np.asarray([samples[i].y for i in order], dtype=np.int64)
    intervals = []
    for g in range(1, spec.G + 1):
        lo = (g - 1) * spec.B
        X, y = X_all[lo: lo + spec.B], y_all[lo: lo + spec.B]
        rng = substream(spec.seed, g)
        mean_pos = spec.noise_std * rng.normals(spec.dim)
        mean_neg = spec.noise_std * rng.normals(spec.dim)
        noise = spec.noise_std * rng.normals(spec.B * spec.dim).reshape(spec.B, spec.dim)
        X = X + noise + np.where((y == 1)[:, None], mean_pos, mean_neg)
        intervals.append((condition_norms(X, spec.D), y))
    return intervals


_FEATURE_RE = re.compile(r"^(\d+):([^\s:]+)$")


def reference_parse_libsvm(text: str, dim: int | None = None) -> list[Sample]:
    """``parse_libsvm``'s grammar, checks and messages, one regex match, one
    tuple and one dense vector per token and row, each row its own array."""
    if dim is not None:
        check_int("dim", dim, minimum=1, maximum=MAX_DIM)
    parsed: list[tuple[int, list[tuple[int, float]]]] = []
    max_index = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        tokens = line.split()
        label_tok = tokens[0]
        try:
            label_val = float(label_tok)
        except ValueError:
            raise StreamFormatError(f"non-numeric label {label_tok!r}", lineno) from None
        if label_val in (1.0,):
            y = 1
        elif label_val in (0.0, -1.0):
            y = -1
        else:
            raise StreamFormatError(f"label {label_tok!r} is not one of +1/1/0/-1", lineno)
        feats: list[tuple[int, float]] = []
        prev_index = 0
        for tok in tokens[1:]:
            m = _FEATURE_RE.match(tok)
            if m is None:
                raise StreamFormatError(f"malformed feature token {tok!r}", lineno)
            try:
                idx, val = int(m.group(1)), float(m.group(2))
            except ValueError:  # a bad value, or an index too long for int()
                raise StreamFormatError(f"non-numeric value in {tok!r}", lineno) from None
            if not np.isfinite(val):
                raise StreamFormatError(f"non-finite value in {tok!r}", lineno)
            if idx < 1:
                raise StreamFormatError(f"feature index must be >= 1, got {idx}", lineno)
            if idx == prev_index:
                raise StreamFormatError(f"duplicate feature index {idx}", lineno)
            if idx < prev_index:
                raise StreamFormatError(
                    f"feature indices must be strictly increasing, got {idx} after {prev_index}",
                    lineno,
                )
            if dim is not None and idx > dim:
                raise StreamFormatError(f"feature index {idx} exceeds dim={dim}", lineno)
            if dim is None and idx > MAX_DIM:
                raise StreamFormatError(
                    f"feature index {idx} exceeds the dimension cap {MAX_DIM}", lineno)
            feats.append((idx, val))
            prev_index = idx
        parsed.append((y, feats))
        if feats:
            max_index = max(max_index, feats[-1][0])
    out_dim = dim if dim is not None else max(max_index, 1)
    samples = []
    for y, feats in parsed:
        x = np.zeros(out_dim)
        for idx, val in feats:
            x[idx - 1] = val
        samples.append(Sample(x=x, y=y))
    return samples
