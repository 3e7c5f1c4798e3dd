"""The population optimum w* of a synthetic interval, by quadrature.

A synthetic interval draws ``x = mu_y + e`` with ``e ~ N(0, I_dim)`` and a
balanced label, and pulls a row past the D-sphere radially onto it
(``streams.sample_from_means``). Its population risk is an integral that a
fixed set of weighted nodes computes to rounding, and ``w*`` is that set's
weighted ERM.

The reduction. Let P be a plane through the origin that holds both class
means (``r = 2``; ``r = 1`` at dim 1), with orthonormal basis Q. The risk is
invariant under every reflection that fixes P, so it has a minimizer in P,
and ``w* = Q v`` for the minimizer v of the risk in the plane. Write
``x = Q a + x_perp``: a ~ N(Q^T mu_y, I_r), and ``s = ||x_perp||`` is an
independent chi variable with ``k = dim - r`` degrees of freedom. The loss
reads x only through ``<Q v, clip(x)> = <v, a> min(1, D / ||x||)``, so one
class is a law on the point ``z = a min(1, D / ||x||)`` of the D-disk of P.

The split. The clip has a kink on the sphere ``||x|| = D``, which a product
rule across it resolves only slowly, so each class is integrated on the two
sides apart, in polar coordinates of P about the origin, with the angle
delta measured from the class mean's direction:

- inside, ``||x|| <= D``: z = a. The chi variable integrates out to
  ``P(s^2 <= D^2 - |a|^2)``; with ``|a| = D sin(theta)``, ``s``'s bound
  ``D cos(theta)`` is smooth in theta, and so is the integrand;
- outside, ``||x|| > D``: z = ``D sin(theta) e_delta``, where theta is the
  angle between x and the chi axis (``theta = pi/2`` when k = 0). Along a
  ray, z is fixed, so the radius ``||x||`` integrates out of each node's
  weight.

Each region is a product of a rule in theta (Gauss-Legendre on the window
that holds its mass, at the first node count whose mass and moments agree
with the next count's) and, per theta node, a rule in delta: the trapezoid
rule on the circle where the mass spreads over it, Gauss-Legendre on a
window about delta = 0 where it does not. The window and count follow from
the class mean's norm, D, dim and R (which sets how fast the loss turns),
and nothing else. One-dimensional integrals inside a weight (the chi mass,
the radial mass of a ray) are Gauss-Legendre on the window of their
log-concave integrand. Mass past ``exp(-_TAIL)`` of the largest is left out.

numpy and ``math`` only; every rule is deterministic, so equal means give
equal nodes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .losses import LossSpec

_TAIL = 40.0  # a window ends where its log-density is this far below the peak
_REACH = math.sqrt(2 * _TAIL)  # that far from the peak of a curvature-1 log-density
_SLACK = 10.0  # extra log-range a region's theta window keeps, for its delta integral
_END = math.pi * 2.0 ** -20  # the narrowest delta window
_COUNTS = (12, 16, 20, 24, 32, 40, 48, 64, 80, 96, 128, 160, 192, 256, 320, 384, 512)
_AGREE = 1e-12  # relative agreement of two theta rules that ends the search
_FAR = 1e8  # a class mean this many sqrt(dim) from the origin is one node
_BLOCK = 128  # integrals per block of _log_integral
_INNER = 48  # Gauss-Legendre nodes of an integral inside a weight


@dataclass(frozen=True)
class NodeSet:
    """One interval's population as weighted nodes in the plane of its means.

    ``X`` holds the clipped points in the coordinates of ``basis`` (dim x r,
    orthonormal columns), ``y`` their labels and ``weights`` their
    probabilities (each class sums to 1/2). ``spec`` is the run's loss in the
    plane, ``LossSpec(D, R, dim=r)``, with the run's C and beta, so
    ``basis @ erm_oracle(X, y, spec, weights=weights)`` is w*."""

    basis: np.ndarray
    X: np.ndarray
    y: np.ndarray
    weights: np.ndarray
    spec: LossSpec


def population_nodes(class_means: np.ndarray, spec: LossSpec, refine: int = 1) -> NodeSet:
    """The node set of the interval with these class means (+1 row first)
    under the run's loss ``spec``. ``refine`` multiplies every node count
    (a check of convergence uses 2)."""
    means = np.asarray(class_means, dtype=np.float64)
    basis = _plane(means)
    r = basis.shape[1]
    k = means.shape[1] - r
    X, y, w = [], [], []
    for mean, label in zip(means, (1, -1)):
        m = basis.T @ mean
        norm = float(np.hypot(*m)) if r == 2 else abs(float(m[0]))
        t, delta, logw = _class_nodes(_Law(norm, r, k, spec.D, refine), spec.R, refine)
        keep = logw >= logw.max() - _TAIL - _SLACK
        t, delta, logw = t[keep], delta[keep] + _angle(m), logw[keep]
        p = np.exp(logw - logw.max())
        w.append(p / (2 * p.sum()))
        X.append(np.stack([t * np.cos(delta), t * np.sin(delta)], axis=1)[:, :r])
        y.append(np.full(len(t), label, dtype=np.int64))
    return NodeSet(basis=basis, X=np.concatenate(X), y=np.concatenate(y),
                   weights=np.concatenate(w), spec=LossSpec(D=spec.D, R=spec.R, dim=r))


def _plane(means: np.ndarray) -> np.ndarray:
    """An orthonormal basis (dim x r) of a plane that holds both rows; at dim
    1 the line. Gram-Schmidt, twice, from the +1 mean (scaled, so a mean near
    the float range has a norm): the basis turns with the means."""
    dim = means.shape[1]
    if dim == 1:
        return np.ones((1, 1))
    means = means / max(float(np.abs(means).max()), 1e-300)
    first = means[0] if np.any(means[0]) else means[1] if np.any(means[1]) else np.eye(dim)[0]
    q1 = first / np.linalg.norm(first)
    other = np.eye(dim)[int(np.argmin(np.abs(q1)))]  # the axis farthest from q1
    for candidate in (means[1], other):
        q2 = candidate - q1 * (q1 @ candidate)
        q2 -= q1 * (q1 @ q2)
        if np.linalg.norm(q2) > 1e-8 * np.linalg.norm(candidate):  # else collinear: any other
            break
    return np.stack([q1, q2 / np.linalg.norm(q2)], axis=1)


def _angle(m: np.ndarray) -> float:
    return math.atan2(m[1], m[0]) if len(m) == 2 else (0.0 if m[0] >= 0 else math.pi)


@lru_cache(maxsize=None)
def _legendre(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1]: Newton's method on P_n
    from the usual cosine guesses, with the three-term recurrence (as
    ``numpy.polynomial.legendre.leggauss`` gives them, without its import)."""
    x = np.cos(math.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(100):
        p, slope = _legendre_at(x, n)
        step = p / slope
        x -= step
        if np.abs(step).max() <= 1e-16:
            break
    slope = _legendre_at(x, n)[1]
    return x, 2 / ((1 - x) * (1 + x) * slope * slope)


def _legendre_at(x, n: int):
    """P_n(x) and P_n'(x), by the three-term recurrence."""
    p, previous = x.copy(), np.ones_like(x)
    for k in range(2, n + 1):
        p, previous = ((2 * k - 1) * x * p - (k - 1) * previous) / k, p
    return p, n * (x * p - previous) / ((x - 1) * (x + 1))


def _gauss(lo, hi, n: int):
    """Gauss-Legendre nodes and weights on each ``[lo, hi]``, shape ``(..., n)``."""
    x, w = _legendre(n)
    lo, hi = np.asarray(lo, dtype=np.float64), np.asarray(hi, dtype=np.float64)
    mid, half = ((lo + hi) / 2)[..., None], ((hi - lo) / 2)[..., None]
    return mid + half * x, half * w


def _log_integral(ell, dell, lo, hi, peak, n: int, *params) -> np.ndarray:
    """log of the integral of ``exp(ell)`` over each ``[lo, hi]``, for a concave
    ``ell`` of curvature at most -1 that peaks at ``peak``: Gauss-Legendre on
    the part within ``_TAIL`` of the largest value (by the curvature, and by
    the slope ``dell`` at an end the peak lies beyond). ``ell(x, *params)``
    and ``dell(x, *params)`` take each integral's parameters, which broadcast
    with the bounds; ``_BLOCK`` integrals at a time, so temporaries stay small."""
    arrays = np.broadcast_arrays(lo, hi, peak, *params)
    shape = arrays[0].shape
    arrays = [a.ravel() for a in arrays]
    out = np.empty(arrays[0].size)
    for start in range(0, out.size, _BLOCK):
        lo, hi, peak, *p = (a[start: start + _BLOCK] for a in arrays)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            reach_lo = np.minimum(_REACH, _TAIL / np.abs(dell(lo, *p)))
            reach_hi = np.minimum(_REACH, _TAIL / np.abs(dell(hi, *p)))
            a = np.where(peak < lo, lo, np.where(peak > hi, np.maximum(lo, hi - reach_hi),
                                                 np.maximum(lo, peak - _REACH)))
            b = np.where(peak < lo, np.minimum(hi, lo + reach_lo),
                         np.where(peak > hi, hi, np.minimum(hi, peak + _REACH)))
            x, w = _gauss(a, b, n)
            values = ell(x, *(q[:, None] for q in p))
            top = values.max(axis=-1)
            top = np.where(np.isfinite(top), top, 0.0)
            logs = top + np.log(np.einsum("ij,ij->i", w, np.exp(values - top[:, None])))
        out[start: start + _BLOCK] = np.where(b > a, logs, -np.inf)
    return out.reshape(shape)


class _Law:
    """One class in the plane: a ~ N(m, I_r) with ``|m| = norm``, the chi_k
    variable s, and the clip at D. Log-densities drop the constants the two
    regions share: (2 pi)^(-r/2) and the chi density's value at its mode."""

    def __init__(self, norm: float, r: int, k: int, D: float, refine: int):
        self.norm, self.r, self.k, self.D = norm, r, k, D
        self.power = r + k - 1  # the radius's power in the volume element
        self.mode = math.sqrt(k - 1) if k >= 1 else 0.0
        self.inner = math.ceil(_INNER * refine)

    def log_chi(self, s):
        """log of the chi_k density at s, less its log at the mode."""
        if self.k == 1:
            return -s * s / 2
        return (self.k - 1) * np.log(s / self.mode) - (s - self.mode) * (s + self.mode) / 2

    def log_chi_mass(self, bound):
        """log P(s <= bound), less the same constant."""
        return _log_integral(self.log_chi, lambda s: (self.k - 1) / s - s, 0.0, bound,
                             self.mode, self.inner)

    def log_ray(self, sin, cos, beta):
        """log of the mass outside the D-ball along the direction at angle theta
        from the chi axis (``sin``, ``cos``) and delta from the mean
        (``beta = sin |m| cos(delta)``), per unit theta and delta."""
        if self.k == 0:
            return self._log_ray_plane(np.asarray(beta, dtype=np.float64))
        norm = self.norm

        def ell(radius, sin, cos, beta):
            gauss = ((radius * sin) ** 2 - 2 * radius * beta + norm * norm) / 2
            return 2 * np.log(radius) + self.log_chi(radius * cos) - gauss

        def dell(radius, sin, cos, beta):
            return self.power / radius - radius + beta

        beta = np.asarray(beta, dtype=np.float64)
        peak = (beta + np.sqrt(beta * beta + 4 * self.power)) / 2
        return _log_integral(ell, dell, self.D, np.inf, peak, self.inner, sin, cos, beta)

    def _log_ray_plane(self, beta):
        """``log_ray`` at k = 0, in closed form: with u = (D - beta) / sqrt(2),
        the radial integral is exp(-u^2) + beta sqrt(pi/2) erfc(u) (r = 2) or
        sqrt(pi/2) erfc(u) (r = 1), times exp(-(|m|^2 - beta^2) / 2). Past u =
        26, where erfc underflows, the mass is below exp(-676): none."""
        u = (self.D - beta) / math.sqrt(2)
        none = u > 26.0
        u = np.minimum(u, 26.0)
        erfc = np.fromiter(map(math.erfc, u.ravel().tolist()), np.float64, u.size).reshape(u.shape)
        c = math.sqrt(math.pi / 2)
        with np.errstate(divide="ignore", invalid="ignore"):
            if self.r == 1:
                radial = np.log(c * erfc)
            else:  # scaled by exp(u^2) where u > 0, so that neither term underflows
                up = np.maximum(u, 0.0)
                radial = np.log(np.exp((up - u) * (up + u)) + beta * c * np.exp(up * up) * erfc)
                radial -= up * up
        out = radial - (self.norm - beta) * (self.norm + beta) / 2
        return np.where(none, -np.inf, out)

    def inside(self, theta):
        """log-density inside the ball at ``|a| = D sin(theta)``, delta = 0."""
        D, r = self.D, self.r
        with np.errstate(divide="ignore"):  # the volume element is D^r sin^(r-1) cos
            out = -(D * np.sin(theta) - self.norm) ** 2 / 2 + r * math.log(D) + np.log(np.cos(theta))
            if r == 2:
                out += np.log(np.sin(theta))
        if self.k >= 1:
            out = out + self.log_chi_mass(D * np.cos(theta))
        return out

    def outside(self, theta):
        """log-density of the outside directions at angle theta, delta = 0."""
        with np.errstate(divide="ignore"):
            sin = np.sin(theta)
            return np.log(sin) + self.log_ray(sin, np.cos(theta), sin * self.norm)


def _class_nodes(law: _Law, R: float, refine: int):
    """(radius t of z, delta, log weight) of one class's nodes. A mean past
    ``_FAR`` times sqrt(dim) sends every row to within 1e-8 D of ``D m/|m|``,
    which moves the risk by less than rounding: one node there."""
    if law.norm > _FAR * math.sqrt(law.power + 1):
        return np.array([law.D]), np.zeros(1), np.zeros(1)
    grid = (math.pi / 4) * (1 - np.cos(np.linspace(0.0, math.pi, 65)))
    regions = {"inside": law.inside}
    if law.k >= 1:
        regions["outside"] = law.outside
    profiles = {name: f(grid) for name, f in regions.items()}
    top = max(p.max() for p in profiles.values())
    if law.k == 0:  # the outside is one ray per delta
        rays = np.array([law.log_ray(1.0, 0.0, law.norm)])
        top = max(top, rays[0])
    cut = top - _TAIL - _SLACK
    rings = []
    for name, f in regions.items():
        if not profiles[name].max() >= cut:
            continue
        lo, hi, points = _window(grid, profiles[name], cut)
        if points < 16:  # a narrow peak: find its window on a grid of its own
            fine = np.union1d(np.linspace(lo, hi, 65), grid[(grid >= lo) & (grid <= hi)])
            lo, hi, _ = _window(fine, f(fine), cut)
        rings.append((name, *_converged(f, lo, hi, refine)))
    if law.k == 0:
        rings.append(("outside", np.array([math.pi / 2]), rays))
    top = max(logw.max() for _, _, logw in rings)  # drop rings of no mass, the ray's too
    rings = [(name, theta[keep], logw[keep]) for name, theta, logw in rings
             for keep in [logw >= top - _TAIL - _SLACK] if keep.any()]
    parts = [_delta_rule(law, name, theta, logw, R, refine) for name, theta, logw in rings]
    return tuple(np.concatenate(column) for column in zip(*parts))


def _window(x, values, cut):
    """The grid interval that holds every point at or above ``cut``, one step
    wider, and the number of grid points in it."""
    above = np.flatnonzero(values >= cut)
    first, last = max(above[0] - 1, 0), min(above[-1] + 1, len(x) - 1)
    return x[first], x[last], last - first + 1


def _converged(f, lo, hi, refine):
    """Gauss-Legendre in theta on [lo, hi] for the log-density f, at the first of
    ``_COUNTS`` whose mass and first three moments of sin(theta) agree with
    the next count's to ``_AGREE`` of the mass, times ``refine``; returns
    (theta, log weights)."""
    top = previous = None
    for n in _COUNTS:
        theta, logw = _rule(f, lo, hi, n)
        top = logw.max() if top is None else top
        moments = np.exp(logw - top) @ np.vander(np.sin(theta), 4, increasing=True)
        if previous is not None and np.all(np.abs(moments - previous[1]) <= _AGREE * moments[0]):
            break
        previous = (n, moments, theta, logw)
    return previous[2:] if refine == 1 else _rule(f, lo, hi, math.ceil(previous[0] * refine))


def _rule(f, lo, hi, n):
    theta, w = _gauss(lo, hi, n)
    theta = theta.ravel()
    return theta, f(theta) + np.log(w.ravel())


def _turns(alpha):
    """Gauss-Legendre nodes past which softplus(alpha s), s in [-1, 1], is
    integrated to exp(-37): its poles lie at distance pi / alpha."""
    return 18.5 / np.arcsinh(math.pi / np.maximum(alpha, 1e-12))


def _delta_rule(law: _Law, region: str, theta, logw, R: float, refine: int):
    """Each theta ring's nodes in delta: (t, delta, log weight)."""
    t = law.D * np.sin(theta)
    if region == "inside":
        kappa = t * law.norm  # the delta profile is exactly -kappa (1 - cos delta)
        width = np.arccos(np.maximum(1 - _TAIL / np.maximum(kappa, 1e-300), -1.0))

        def drop(rows, delta):
            return -kappa[rows, None] * (1 - np.cos(delta))
    else:
        sin, cos = (np.sin(theta), np.cos(theta)) if law.k else (np.ones(1), np.zeros(1))
        b = sin * law.norm
        h = 1e-3 * np.maximum(1.0, b)
        logs = law.log_ray(sin[:, None], cos[:, None], np.stack([b, b + h, b - h, -b], axis=1))
        base = logs[:, 0]  # delta = 0; then two steps off it, and pi
        with np.errstate(invalid="ignore"):  # a ray at the end of the mass: none beyond
            kappa = np.nan_to_num(b * (logs[:, 1] - logs[:, 2]) / (2 * h), posinf=0.0)
        # where the mass falls _TAIL below delta = 0's before pi, the window
        # ends there; it falls as delta grows, so split a bracket on log delta
        # until it is 3% wide, into more parts per round when few rings remain
        rows = np.flatnonzero(logs[:, 3] - base <= -_TAIL)
        width = np.full(len(b), math.pi)
        splits = max(8, 512 // max(len(rows), 1))
        lo, hi = np.full(len(rows), math.log(_END)), np.full(len(rows), math.log(math.pi))
        for _ in range(math.ceil(math.log((math.log(math.pi / _END)) / 0.03) / math.log(splits))
                       if len(rows) else 0):
            edges = lo[:, None] + (hi - lo)[:, None] * np.linspace(0.0, 1.0, splits + 1)
            probes = b[rows, None] * np.cos(np.exp(edges[:, 1:-1]))
            below = (law.log_ray(sin[rows, None], cos[rows, None], probes)
                     - base[rows, None] <= -_TAIL)
            first = np.where(below.any(axis=1), below.argmax(axis=1), splits - 1)
            lo, hi = (edges[np.arange(len(rows)), first + i] for i in (0, 1))
        width[rows] = np.exp(hi)

        def drop(rows, delta):
            return law.log_ray(sin[rows, None], cos[rows, None],
                               b[rows, None] * np.cos(delta)) - base[rows, None]
    parts = []
    full = width >= math.pi / 2
    for rows in (np.flatnonzero(full), np.flatnonzero(~full)):
        if not len(rows):
            continue
        if law.r == 1:  # the line: delta is 0 or pi
            delta, dw = np.array([[0.0, math.pi]]), np.ones((1, 2))
        elif full[rows[0]]:  # the trapezoid rule on the circle: it resolves
            # exp(kappa cos delta) at spacing 2 pi / (8.6 sqrt(kappa))
            n = math.ceil((8.6 * math.sqrt(kappa[rows].max())
                           + 1.2 * _turns(R * t[rows].max())) * refine)
            delta, dw = 2 * math.pi * np.arange(n)[None] / n, np.full((1, n), 2 * math.pi / n)
        else:  # Gauss-Legendre on the window, 4.3 nodes per unit of width sqrt(kappa)
            n = math.ceil((2 + 4.3 * (width[rows] * np.sqrt(kappa[rows])).max()
                           + _turns(R * (t[rows] * width[rows]).max())) * refine)
            delta, dw = _gauss(-width[rows], width[rows], n)
        delta = np.broadcast_to(delta, (len(rows), delta.shape[1]))
        parts.append((np.repeat(t[rows], delta.shape[1]), delta.ravel(),
                      (logw[rows, None] + drop(rows, delta) + np.log(dw)).ravel()))
    return tuple(np.concatenate(column) for column in zip(*parts))
