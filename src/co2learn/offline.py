"""Offline expert training for a completed interval.

The new expert minimizes, over the hypothesis ball,

    F(w) = mean loss on the interval + (gamma / 2) * ||w - v||^2

where v is the anchor: the meta-weighted combination of all maintained
experts at interval end. The anchor also carries the experts' weighted
empirical risk WL, and gamma must satisfy gamma >= WL / (4 R^2) for the
regularizer to carry information (its unconditional cap is 4 R^2).

Solver: ``projected_gradient``, the package's one projected-gradient
routine, with fixed step 1/(beta + gamma) started at the anchor. F is
(beta + gamma)-smooth and gamma-strongly convex, so the iteration descends
monotonically and converges linearly; it stops when the projected-gradient
mapping norm reaches ``grad_map_tol`` (a run's pool trains at the fixed
``GRAD_MAP_TOL``), and ``train_offline`` reports the certificate either
way. With gamma = 0 and no anchor the same routine is the harness's ERM
oracle, which raises ConvergenceError instead of reporting.

A solve allocates once: the labels as float64 and ``-C y``, the gradient's
work arrays (``losses.grad_buffers``), and two iterates and a difference of
length dim. Each iteration then runs in place and swaps the iterates. Every
rewrite is exact (y is +-1), so the iterates are those of the plain loop in
``tests/oracles.py``, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log, sqrt

import numpy as np

from .geometry import project_in_place
from .losses import LossSpec, batch_mean_grad, batch_mean_loss, grad_buffers
from .streams import IntervalBuffer

# Not called here; kept importable because bench/tracing.py patches this name.
from .geometry import project_to_ball  # noqa: F401

GRAD_MAP_TOL = 1e-8  # the pool's stopping tolerance for every offline expert


@dataclass(frozen=True)
class Anchor:
    """Knowledge-transfer anchor: combined expert v and the weighted risk."""

    v: np.ndarray
    weighted_loss: float

    def __post_init__(self):
        v = np.asarray(self.v, dtype=np.float64)
        object.__setattr__(self, "v", v)
        if not (0.0 <= self.weighted_loss <= 1.0 + 1e-12):
            raise ValueError(f"weighted loss must lie in [0, 1], got {self.weighted_loss}")


@dataclass(frozen=True)
class OfflineTrainResult:
    """Trained expert plus the solver certificate."""

    w: np.ndarray
    grad_map_norm: float
    iterations: int
    converged: bool
    gamma: float


def omega(w: np.ndarray, anchor: Anchor) -> float:
    """Squared distance to the anchor; at most 4 R^2 inside the ball."""
    w = np.asarray(w, dtype=np.float64)
    if w.shape != anchor.v.shape:
        raise ValueError(f"dimension mismatch: {w.shape} vs {anchor.v.shape}")
    d = w - anchor.v
    return float(np.dot(d, d))


def gamma_lower_bound(anchor: Anchor, R: float) -> float:
    """Smallest admissible gamma: weighted risk over the regularizer cap 4 R^2."""
    if not (R > 0):
        raise ValueError("R must be positive")
    return anchor.weighted_loss / (4.0 * R * R)


def projected_gradient(
    X: np.ndarray,
    y: np.ndarray,
    spec: LossSpec,
    *,
    gamma: float = 0.0,
    anchor: np.ndarray | None = None,
    tol: float,
    max_iters: int,
) -> tuple[np.ndarray, float, int, bool]:
    """Minimize mean loss on (X, y) + (gamma / 2) ||w - anchor||^2 over the ball.

    Fixed step 1/(beta + gamma), started at the anchor, which defaults to the
    origin. Stops at the first iterate whose projected-gradient mapping norm
    is at most ``tol``. Returns ``(w, mapping norm, iterations, converged)``;
    after ``max_iters`` steps without the certificate, ``w`` is the last
    iterate and ``converged`` is False. Deterministic.
    """
    if X.shape[0] == 0:
        raise ValueError("cannot minimize over an empty sample set")
    v = np.zeros(X.shape[1]) if anchor is None else anchor
    y = np.asarray(y, dtype=np.float64)
    buffers = grad_buffers(X, y, spec)
    R = spec.R
    step = 1.0 / (spec.beta + gamma)
    w = np.array(v, dtype=np.float64)
    w_next, d = np.empty_like(w), np.empty_like(w)
    grad_map_norm = np.inf
    for it in range(max_iters):
        grad = batch_mean_grad(w, X, y, spec, buffers)
        if gamma:
            np.subtract(w, v, out=d)
            d *= gamma
            grad += d
        grad *= step
        np.subtract(w, grad, out=w_next)
        project_in_place(w_next, R)
        np.subtract(w, w_next, out=d)
        grad_map_norm = sqrt(d.dot(d)) / step
        if grad_map_norm <= tol:
            return w, grad_map_norm, it, True
        w, w_next = w_next, w
    return w, grad_map_norm, max_iters, False


def train_offline(
    interval: IntervalBuffer,
    anchor: Anchor,
    spec: LossSpec,
    gamma_floor: float,
    grad_map_tol: float,
) -> OfflineTrainResult:
    """Approximately minimize the regularized interval objective.

    gamma = max(lower bound, ``gamma_floor``); the iteration cap
    50 ceil(kappa log(1 / ``grad_map_tol``)) is sized for the linear rate of
    the (beta + gamma)-smooth, gamma-strongly-convex objective, with
    kappa = (beta + gamma) / gamma. Unchecked: ``gamma_floor`` is finite and
    > 0 (so gamma > 0 even when WL = 0), as ``pool.check_settings`` checks,
    and ``0 < grad_map_tol < 1``, as ``GRAD_MAP_TOL`` is.
    Starts at the anchor (feasible) and never increases the objective, so the
    returned point always scores at least as well as the anchor itself.
    """
    if sqrt(anchor.v.dot(anchor.v)) > spec.R * (1.0 + 1e-9):
        raise ValueError("anchor lies outside the hypothesis ball")
    gamma = max(gamma_lower_bound(anchor, spec.R), gamma_floor)
    kappa = (spec.beta + gamma) / gamma
    max_iters = 50 * ceil(kappa * log(1.0 / grad_map_tol))
    w, grad_map_norm, iterations, converged = projected_gradient(
        interval.X, interval.y, spec, gamma=gamma, anchor=anchor.v,
        tol=grad_map_tol, max_iters=max_iters,
    )
    return OfflineTrainResult(
        w=w, grad_map_norm=grad_map_norm, iterations=iterations,
        converged=converged, gamma=gamma,
    )


def objective(w: np.ndarray, interval: IntervalBuffer, anchor: Anchor,
              gamma: float, spec: LossSpec) -> float:
    """The regularized interval objective F(w); exposed for verification."""
    return batch_mean_loss(w, interval.X, interval.y, spec) + 0.5 * gamma * omega(w, anchor)
