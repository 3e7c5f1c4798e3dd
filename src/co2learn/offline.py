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
mapping norm reaches ``grad_map_tol``, and ``train_offline`` reports the
certificate either way. With gamma = 0 and no anchor the same routine is the
harness's ERM oracle, which raises ConvergenceError instead of reporting.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log

import numpy as np

from .geometry import project_to_ball
from .losses import LossSpec, batch_mean_grad, batch_mean_loss
from .streams import IntervalBuffer

_GAMMA_ATOL = 1e-12


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
class OfflineTrainConfig:
    gamma: float
    max_iters: int
    grad_map_tol: float

    def __post_init__(self):
        if not (self.gamma > 0):
            raise ValueError("gamma must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not (self.grad_map_tol > 0):
            raise ValueError("grad_map_tol must be positive")


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


def default_config(
    anchor: Anchor,
    spec: LossSpec,
    gamma_floor: float = 0.1,
    grad_map_tol: float = 1e-8,
) -> OfflineTrainConfig:
    """gamma = max(lower bound, floor); iteration cap sized for the linear
    rate of the (beta+gamma)-smooth, gamma-strongly-convex objective."""
    gamma = max(gamma_lower_bound(anchor, spec.constants.R), gamma_floor)
    kappa = (spec.constants.beta + gamma) / gamma
    max_iters = 50 * ceil(kappa * log(1.0 / grad_map_tol))
    return OfflineTrainConfig(gamma=gamma, max_iters=max_iters, grad_map_tol=grad_map_tol)


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
    R = spec.constants.R
    step = 1.0 / (spec.constants.beta + gamma)
    w = v.copy()
    grad_map_norm = np.inf
    for it in range(max_iters):
        grad = batch_mean_grad(w, X, y, spec) + gamma * (w - v)
        w_next = project_to_ball(w - step * grad, R)
        grad_map_norm = float(np.linalg.norm(w - w_next)) / step
        if grad_map_norm <= tol:
            return w, grad_map_norm, it, True
        w = w_next
    return w, grad_map_norm, max_iters, False


def train_offline(
    interval: IntervalBuffer,
    anchor: Anchor,
    config: OfflineTrainConfig,
    spec: LossSpec,
) -> OfflineTrainResult:
    """Approximately minimize the regularized interval objective.

    Starts at the anchor (feasible) and never increases the objective, so the
    returned point always scores at least as well as the anchor itself.
    """
    floor = gamma_lower_bound(anchor, spec.constants.R)
    if config.gamma < floor - _GAMMA_ATOL:
        raise ValueError(
            f"gamma={config.gamma} is below the admissible floor {floor}"
        )
    if float(np.linalg.norm(anchor.v)) > spec.constants.R * (1.0 + 1e-9):
        raise ValueError("anchor lies outside the hypothesis ball")
    w, grad_map_norm, iterations, converged = projected_gradient(
        interval.X, interval.y, spec, gamma=config.gamma, anchor=anchor.v,
        tol=config.grad_map_tol, max_iters=config.max_iters,
    )
    return OfflineTrainResult(
        w=w, grad_map_norm=grad_map_norm, iterations=iterations,
        converged=converged, gamma=config.gamma,
    )


def objective(w: np.ndarray, interval: IntervalBuffer, anchor: Anchor,
              gamma: float, spec: LossSpec) -> float:
    """The regularized interval objective F(w); exposed for verification."""
    return batch_mean_loss(w, interval.X, interval.y, spec) + 0.5 * gamma * omega(w, anchor)
