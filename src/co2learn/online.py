"""Online-gradient-descent expert for the current online interval.

Step t applies

    w' = project_to_ball(w - eta_t * grad,  R),      eta_t = D / sqrt(beta t),

where the gradient is always evaluated at the expert's own iterate.
``ogd_step`` takes any gradient and returns a new state; ``ogd_update``
takes one sample and writes the step into the iterate it is given. A new
interval starts the expert either cold (w = 0) or warm (inherit the previous
interval's final iterate); see ``INIT_POLICIES``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .geometry import ProblemConstants, project_in_place
from .losses import LossSpec, margin_grad_coef

# Not called here; kept importable because bench/tracing.py patches this name.
from .geometry import project_to_ball  # noqa: F401

INIT_POLICIES = ("cold", "warm")


@dataclass(frozen=True)
class OnlineExpertState:
    """OGD iterate w plus the 1-based step counter within the interval.

    Unchecked: ``w`` is a float array in the R-ball and ``t >= 1``.
    :func:`init_online` checks the start point and :func:`ogd_step`
    projects every later iterate.
    """

    w: np.ndarray
    t: int
    constants: ProblemConstants


def eta(t: int, constants: ProblemConstants) -> float:
    """Step size D / sqrt(beta t), strictly decreasing in t."""
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    return constants.D / sqrt(constants.beta * t)


def ogd_step(state: OnlineExpertState, grad: np.ndarray) -> OnlineExpertState:
    """Projected gradient step at the state's own iterate; advances t.

    Unchecked: ``grad`` is a finite float array shaped like ``state.w``.
    """
    w = np.array(state.w, dtype=np.float64)
    _descend(w, state.t, grad, state.constants)
    return OnlineExpertState(w=w, t=state.t + 1, constants=state.constants)


def ogd_update(w: np.ndarray, t: int, x: np.ndarray, y: int, z: float,
               spec: LossSpec) -> None:
    """Step t of OGD on the sample (x, y), written into ``w``.

    ``z`` is the sample's margin y <w, x> at ``w``, which the caller has
    already computed for the loss. This is the one single-sample update: the
    pool's online expert and the harness's whole-stream baseline both take
    it. Unchecked: the sample is in the loss's domain.
    """
    _descend(w, t, margin_grad_coef(z, y, spec) * x, spec.constants)


def _descend(w: np.ndarray, t: int, grad: np.ndarray, constants: ProblemConstants) -> None:
    w -= eta(t, constants) * grad
    project_in_place(w, constants.R)


def init_online(
    policy: str,
    constants: ProblemConstants,
    previous: np.ndarray | None = None,
) -> OnlineExpertState:
    """Fresh expert for a new interval.

    cold    w = 0 (deterministic, reproducible; the regret analysis does not
            depend on the start point)
    warm    inherit the given previous iterate, which must be in the ball
    """
    if policy == "cold":
        w = np.zeros(constants.dim)
    elif policy == "warm":
        if previous is None:
            raise ValueError("warm start requires the previous interval's iterate")
        w = np.asarray(previous, dtype=np.float64)
        if float(np.linalg.norm(w)) > constants.R * (1.0 + 1e-9):
            raise ValueError("warm-start iterate lies outside the hypothesis ball")
    else:
        raise ValueError(f"unknown init policy {policy!r}")
    return OnlineExpertState(w=w, t=1, constants=constants)
