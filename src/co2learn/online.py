"""Online-gradient-descent expert for the current online interval.

Step t applies

    w' = project_to_ball(w - eta_t * grad,  R),      eta_t = D / sqrt(beta t),

where the gradient is always evaluated at the expert's own iterate. A new
interval starts the expert either cold (w = 0) or warm (inherit the previous
interval's final iterate); see ``INIT_POLICIES``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .geometry import ProblemConstants, project_to_ball

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
    w_next = project_to_ball(state.w - eta(state.t, state.constants) * grad, state.constants.R)
    return OnlineExpertState(w=w_next, t=state.t + 1, constants=state.constants)


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
