"""Online-gradient-descent expert for the current online interval.

Step t applies

    w' = project_to_ball(w - eta_t * grad,  R),      eta_t = D / sqrt(beta t),

where the gradient is always evaluated at the expert's own iterate.
``ogd_step`` takes any gradient and returns a new state; ``ogd_update``
takes one sample and writes the step into the iterate it is given. Each new
interval restarts the expert at step 1; ``pool.ExpertPool.rollover`` does
that, cold (w = 0) or warm (from the previous interval's final iterate).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .geometry import project_in_place
from .losses import LossSpec, margin_grad_coef

# Not called here; kept importable because bench/tracing.py patches this name.
from .geometry import project_to_ball  # noqa: F401


@dataclass(frozen=True)
class OnlineExpertState:
    """OGD iterate w plus the 1-based step counter within the interval.

    Unchecked: ``w`` is a float array in the R-ball and ``t >= 1``.
    :func:`ogd_step` projects every iterate after the start point.
    """

    w: np.ndarray
    t: int


def eta(t: int, spec: LossSpec) -> float:
    """Step size D / sqrt(beta t), strictly decreasing in t."""
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    return spec.D / sqrt(spec.beta * t)


def ogd_step(state: OnlineExpertState, grad: np.ndarray, spec: LossSpec) -> OnlineExpertState:
    """Projected gradient step at the state's own iterate; advances t.

    Unchecked: ``grad`` is a finite float array shaped like ``state.w``.
    """
    w = np.array(state.w, dtype=np.float64)
    _descend(w, state.t, np.array(grad, dtype=np.float64), spec)
    return OnlineExpertState(w=w, t=state.t + 1)


def ogd_update(w: np.ndarray, t: int, x: np.ndarray, y: int, z: float,
               spec: LossSpec) -> None:
    """Step t of OGD on the sample (x, y), written into ``w``.

    ``z`` is the sample's margin y <w, x> at ``w``, which the caller has
    already computed for the loss. This is the one single-sample update: the
    pool's online expert and the harness's whole-stream baseline both take
    it. Unchecked: the sample is in the loss's domain.
    """
    _descend(w, t, x * margin_grad_coef(z, y, spec), spec)


def _descend(w: np.ndarray, t: int, grad: np.ndarray, spec: LossSpec) -> None:
    """w <- project(w - eta_t grad); ``grad`` is a scratch array, scaled in place."""
    grad *= eta(t, spec)
    w -= grad
    project_in_place(w, spec.R)
