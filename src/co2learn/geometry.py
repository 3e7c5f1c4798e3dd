"""Bounded feature vectors, the radius-R hypothesis ball, and projection onto it.

Everything downstream assumes Euclidean geometry in a finite-dimensional real
space: hypotheses live in the ball {w : ||w|| <= R}, features in the ball
{x : ||x|| <= D}, and predictions are inner products <w, x>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Relative slack under which a vector counts as already inside the ball.
# project_to_ball leaves such vectors untouched, which makes the projection
# exactly idempotent even though a rescale can land a few ulps above R.
_INSIDE_RTOL = 1e-12


@dataclass(frozen=True, slots=True)
class Sample:
    """One labeled stream element: feature vector x and label y in {-1, +1}.

    The feature-norm bound ||x|| <= D is enforced where samples are created
    (stream conditioning), not here; a Sample does not know D.
    """

    x: np.ndarray
    y: int

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        if x.ndim != 1:
            raise ValueError("sample features must be a 1-d vector")
        if not np.isfinite(x).all():
            raise ValueError("sample features must be finite")
        object.__setattr__(self, "x", x)
        if self.y not in (-1, 1):
            raise ValueError(f"label must be -1 or +1, got {self.y}")


def project_to_ball(w: np.ndarray, R: float) -> np.ndarray:
    """Euclidean projection of ``w`` onto the ball of radius ``R``, as a new
    array.

    Returns a copy of ``w`` when ||w|| <= R (up to 1 ulp-scale slack),
    otherwise ``w * (R / ||w||)``. Idempotent and non-expansive. Rejects a
    vector whose norm is not finite: a NaN or infinite entry, or finite
    entries too large for the norm to be represented.
    """
    if not (R > 0):
        raise ValueError(f"R must be positive, got {R}")
    w = np.array(w, dtype=np.float64)
    project_in_place(w, R)
    return w


def project_in_place(w: np.ndarray, R: float) -> None:
    """:func:`project_to_ball` written into ``w``, a float array, with one
    norm and no copy. Unchecked: ``R > 0``."""
    norm = math.sqrt(w @ w)
    if not math.isfinite(norm):
        raise ValueError("cannot project a non-finite vector")
    if norm > R * (1.0 + _INSIDE_RTOL):
        w *= R / norm

