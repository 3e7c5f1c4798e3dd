"""Bounded feature vectors, the radius-R hypothesis ball, and projection onto it.

Everything downstream assumes Euclidean geometry in a finite-dimensional real
space: hypotheses live in the ball {w : ||w|| <= R}, features in the ball
{x : ||x|| <= D}, and predictions are inner products <w, x>.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

# Relative slack under which a vector counts as already inside the ball.
# project_to_ball leaves such vectors untouched, which makes the projection
# exactly idempotent even though a rescale can land a few ulps above R.
_INSIDE_RTOL = 1e-12


class Sample(NamedTuple):
    """One labeled stream element: feature vector x and label y in {-1, +1}.

    An unchecked pair: the learner checks it where it takes it, in
    ``losses.check_sample`` (shape (dim,), ||x|| <= D, y = +-1).
    """

    x: np.ndarray
    y: int


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

