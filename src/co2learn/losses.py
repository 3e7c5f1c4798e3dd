"""Normalized logistic loss: convex, beta-smooth, and exactly bounded in [0, 1].

The loss of hypothesis w on sample (x, y) is

    l(w; x, y) = log(1 + exp(-y <w, x>)) / C,      C = log(1 + exp(D R)).

On the admissible domain |<w, x>| <= D R, so the numerator ranges over
[log(1 + exp(-DR)), C] and the loss stays strictly inside (0, 1]. The
gradient is

    grad l = -y x sigmoid(-y <w, x>) / C,

the smoothness constant is beta = D^2 / (4 C) (sigmoid' <= 1/4 and
||x x^T|| <= D^2), and the normalization makes beta consistent with the
step sizes derived from it. Normalizing instead of clipping keeps the loss
smooth; clipping would not. The family obeys the self-bounding property
||grad l||^2 <= 4 beta l, hence also ||grad l|| <= 2 sqrt(beta).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, check_int, check_real
from .geometry import Sample

# Absolute slack on the norm-bound domain checks; callers must project first,
# this only forgives float rounding from projection itself.
_DOMAIN_ATOL = 1e-9


def softplus(z):
    """log(1 + exp(z)), stable for any magnitude; a new array."""
    z = np.asarray(z, dtype=np.float64)
    out = np.abs(z, np.empty(z.shape))  # an array even for a 0-d z
    np.negative(out, out)
    np.exp(out, out)
    np.log1p(out, out)
    out += np.maximum(z, 0.0)
    return out


def sigmoid(z):
    """1 / (1 + exp(-z)), stable for any magnitude."""
    z = np.asarray(z, dtype=np.float64)
    ez = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + ez), ez / (1.0 + ez))


@dataclass(frozen=True)
class LossSpec:
    """Loss family instance: the bounds and the constants derived from them.

    D     feature-norm bound, ||x|| <= D
    R     hypothesis-norm bound, ||w|| <= R
    dim   ambient dimension
    C     normalizer log(1 + exp(D R))
    beta  smoothness constant D^2 / (4 C) of the loss in w

    C and beta are computed once, when the spec is built, and never supplied.
    """

    D: float
    R: float
    dim: int
    C: float = field(init=False)
    beta: float = field(init=False)

    def __post_init__(self):
        check_real("D", self.D, positive=True)
        check_real("R", self.R, positive=True)
        check_int("dim", self.dim, minimum=1)
        C = float(softplus(self.D * self.R))
        beta = self.D * self.D / (4.0 * C)
        if not (beta > 0 and math.isfinite(beta)):  # D^2 or D R over- or underflowed
            raise ConfigError(f"beta = D^2/(4C) must be a finite number > 0, got {beta} "
                              f"from D={self.D}, R={self.R}")
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "beta", beta)

    @classmethod
    def create(cls, D: float, R: float, dim: int) -> "LossSpec":
        """Build the spec for given bounds."""
        return cls(D=D, R=R, dim=dim)


def check_sample(x: np.ndarray, y: int, spec: LossSpec) -> None:
    """Reject a sample outside the loss's domain: ||x|| > D or y not +-1."""
    nx = math.sqrt(x @ x)
    if nx > spec.D + _DOMAIN_ATOL:
        raise ValueError(f"||x||={nx} exceeds D={spec.D}; condition the stream first")
    if y not in (-1, 1):
        raise ValueError(f"label must be -1 or +1, got {y}")


def _check_domain(w: np.ndarray, s: Sample, spec: LossSpec) -> None:
    nw = float(np.linalg.norm(w))
    if nw > spec.R + _DOMAIN_ATOL:
        raise ValueError(f"||w||={nw} exceeds R={spec.R}; project first")
    check_sample(s.x, s.y, spec)


def loss(w: np.ndarray, s: Sample, spec: LossSpec) -> float:
    """Loss of hypothesis ``w`` on sample ``s``; value in [0, 1]."""
    w = np.asarray(w, dtype=np.float64)
    _check_domain(w, s, spec)
    return float(batch_losses(w, s.x, s.y, spec))


def grad_loss(w: np.ndarray, s: Sample, spec: LossSpec) -> np.ndarray:
    """Gradient of the loss in w; norm at most D/C <= 2 sqrt(beta)."""
    w = np.asarray(w, dtype=np.float64)
    _check_domain(w, s, spec)
    return batch_mean_grad(w, s.x[np.newaxis], np.array([s.y]), spec)


# The batch forms below are the one implementation of each formula. They skip
# the domain checks: the stream layer conditions every row into the D-ball,
# and the checked single-sample forms above delegate to them.

def batch_losses(w: np.ndarray, X: np.ndarray, y: np.ndarray | int,
                 spec: LossSpec) -> np.ndarray:
    """Per-sample losses of w on the rows of X with labels y.

    The margin y <w, x> is symmetric in w and x, so one sample x is scored
    against every row of a hypothesis stack W by ``batch_losses(x, W, y)``.
    """
    z = y * (X @ w)
    return softplus(-z) / spec.C


def batch_mean_loss(w: np.ndarray, X: np.ndarray, y: np.ndarray, spec: LossSpec) -> float:
    return float(np.mean(batch_losses(w, X, y, spec)))


def batch_mean_grad(w: np.ndarray, X: np.ndarray, y: np.ndarray, spec: LossSpec) -> np.ndarray:
    """Gradient of the batch mean loss at w: one gemv, no (n, dim) temporary."""
    z = y * (X @ w)
    coef = -y * sigmoid(-z) / spec.C
    return (coef @ X) / X.shape[0]


# Scalar forms for the per-sample step, in ``math``: the same formulas as
# ``softplus`` and ``sigmoid`` above, for one margin z = y <w, x>.

def margin_loss(z: float, spec: LossSpec) -> float:
    """The loss at margin z: softplus(-z) / C."""
    return (max(-z, 0.0) + math.log1p(math.exp(-abs(z)))) / spec.C


def margin_grad_coef(z: float, y: int, spec: LossSpec) -> float:
    """The gradient at margin z is this coefficient times x: -y sigmoid(-z) / C."""
    e = math.exp(-abs(z))
    sig = e / (1.0 + e) if z >= 0 else 1.0 / (1.0 + e)
    return -y * sig / spec.C
