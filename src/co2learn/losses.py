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
from .geometry import Sample, max_norm


def softplus(z):
    """log(1 + exp(z)), stable for any magnitude; a new array.

    The batch paths (rollover risks, ERM losses, ``LossSpec.C``) use this:
    numpy's SIMD ``exp`` makes its six ufunc calls 4-7 times faster than
    ``np.logaddexp(0, z)`` on thousands of values. On the per-sample step's
    K values the call count dominates, so ``ExpertPool.process_labeled``
    calls ``np.logaddexp`` itself; the two agree to about 1 ulp."""
    z = np.asarray(z, dtype=np.float64)
    out = np.abs(z, np.empty(z.shape))  # an array even for a 0-d z
    np.negative(out, out)
    np.exp(out, out)
    np.log1p(out, out)
    out += np.maximum(z, 0.0)
    return out


@dataclass(frozen=True)
class LossSpec:
    """Loss family instance: the bounds and the constants derived from them.

    D     feature-norm bound, ||x|| <= D_max = ``geometry.max_norm(D)``, the ball rule
    R     hypothesis-norm bound, ||w|| <= R_max = ``geometry.max_norm(R)``
    dim   ambient dimension
    C     normalizer log(1 + exp(D R))
    beta  smoothness constant D^2 / (4 C) of the loss in w

    C, beta, D_max and R_max are computed once, when the spec is built, and never supplied.
    The spec refuses a D and R at which beta, 1/beta or 1/(4 R^2) is not finite.
    """

    D: float
    R: float
    dim: int
    C: float = field(init=False)
    beta: float = field(init=False)
    D_max: float = field(init=False)
    R_max: float = field(init=False)

    def __post_init__(self):
        check_real("D", self.D, positive=True)
        check_real("R", self.R, positive=True)
        check_int("dim", self.dim, minimum=1)
        C = float(softplus(self.D * self.R))
        beta = self.D * self.D / (4.0 * C)
        # D^2 or D R over- or underflowed; 1/beta is the solvers' step at gamma = 0
        if not (beta > 0 and math.isfinite(beta) and math.isfinite(1.0 / beta)):
            raise ConfigError(f"beta = D^2/(4C) and 1/beta must be finite numbers > 0, got "
                              f"beta={beta} from D={self.D}, R={self.R}")
        # a rollover divides a risk <= 1 by 4 R^2 (offline.gamma_lower_bound); NaN here at 0
        if not math.isfinite(1.0 / (4.0 * self.R * self.R or math.nan)):
            raise ConfigError(f"R={self.R!r}: 1/(4 R^2) must be a finite number, got inf")
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "D_max", max_norm(self.D))
        object.__setattr__(self, "R_max", max_norm(self.R))

    @classmethod
    def create(cls, D: float, R: float, dim: int) -> "LossSpec":
        """Build the spec for given bounds."""
        return cls(D=D, R=R, dim=dim)


def check_sample(x, y: int, spec: LossSpec) -> np.ndarray:
    """The learner's one sample rule: ``x`` has shape (dim,) and ||x|| <= D_max,
    which also makes it finite, and ``y`` is an int or numpy integer (not a
    bool) equal to -1 or +1. Returns ``x`` as a float64 array; raises a
    one-line ValueError otherwise."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (spec.dim,):
        raise ValueError(f"sample x must have shape ({spec.dim},), got {x.shape}")
    nx = math.sqrt(np.vdot(x, x))  # vdot: an overflow gives inf, not a warning
    if not nx <= spec.D_max:  # so NaN, inf and overflow fail here too
        raise ValueError(f"||x||={nx} is not <= D={spec.D}; condition the stream first")
    if not (type(y) is int or isinstance(y, np.integer)) or y not in (-1, 1):
        raise ValueError(f"label must be the integer -1 or +1, got {y!r}")
    return x


def _check_domain(w: np.ndarray, s: Sample, spec: LossSpec) -> np.ndarray:
    """Check ``w`` against the R-ball and ``s`` by the sample rule; return its x."""
    nw = float(np.linalg.norm(w))
    if not nw <= spec.R_max:
        raise ValueError(f"||w||={nw} is not <= R={spec.R}; project first")
    return check_sample(s.x, s.y, spec)


def loss(w: np.ndarray, s: Sample, spec: LossSpec) -> float:
    """Loss of hypothesis ``w`` on sample ``s``; value in [0, 1]."""
    w = np.asarray(w, dtype=np.float64)
    x = _check_domain(w, s, spec)
    return float(batch_losses(w, x, s.y, spec))


def grad_loss(w: np.ndarray, s: Sample, spec: LossSpec) -> np.ndarray:
    """Gradient of the loss in w; norm at most D/C <= 2 sqrt(beta)."""
    w = np.asarray(w, dtype=np.float64)
    x = _check_domain(w, s, spec)
    return batch_mean_grad(w, x[np.newaxis], np.array([s.y]), spec)


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


def batch_mean_losses(W: np.ndarray, X: np.ndarray, y: np.ndarray, spec: LossSpec) -> np.ndarray:
    """``batch_mean_loss`` of each row of W, bit for bit: one softplus pass over
    the (K, n) table of -y <w_k, x> and a row mean (the 1-D mean's pairwise sum)."""
    neg_z = np.empty((len(W), X.shape[0]))
    for w_k, row in zip(W, neg_z):
        X.dot(w_k, out=row)
    neg_z *= -y
    losses = softplus(neg_z)
    losses /= spec.C
    return losses.mean(axis=1)


def grad_buffers(X: np.ndarray, y: np.ndarray, spec: LossSpec,
                 weights: np.ndarray | None = None) -> tuple:
    """The arrays ``batch_mean_grad`` works in for one ``(X, y)``: ``-C y``,
    then four of length n (margins, exponentials, coefficients, and the
    ``z <= 0`` mask as 1.0 or 0.0) and the gradient, of length dim. A solver
    makes them once per solve; a call given them overwrites all but ``-C y``.

    Given row ``weights`` (positive, summing to 1), the first array is
    ``-C y / (n weights)``, so the gradient is the weighted mean's; without
    them it is ``-C y`` bit for bit."""
    n, dim = X.shape
    neg_Cy = -spec.C * y if weights is None else -spec.C * y / (n * weights)
    return neg_Cy, np.empty(n), np.empty(n), np.empty(n), np.empty(n), np.empty(dim)


def batch_mean_grad(w: np.ndarray, X: np.ndarray, y: np.ndarray, spec: LossSpec,
                    buffers: tuple | None = None) -> np.ndarray:
    """Gradient of the batch mean loss at w: one gemv, no (n, dim) temporary.
    Row coefficient -y sigmoid(-z) / C at margin z = y <w, x>, with the stable
    sigmoid(-z) = (1 if z <= 0 else e) / (1 + e), e = exp(-|z|).

    Given ``buffers`` from ``grad_buffers(X, y, spec)``, every step writes
    into them and the result is their gradient array, so the call allocates
    nothing; without them it makes its own. Each rewrite is exact: -|z| is
    ``copysign(<w, x>, -1)`` because y is +-1, the numerator is
    ``max(e, [z <= 0])`` because 0 <= e <= 1, and dividing by -C y is
    dividing by -C and multiplying by y."""
    neg_Cy, z, e, coef, nonpos, grad = grad_buffers(X, y, spec) if buffers is None else buffers
    X.dot(w, out=z)
    np.copysign(z, -1.0, out=e)
    z *= y
    np.exp(e, out=e)
    np.add(e, 1.0, out=coef)
    np.less_equal(z, 0.0, out=nonpos)
    np.maximum(e, nonpos, out=e)
    np.divide(e, coef, out=coef)
    coef /= neg_Cy
    coef.dot(X, out=grad)
    grad /= X.shape[0]
    return grad


# Scalar forms for the per-sample step, in ``math``: the same formulas as
# ``softplus`` and ``batch_mean_grad`` above, for one margin z = y <w, x>.
# The step scores its K experts with ``np.logaddexp(0, -z)``, the K-vector form.

def margin_loss(z: float, spec: LossSpec) -> float:
    """The loss at margin z: softplus(-z) / C."""
    return (max(-z, 0.0) + math.log1p(math.exp(-abs(z)))) / spec.C


def margin_grad_coef(z: float, y: int, spec: LossSpec) -> float:
    """The gradient at margin z is this coefficient times x: -y sigmoid(-z) / C."""
    e = math.exp(-abs(z))
    sig = e / (1.0 + e) if z >= 0 else 1.0 / (1.0 + e)
    return -y * sig / spec.C
