"""Exponentially weighted forecaster over K experts.

Initial weights are priority-ascending,

    alpha_1[k] = (K + 1) / ((K + 1 - k) (K + 2 - k) K),   k = 1..K,

which sum to 1 by telescoping and give the largest weight to the expert at
index K. After each loss vector f in [0,1]^K the weights update as

    alpha'[k] = alpha[k] exp(-nu f[k]) / sum_k' alpha[k'] exp(-nu f[k'])

with step size nu = 4 sqrt(ln K / T) fixed once per online interval from the
interval's nominal horizon T. For any loss sequence in [0, 1] the weighted
cumulative loss then trails the best expert by at most sqrt(T ln K).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log, sqrt
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class MetaWeights:
    """Probability vector over K experts plus the fixed step size nu.

    Unchecked: ``alpha`` is a float array of shape (K,) on the simplex and
    ``nu`` finite and >= 0. :meth:`fresh` (which checks K and the horizon)
    and :func:`update_weights` keep both.
    """

    alpha: np.ndarray
    nu: float

    @property
    def K(self) -> int:
        """The number of experts, ``len(alpha)``."""
        return len(self.alpha)

    @classmethod
    def fresh(cls, K: int, horizon: int) -> "MetaWeights":
        """Priority-ascending initial weights with nu set from the horizon."""
        return cls(alpha=init_weights(K), nu=step_size_nu(K, horizon))


def init_weights(K: int) -> np.ndarray:
    """Initial weight vector, ascending in k; entry K is the largest."""
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    k = np.arange(1, K + 1, dtype=np.float64)
    return (K + 1.0) / ((K + 1.0 - k) * (K + 2.0 - k) * K)


def step_size_nu(K: int, T: int) -> float:
    """4 sqrt(ln K / T); zero when K = 1."""
    if K < 1:
        raise ValueError(f"K must be >= 1, got {K}")
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    return 4.0 * sqrt(log(K) / T)


def combine(weights: MetaWeights, experts: Sequence[np.ndarray]) -> np.ndarray:
    """Weighted average sum_k alpha[k] * experts[k].

    Stays in the hypothesis ball without projection: the ball is convex and
    all experts are inside it. Needs exactly K experts; numpy's matmul raises
    ValueError on any other count.
    """
    stacked = np.asarray(experts, dtype=np.float64)
    return weights.alpha @ stacked


def update_weights(weights: MetaWeights, losses: np.ndarray) -> MetaWeights:
    """One exponential-weighting step on a loss vector in [0, 1]^K.

    Unchecked: ``losses`` is a float array of shape (K,) in [0, 1], as the
    normalized loss always is on its domain; the regret bound needs that.
    """
    return MetaWeights(alpha=reweight(weights.alpha, weights.nu, losses), nu=weights.nu)


def reweight(alpha: np.ndarray, nu: float, losses: np.ndarray) -> np.ndarray:
    """The exponential-weighting step on a bare weight vector: a new array
    ``alpha * exp(-nu * losses)``, normalized. Same preconditions as
    :func:`update_weights`."""
    scaled = losses * -nu
    np.exp(scaled, scaled)
    scaled *= alpha
    scaled /= np.add.reduce(scaled)  # ndarray.sum's own reduction, without its wrapper
    return scaled
