"""Closed-form calculators for every guarantee the library measures against.

All logarithms are natural. Every calculator is a pure, total function of
its stated domain; the harness asserts the measurable ones against recorded
runs and reports the rest.

Quick reference (T steps, K experts, feature bound D, hypothesis radius R,
smoothness beta, regularization gamma, confidence 1 - delta, moment
eigenvalues lambda_i):

    meta regret      sqrt(T ln K)
    OGD regret       6 D sqrt(T beta)
    coupled regret   sqrt(T ln K) + regret_KE   (general)
                     sqrt(T ln K) + 6 D sqrt(T beta)   (worst case)
    K condition      K <= 2 exp(6 D sqrt(beta) - regret_KE / sqrt(T))
    transfer gap     ||w_new - w*|| <= sqrt(2 Omega(w*) + 32 beta / gamma^2
                                           + 6 WL / gamma)
    Rademacher       R sqrt((1/T) sum_i min(D^2, e lambda_i / T)) + D R sqrt(e) / T
    excess risk      three-term high-probability bound, see excess_risk_bound
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from math import exp, inf, isfinite, log, sqrt, e as _E
from numbers import Real
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DataError, check_int, check_real


@dataclass(frozen=True)
class BoundInputs:
    """Everything the calculators consume, measured or configured. Checked so
    that ``transfer_gap_bound``'s ``gamma**2`` is finite and > 0 and
    ``k_condition`` is finite; ``ExperimentConfig`` builds one per run to
    check its settings against this one float-range rule."""

    T: int
    K: int
    B: int
    D: float
    R: float
    beta: float
    gamma: float
    delta: float
    regret_KE: float
    omega_star: float
    weighted_loss: float
    eigenvalues: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        ev = np.asarray(self.eigenvalues, dtype=np.float64)
        object.__setattr__(self, "eigenvalues", ev)
        for name in ("T", "K", "B"):
            check_int(name, getattr(self, name), minimum=1)
        for name in ("D", "R", "beta", "gamma"):
            check_real(name, getattr(self, name), positive=True)
        check_real("delta", self.delta, positive=True, below=1.0)
        check_real("omega_star", self.omega_star)
        check_real("weighted_loss", self.weighted_loss)
        if self.weighted_loss > 1.0:
            raise ConfigError(f"weighted_loss must be <= 1, got {self.weighted_loss!r}")
        regret = self.regret_KE  # the one input that may be negative
        if isinstance(regret, bool) or not (isinstance(regret, Real) and isfinite(regret)):
            raise ConfigError(f"regret_KE must be a finite number, got {regret!r}")
        try:  # as transfer_gap_bound takes it; gamma * gamma can differ in the last bit
            square = self.gamma**2
        except OverflowError:
            square = inf
        if not 0.0 < square < inf:
            raise ConfigError(f"gamma must have a finite square > 0, got {self.gamma!r}")
        # a regret_KE >= 0 only lowers the exponent: past the float range at
        # max(regret_KE, 0), the culprit is D and R
        for culprit, at in (("D and R", max(regret, 0.0)), ("regret_KE", regret)):
            try:
                rhs = k_condition(self.T, self.D, self.beta, at)
            except OverflowError:  # from its exp; the factor 2 overflows to inf instead
                rhs = inf
            if rhs == inf:
                raise ConfigError(f"{culprit} must keep the K condition's 2 exp(6 D sqrt(beta) - "
                                  f"regret_KE / sqrt(T)) finite, got D={self.D}, R={self.R}, "
                                  f"beta={self.beta}, T={self.T}, regret_KE={regret!r}")
        _check_nonincreasing(ev)


def _check_nonincreasing(ev: np.ndarray) -> None:
    if ev.size and not (np.all(np.isfinite(ev)) and np.all(ev >= 0)
                        and np.all(np.diff(ev) <= 1e-12)):
        raise ConfigError("eigenvalues must be finite, nonnegative and non-increasing")


class CoupledRegretBounds(NamedTuple):
    general: float
    worst: float


def meta_regret_bound(T: int, K: int) -> float:
    """sqrt(T ln K); zero for a single expert."""
    if T < 1 or K < 1:
        raise ValueError("T and K must be >= 1")
    return sqrt(T * log(K))


def ogd_regret_bound(T: int, D: float, beta: float) -> float:
    """6 D sqrt(T beta)."""
    if T < 1:
        raise ValueError("T must be >= 1")
    return 6.0 * D * sqrt(T * beta)


def co2_regret_bounds(T: int, K: int, D: float, beta: float, regret_KE: float) -> CoupledRegretBounds:
    """General and worst-case regret bounds of the coupled learner."""
    base = meta_regret_bound(T, K)
    return CoupledRegretBounds(general=base + regret_KE,
                               worst=base + ogd_regret_bound(T, D, beta))


def k_condition(T: int, D: float, beta: float, regret_KE: float) -> float:
    """Largest expert count for which coupling cannot lose to bare OGD:
    the caller checks K <= returned value."""
    if T < 1:
        raise ValueError("T must be >= 1")
    return 2.0 * exp(6.0 * D * sqrt(beta) - regret_KE / sqrt(T))


def transfer_gap_bound(omega_star: float, beta: float, gamma: float, weighted_loss: float) -> float:
    """Bound on the distance from the trained offline expert to the
    population optimum of its interval."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    return sqrt(2.0 * omega_star + 32.0 * beta / gamma**2 + 6.0 * weighted_loss / gamma)


def rademacher_bound(T: int, D: float, R: float, eigenvalues) -> float:
    """Hypothesis-class Rademacher complexity from the moment eigenvalues.

    Zero eigenvalues contribute nothing, so truncating the (conceptually
    infinite) list at the finite empirical rank is exact.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    ev = np.asarray(eigenvalues, dtype=np.float64)
    _check_nonincreasing(ev)
    inside = float(np.minimum(D * D, _E * ev / T).sum()) / T
    return R * sqrt(inside) + D * R * sqrt(_E) / T


def excess_risk_bound(inputs: BoundInputs) -> float:
    """High-probability excess risk of the averaged output hypothesis.

    Sum of three terms: a fast 1/T term from the loss-function properties,
    a capacity term built on the Rademacher complexity, and a 1/sqrt(T)
    term carrying the confidence level, the expert count, and the online
    optimizer's guarantee.
    """
    T, K = inputs.T, inputs.K
    D, R, beta, delta = inputs.D, inputs.R, inputs.beta, inputs.delta
    ev = inputs.eigenvalues
    term1 = (12.0 * beta * R**2 + 4.0 * R * sqrt(beta)) * log(16.0 / delta) / T
    capacity = sqrt(float(np.minimum(T * D * D, _E * ev).sum())) + D * sqrt(_E)
    term2 = 28.0 * R * sqrt(beta) * log(64.0 * T) ** 1.5 / T * capacity
    term3 = (
        (6.0 * R * sqrt(beta) + 2.0) * sqrt(log(16.0 / delta))
        + 4.0 * log(8.0 / delta)
        + sqrt(log(K))
        + 6.0 * D * sqrt(beta)
    ) / sqrt(T)
    return term1 + term2 + term3


def estimate_eigenvalues(X: np.ndarray) -> np.ndarray:
    """Eigenvalues of the empirical second-moment matrix (1/n) sum x x^T,
    non-increasing, with negative rounding noise clamped to zero."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise DataError("need a non-empty (n, dim) sample matrix")
    moment = (X.T @ X) / X.shape[0]
    ev = np.linalg.eigvalsh(moment)[::-1]
    return np.maximum(ev, 0.0)


def bound_report(inputs: BoundInputs) -> dict:
    """All calculator values keyed by name, with the inputs echoed."""
    general, worst = co2_regret_bounds(inputs.T, inputs.K, inputs.D, inputs.beta, inputs.regret_KE)
    echo = {f.name: getattr(inputs, f.name) for f in fields(inputs)}  # bounds.json's key order
    echo["eigenvalues"] = [float(v) for v in inputs.eigenvalues]
    return {
        "inputs": echo,
        "meta_regret_bound": meta_regret_bound(inputs.T, inputs.K),
        "ogd_regret_bound": ogd_regret_bound(inputs.T, inputs.D, inputs.beta),
        "co2_regret_bound_general": general,
        "co2_regret_bound_worst": worst,
        "k_condition_rhs": k_condition(inputs.T, inputs.D, inputs.beta, inputs.regret_KE),
        "transfer_gap_bound": transfer_gap_bound(
            inputs.omega_star, inputs.beta, inputs.gamma, inputs.weighted_loss
        ),
        "rademacher_bound": rademacher_bound(inputs.T, inputs.D, inputs.R, inputs.eigenvalues),
        "excess_risk_bound": excess_risk_bound(inputs),
    }
