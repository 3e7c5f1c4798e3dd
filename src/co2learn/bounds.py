"""Closed-form calculators for every guarantee the library measures against.

All logarithms are natural. Every calculator is a pure, total function of
its stated domain; the harness asserts the measurable ones against recorded
runs and reports the rest.

Quick reference (T steps, K experts, feature bound D, hypothesis radius R,
smoothness beta, regularization gamma, confidence 1 - delta, moment
eigenvalues lambda_i):

    meta regret      sqrt(T ln K)
    OGD regret       max(6 D, 2 R^2 / D + 4 D) sqrt(T beta)
    coupled regret   sqrt(T ln K) + regret_KE   (general)
                     sqrt(T ln K) + OGD regret   (worst case)
    K condition      log K <= log 2 + (OGD regret - regret_KE) / sqrt(T)
    transfer gap     ||w_new - w*|| <= sqrt(2 Omega(w*) + 32 beta / gamma^2
                                           + 6 WL / gamma)
    Rademacher       R sqrt((1/T) sum_i min(D^2, e lambda_i / T)) + D R sqrt(e) / T
    excess risk      fast term + 28 sqrt(beta) log(64 T)^1.5 Rademacher
                     + confidence term + worst-case coupled regret / T
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from math import isfinite, log, sqrt, e as _E
from numbers import Real
from sys import float_info
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DataError, check_int, check_real


@dataclass(frozen=True)
class BoundInputs:
    """Everything the calculators consume, measured or configured, under one
    float-range rule: every value ``bound_report`` gives for them is finite.
    ``ExperimentConfig`` checks its settings against the rule."""

    T: int
    K: int
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
        object.__setattr__(self, "eigenvalues", np.asarray(self.eigenvalues, dtype=np.float64))
        for name in ("T", "K"):
            check_int(name, getattr(self, name), minimum=1, maximum=float_info.max)
        for name in ("D", "R", "beta", "gamma"):
            check_real(name, getattr(self, name), positive=True)
        check_real("delta", self.delta, positive=True, below=1.0)
        check_real("omega_star", self.omega_star)
        check_real("weighted_loss", self.weighted_loss)
        if self.weighted_loss > 1.0:
            raise ConfigError(f"weighted_loss must be <= 1, got {self.weighted_loss!r}")
        regret = self.regret_KE  # the one input that may be negative
        if isinstance(regret, bool) or not (isinstance(regret, Real)
                                            and abs(regret) <= float_info.max):
            raise ConfigError(f"regret_KE must be a finite number, got {regret!r}")
        for name, value in _bounds(self).items():  # the float-range rule
            if not isfinite(value):
                scalars = ", ".join(f"{f.name}={getattr(self, f.name)!r}"
                                    for f in fields(self) if f.name != "eigenvalues")
                raise ConfigError(f"{name} must be a finite number, got {value} at {scalars}")


class CoupledRegretBounds(NamedTuple):
    general: float
    worst: float


def meta_regret_bound(T: int, K: int) -> float:
    """sqrt(T ln K); zero for a single expert."""
    if T < 1 or K < 1:
        raise ValueError("T and K must be >= 1")
    return sqrt(T * log(K))


def ogd_regret_bound(T: int, D: float, R: float, beta: float) -> float:
    """Zinkevich's (2 R^2 / D + 4 D) sqrt(T beta), at least its R = D value 6 D sqrt(T beta)."""
    if T < 1:
        raise ValueError("T must be >= 1")
    return max(6.0 * D, 2.0 * (R / D) * R + 4.0 * D) * sqrt(T * beta)


def co2_regret_bounds(T: int, K: int, D: float, R: float, beta: float,
                      regret_KE: float) -> CoupledRegretBounds:
    """General and worst-case regret bounds of the coupled learner."""
    base = meta_regret_bound(T, K)
    return CoupledRegretBounds(general=base + regret_KE,
                               worst=base + ogd_regret_bound(T, D, R, beta))


def k_condition(T: int, D: float, R: float, beta: float, regret_KE: float) -> float:
    """Log of the largest expert count for which coupling cannot lose to
    bare OGD: the caller checks log K <= returned value."""
    # each term over sqrt(T) on its own, so no intermediate leaves the float range
    return log(2.0) + (ogd_regret_bound(T, D, R, beta) / sqrt(T) - regret_KE / sqrt(T))


def transfer_gap_bound(omega_star: float, beta: float, gamma: float, weighted_loss: float) -> float:
    """Bound on the distance from the trained offline expert to the
    population optimum of its interval."""
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    return sqrt(2.0 * omega_star + 32.0 * beta / gamma / gamma + 6.0 * weighted_loss / gamma)


def rademacher_bound(T: int, D: float, R: float, eigenvalues) -> float:
    """Hypothesis-class Rademacher complexity from the moment eigenvalues.

    Zero eigenvalues contribute nothing, so truncating the (conceptually
    infinite) list at the finite empirical rank is exact.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    ev = np.asarray(eigenvalues, dtype=np.float64)
    if ev.size and not (np.all(np.isfinite(ev)) and np.all(ev >= 0)
                        and np.all(np.diff(ev) <= 1e-12)):
        raise ConfigError("eigenvalues must be finite, nonnegative and non-increasing")
    with np.errstate(over="ignore"):  # to inf, which BoundInputs' rule refuses
        inside = float(np.minimum(D * D, _E * ev / T).sum()) / T
    return R * sqrt(inside) + D * R * sqrt(_E) / T


def excess_risk_bound(inputs: BoundInputs) -> float:
    """High-probability excess risk of the averaged output hypothesis, the
    sum of four parts: a fast 1/T term from the loss-function properties;
    28 sqrt(beta) log(64 T)^1.5 times ``rademacher_bound``; a confidence term
    over sqrt(T); and the worst-case coupled regret over T, the online-to-batch
    conversion (Cesa-Bianchi, Conconi & Gentile, IEEE Trans. IT 2004)."""
    T, D, R, beta, delta = inputs.T, inputs.D, inputs.R, inputs.beta, inputs.delta
    fast = (12.0 * beta * R * R + 4.0 * R * sqrt(beta)) * log(16.0 / delta) / T
    capacity = 28.0 * sqrt(beta) * log(64.0 * T) ** 1.5 * rademacher_bound(
        T, D, R, inputs.eigenvalues)
    confidence = ((6.0 * R * sqrt(beta) + 2.0) * sqrt(log(16.0 / delta))
                  + 4.0 * log(8.0 / delta)) / sqrt(T)
    regret = co2_regret_bounds(T, inputs.K, D, R, beta, inputs.regret_KE).worst / T
    return fast + capacity + confidence + regret


def estimate_eigenvalues(X: np.ndarray) -> np.ndarray:
    """Eigenvalues of the empirical second-moment matrix (1/n) sum x x^T,
    non-increasing, with negative rounding noise clamped to zero."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise DataError("need a non-empty (n, dim) sample matrix")
    moment = (X.T @ X) / X.shape[0]
    ev = np.linalg.eigvalsh(moment)[::-1]
    return np.maximum(ev, 0.0)


def _bounds(inputs: BoundInputs) -> dict:
    """Every calculator's value at these inputs, keyed by name."""
    T, D, R, beta, regret_KE = inputs.T, inputs.D, inputs.R, inputs.beta, inputs.regret_KE
    general, worst = co2_regret_bounds(T, inputs.K, D, R, beta, regret_KE)
    return {
        "meta_regret_bound": meta_regret_bound(T, inputs.K),
        "ogd_regret_bound": ogd_regret_bound(T, D, R, beta),
        "co2_regret_bound_general": general,
        "co2_regret_bound_worst": worst,
        "k_condition_log_rhs": k_condition(T, D, R, beta, regret_KE),
        "transfer_gap_bound": transfer_gap_bound(
            inputs.omega_star, inputs.beta, inputs.gamma, inputs.weighted_loss
        ),
        "rademacher_bound": rademacher_bound(T, D, R, inputs.eigenvalues),
        "excess_risk_bound": excess_risk_bound(inputs),
    }


def bound_report(inputs: BoundInputs) -> dict:
    """All calculator values keyed by name, with the inputs echoed."""
    echo = {f.name: getattr(inputs, f.name) for f in fields(inputs)}  # bounds.json's key order
    echo["eigenvalues"] = [float(v) for v in inputs.eigenvalues]
    return {"inputs": echo, **_bounds(inputs)}
