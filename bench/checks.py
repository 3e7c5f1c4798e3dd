"""Correctness checks, computed apart from the program.

Every check recomputes what it compares against from the definitions in
the paper and the package docstrings (normalized logistic loss,
exponential weights, projected OGD, the bound formulas) with the
benchmark's own numpy code, or from an independent ``scipy.optimize``
solve. Nothing is compared against stored output. The checks run after the
timed phase, and each returns a list of failure messages (empty when all
hold).
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

D = 1.0
R = 1.0
C = math.log1p(math.exp(D * R))
BETA = D * D / (4.0 * C)
GAMMA_FLOOR = 0.1
GRAD_MAP_TOL = 1e-8


def softplus(z):
    return np.logaddexp(0.0, z)


def sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def project(w):
    norm = float(np.linalg.norm(w))
    return w * (R / norm) if norm > R else w


def mean_loss(w, X, y):
    return float(np.mean(softplus(-y * (X @ w)))) / C


def mean_grad(w, X, y):
    coef = -y * sigmoid(-y * (X @ w)) / C
    return X.T @ coef / len(y)


# -- desk and wide: the run command's reports ------------------------------

def check_run_reports(out_dir, seeds, shape, streams_by_seed, scipy_intervals):
    """Check one ``run`` command's summary.json and steps.csv.

    ``streams_by_seed`` maps each seed to its list of (X, y) intervals, the
    same inputs the run command generated; ``scipy_intervals`` lists
    (seed, g) pairs whose ERM objective is re-solved with scipy.
    """
    errors = []
    G, B, k_max = shape.G, shape.B, shape.k_max
    with open(os.path.join(out_dir, "summary.json")) as fh:
        summary = json.load(fh)
    per_seed = summary["per_seed"]
    if [run["seed"] for run in per_seed] != list(seeds):
        errors.append(f"summary seeds {[r['seed'] for r in per_seed]} != {list(seeds)}")
        return errors
    meta_bound = {K: math.sqrt(B * math.log(K)) for K in range(1, k_max + 1)}
    ogd_bound = 6.0 * D * math.sqrt(B * BETA)
    for run in per_seed:
        intervals = run["intervals"]
        if [m["g"] for m in intervals] != list(range(1, G + 1)):
            errors.append(f"seed {run['seed']}: intervals are not 1..{G}")
            continue
        for m in intervals:
            where = f"seed {run['seed']} interval {m['g']}"
            K = min(m["g"], k_max)
            if m["K"] != K or m["T"] != B:
                errors.append(f"{where}: K={m['K']} T={m['T']}, want K={K} T={B}")
            if abs(m["regret_co2"] - (m["regret_me"] + m["regret_ke"])) > 1e-9:
                errors.append(f"{where}: regret identity broken")
            if m["regret_me_weighted"] > meta_bound[K] + 1e-6:
                errors.append(f"{where}: meta regret above sqrt(T ln K)")
            if m["regret_oe"] > ogd_bound + 1e-6:
                errors.append(f"{where}: online regret above 6 D sqrt(T beta)")

    steps_path = os.path.join(out_dir, "steps.csv")
    with open(steps_path) as fh:
        header = next(csv.reader(fh))
    columns = ["seed", "g", "t", "loss_co2", "loss_ogd", "regret_co2", "regret_ogd"]
    columns += [f"alpha_{k}" for k in range(1, k_max + 1)]
    if header != columns:
        errors.append(f"steps.csv header {header} != {columns}")
        return errors
    steps = np.loadtxt(steps_path, delimiter=",", skiprows=1, ndmin=2)
    if steps.shape[0] != len(seeds) * G * B:
        errors.append(f"steps.csv has {steps.shape[0]} rows, want {len(seeds) * G * B}")
        return errors
    losses = steps[:, 3:5]
    if not (np.all(losses > 0.0) and np.all(losses <= 1.0)):
        errors.append("steps.csv: a loss lies outside (0, 1]")
    alpha = steps[:, 7:]
    if np.any(alpha < 0.0) or np.max(np.abs(alpha.sum(axis=1) - 1.0)) > 1e-9:
        errors.append("steps.csv: alpha is off the simplex")

    for i, seed in enumerate(seeds):
        rows = steps[i * G * B:(i + 1) * G * B]
        if np.any(rows[:, 0] != seed):
            errors.append(f"steps.csv: rows of seed {seed} out of place")
            continue
        ogd = ogd_losses(streams_by_seed[seed])
        gap = float(np.max(np.abs(ogd - rows[:, 4])))
        if gap > 1e-12:
            errors.append(f"seed {seed}: loss_ogd differs from own OGD by {gap:.3e}")

    by_seed = {run["seed"]: run["intervals"] for run in per_seed}
    for seed, g in scipy_intervals:
        X, y = streams_by_seed[seed][g - 1]
        want = scipy_erm(X, y)
        got = by_seed[seed][g - 1]["erm_objective"]
        if abs(got - want) > 1e-6:
            errors.append(f"seed {seed} interval {g}: erm_objective {got!r} "
                          f"vs scipy {want!r}")
    return errors


def ogd_losses(intervals):
    """Whole-stream projected OGD from w = 0 with eta_t = D / sqrt(beta t);
    the loss of each sample is taken before the step."""
    w = np.zeros(intervals[0][0].shape[1])
    out = []
    t = 1
    for X, y in intervals:
        for x, label in zip(X, y):
            z = label * float(x @ w)
            out.append(float(softplus(-z)) / C)
            grad = (-label * float(sigmoid(-z)) / C) * x
            w = project(w - (D / math.sqrt(BETA * t)) * grad)
            t += 1
    return np.array(out)


def scipy_erm(X, y):
    """Minimum of the mean loss over the ball ||w|| <= R, by SLSQP."""
    from scipy.optimize import minimize

    dim = X.shape[1]
    res = minimize(
        mean_loss, np.zeros(dim), args=(X, y), jac=mean_grad, method="SLSQP",
        constraints=[{"type": "ineq", "fun": lambda w: R * R - w @ w,
                      "jac": lambda w: -2.0 * w}],
        options={"ftol": 1e-15, "maxiter": 1000},
    )
    return mean_loss(project(res.x), X, y)


# -- the pool driven directly ----------------------------------------------

def check_pool_log(log, intervals, queries, queries_per_step, k_max):
    """Replay the logged intervals from the pool's state at interval start
    and check every rollover's certificate."""
    errors = []
    B = intervals[0][0].shape[0]
    for g, snap in sorted(log.snapshots.items()):
        X, y = intervals[g - 1]
        offline = [np.array(w) for w in snap["offline"]]
        w = snap["w"].copy()
        alpha = snap["alpha"].copy()
        K = len(offline) + 1
        nu = 4.0 * math.sqrt(math.log(K) / B)
        if alpha.shape != (K,) or abs(nu - snap["nu"]) > 1e-15 or snap["t"] != 1:
            errors.append(f"interval {g}: pool state at interval start is inconsistent")
            continue
        qi = (g - 1) * B * queries_per_step
        logged_losses, logged_predictions = log.loss_meta[g], log.predictions[g]
        for t in range(B):
            x, label = X[t], y[t]
            experts = np.vstack(offline + [w])
            margins = label * (experts @ x)
            losses = softplus(-margins) / C
            out = alpha @ experts
            loss_meta = float(softplus(-label * float(out @ x))) / C
            if abs(loss_meta - logged_losses[t]) > 1e-12:
                errors.append(f"interval {g} step {t + 1}: loss_meta "
                              f"{logged_losses[t]!r} vs replay {loss_meta!r}")
                break
            scaled = alpha * np.exp(-nu * losses)
            alpha = scaled / scaled.sum()
            grad = (-label * float(sigmoid(-margins[-1])) / C) * x
            w = project(w - (D / math.sqrt(BETA * (t + 1))) * grad)
            out = alpha @ np.vstack(offline + [w])
            for j in range(queries_per_step):
                value = float(out @ queries[qi % len(queries)])
                logged = logged_predictions[t * queries_per_step + j]
                if abs(value) > 1e-12 and (1 if value >= 0 else -1) != logged:
                    errors.append(f"interval {g} step {t + 1}: prediction differs")
                qi += 1
    for g, rec in sorted(log.rollovers.items()):
        X, y = intervals[g - 1]
        w, v, wl = rec["w"], rec["v"], rec["weighted_loss"]
        gamma = max(wl / (4.0 * R * R), GAMMA_FLOOR)
        step = 1.0 / (BETA + gamma)
        grad = mean_grad(w, X, y) + gamma * (w - v)
        grad_map = float(np.linalg.norm(w - project(w - step * grad))) / step
        omega = float((w - v) @ (w - v))
        where = f"rollover after interval {g}"
        if abs(rec["gamma"] - gamma) > 1e-15:
            errors.append(f"{where}: gamma {rec['gamma']!r}, want {gamma!r}")
        if grad_map > GRAD_MAP_TOL * (1.0 + 1e-6):
            errors.append(f"{where}: mapping norm {grad_map:.3e} above tolerance")
        if omega > wl / gamma + 10.0 * GRAD_MAP_TOL:
            errors.append(f"{where}: omega {omega!r} above WL/gamma")
        if rec["K"] != min(g + 1, k_max):
            errors.append(f"{where}: K={rec['K']}, want {min(g + 1, k_max)}")
        if not np.array_equal(rec["newest"], w):
            errors.append(f"{where}: the new expert is not the top-priority offline expert")
    return errors
