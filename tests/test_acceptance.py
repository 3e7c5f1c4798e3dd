"""Acceptance suite at reference desk scale.

Scale: dim=2, G=15, B=200, K_max=5, D=R=1, 20 seeds. One test per
criterion; each prints a single PASS/FAIL line (visible with -s, and the
test name itself doubles as the line under -v). All tolerances are pinned
here, not computed.
"""

import math
import time

import numpy as np
import pytest

from co2learn.bounds import (
    co2_regret_bounds,
    k_condition,
    rademacher_bound,
    transfer_gap_bound,
)
from co2learn.geometry import Sample
from co2learn.harness import ExperimentConfig, emit_reports, run_experiment
from co2learn.losses import LossSpec, batch_mean_loss, grad_loss, loss
from co2learn.meta import MetaWeights, update_weights
from co2learn.offline import (GRAD_MAP_TOL, Anchor, erm_oracle, gamma_lower_bound, objective,
                              omega, train_offline)
from co2learn.online import OnlineExpertState, ogd_step
from co2learn.pool import ExpertPool
from co2learn.streams import IntervalBuffer, StreamSpec, gen_synthetic

from oracles import grid_min_objective

DIM = 2
G = 15
B = 200
K_MAX = 5
SEEDS = tuple(range(1, 21))

TOL_BOUND = 1e-6      # deterministic regret bounds
TOL_IDENTITY = 1e-9   # algebraic identities
TOL_SELFBOUND = 1e-9  # gradient self-bounding
TOL_FD_REL = 1e-5     # finite-difference gradient agreement
TOL_GRID = 1e-4       # solver-vs-grid objective gap
TOL_SPOT = 1e-4       # calculator spot values
TOL_SPOT_RADE = 1e-5
THM2_SLACK = 0.05
THM2_CASES = 40
THM2_MIN_FRACTION = 0.95
EARLY_WIN_FRACTION = 0.80
END_WIN_FRACTION = 0.60


def _verdict(number: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {number:2d} {'PASS' if ok else 'FAIL'}: {name}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def spec():
    return LossSpec.create(D=1.0, R=1.0, dim=DIM)


@pytest.fixture(scope="module")
def desk_report():
    config = ExperimentConfig(
        stream=StreamSpec(G=G, B=B, dim=DIM, seed=0),
        seeds=SEEDS, K_max=K_MAX, wstar_proxy=True,
    )
    t0 = time.time()
    report = run_experiment(config)
    print(f"\ndesk-scale run: {len(SEEDS)} seeds x {G} intervals x {B} steps "
          f"in {time.time() - t0:.1f}s")
    return report


def all_intervals(report):
    return [m for run in report.runs for m in run.intervals]


def test_criterion_01_meta_regret_bound(desk_report):
    worst = -np.inf
    violations = 0
    for m in all_intervals(desk_report):
        slack = m.regret_me_weighted - m.meta_bound
        worst = max(worst, slack)
        violations += slack > TOL_BOUND

    # adversarial {0,1} losses aimed at the current leader
    for K, T in ((2, B), (5, B), (5, 1000)):
        mw = MetaWeights.fresh(K, T)
        cum = np.zeros(K)
        weighted = 0.0
        for _ in range(T):
            row = np.zeros(K)
            row[int(np.argmax(mw.alpha))] = 1.0
            weighted += float(mw.alpha @ row)
            cum += row
            mw = update_weights(mw, row)
        slack = (weighted - cum.min()) - math.sqrt(T * math.log(K))
        worst = max(worst, slack)
        violations += slack > TOL_BOUND

    _verdict(1, "meta regret <= sqrt(T ln K) on every interval and adversarially",
             violations == 0, f"worst slack {worst:.3e}")


def test_criterion_02_ogd_regret_bound(desk_report):
    slacks = [m.regret_oe - m.ogd_bound for m in all_intervals(desk_report)]
    _verdict(2, "online-expert regret <= max(6 D, 2 R^2 / D + 4 D) sqrt(T beta) on every run",
             max(slacks) <= TOL_BOUND, f"worst slack {max(slacks):.3e}")


def test_criterion_03_coupled_regret_bounds_and_identity(desk_report, spec):
    beta = spec.beta
    worst_general = worst_worst = worst_ident = -np.inf
    for m in all_intervals(desk_report):
        general, worst_case = co2_regret_bounds(m.T, m.K, 1.0, 1.0, beta, m.regret_ke)
        assert general == pytest.approx(m.co2_bound_general, rel=1e-12)
        assert worst_case == pytest.approx(m.co2_bound_worst, rel=1e-12)
        worst_general = max(worst_general, m.regret_co2 - general)
        worst_worst = max(worst_worst, m.regret_co2 - worst_case)
        worst_ident = max(worst_ident, abs(m.regret_co2 - (m.regret_me + m.regret_ke)))
    ok = worst_general <= TOL_BOUND and worst_worst <= TOL_BOUND and worst_ident <= TOL_IDENTITY
    _verdict(3, "both coupled regret bounds and the exact decomposition identity",
             ok, f"slacks {worst_general:.2e}/{worst_worst:.2e}, identity {worst_ident:.2e}")


def test_criterion_04_anchor_distance_cap(desk_report):
    worst = -np.inf
    for run in desk_report.runs:
        for r in run.rollovers:
            worst = max(worst, r.omega_new - (r.weighted_loss / r.gamma + 10 * GRAD_MAP_TOL))
    rng = np.random.default_rng(1234)
    pts = rng.normal(size=(10_000, 2, DIM))
    pts /= np.maximum(1.0, np.linalg.norm(pts, axis=2, keepdims=True))
    cap = max(omega(w, Anchor(v=v, weighted_loss=0.0)) for w, v in pts)
    _verdict(4, "trained-expert anchor distance and the 4R^2 cap",
             worst <= 0 and cap <= 4.0 + 1e-12,
             f"worst cap slack {worst:.3e}, max omega {cap:.6f}")


def test_criterion_05_self_bounding_gradients(spec):
    rng = np.random.default_rng(99)
    n = 10_000
    beta = spec.beta
    w = rng.normal(size=(n, DIM))
    w *= (rng.uniform(0, 1, n) ** 0.5 / np.linalg.norm(w, axis=1))[:, None]
    x = rng.normal(size=(n, DIM))
    x *= (rng.uniform(0, 1, n) ** 0.5 / np.linalg.norm(x, axis=1))[:, None]
    labels = rng.choice([-1, 1], n)
    worst_sb = worst_cap = -np.inf
    for wi, xi, yi in zip(w, x, labels):
        s = Sample(x=xi, y=int(yi))
        g = grad_loss(wi, s, spec)
        gn2 = float(np.dot(g, g))
        worst_sb = max(worst_sb, gn2 - 4 * beta * loss(wi, s, spec))
        worst_cap = max(worst_cap, math.sqrt(gn2) - 2 * math.sqrt(beta))
    _verdict(5, "self-bounding gradient property over 10^4 random pairs",
             worst_sb <= TOL_SELFBOUND and worst_cap <= TOL_SELFBOUND,
             f"worst slacks {worst_sb:.2e}, {worst_cap:.2e}")


def test_criterion_06_gradient_matches_finite_differences(spec):
    rng = np.random.default_rng(7)
    h = 1e-6
    worst = 0.0
    for _ in range(100):
        w = rng.normal(size=DIM)
        w *= rng.uniform(0, 0.999) / np.linalg.norm(w)  # keep w +- h inside the ball
        x = rng.normal(size=DIM)
        x *= rng.uniform(0, 1) / np.linalg.norm(x)
        s = Sample(x=x, y=int(rng.choice([-1, 1])))
        g = grad_loss(w, s, spec)
        fd = np.empty(DIM)
        for d in range(DIM):
            e = np.zeros(DIM)
            e[d] = h
            fd[d] = (loss(w + e, s, spec) - loss(w - e, s, spec)) / (2 * h)
        worst = max(worst, float(np.linalg.norm(fd - g) / max(np.linalg.norm(g), 1e-12)))
    _verdict(6, "central finite differences reproduce the gradient",
             worst <= TOL_FD_REL, f"worst relative error {worst:.2e}")


def test_criterion_07_solvers_match_grid_search(spec):
    rng = np.random.default_rng(2024)
    failures = 0
    worst = -np.inf

    def random_instance(B_max=8, B_min=1):
        n = int(rng.integers(B_min, B_max + 1))
        X = rng.normal(size=(n, DIM))
        X /= np.maximum(1.0, np.linalg.norm(X, axis=1, keepdims=True))
        y = rng.choice([-1, 1], n)
        return X, y

    for _ in range(10):  # ERM oracle instances
        X, y = random_instance()
        w = erm_oracle(X, y, spec)
        grid_best, _ = grid_min_objective(X, y, spec.C)
        gap = batch_mean_loss(w, X, y, spec) - grid_best
        worst = max(worst, gap)
        failures += gap > TOL_GRID

    for _ in range(10):  # regularized offline instances
        X, y = random_instance(B_min=2)
        buf = IntervalBuffer(X=X, y=y, interval_index=1)
        v = rng.normal(size=DIM)
        v *= rng.uniform(0, 1) / np.linalg.norm(v)
        wl = float(rng.uniform(0.2, 0.8))
        anchor = Anchor(v=v, weighted_loss=wl)
        # a floor above the lower bound, so the floor is the gamma trained with
        gamma = gamma_lower_bound(anchor, 1.0) + float(rng.uniform(0.05, 1.0))
        res = train_offline(buf, anchor, spec, gamma)
        assert res.gamma == gamma
        grid_best, _ = grid_min_objective(X, y, spec.C, gamma=gamma, anchor=v)
        gap = objective(res.w, buf, anchor, gamma, spec) - grid_best
        worst = max(worst, gap)
        failures += gap > TOL_GRID

    _verdict(7, "ERM oracle and offline solver within 1e-4 of brute-force grid",
             failures == 0, f"worst objective gap {worst:.2e} over 20 instances")


def test_criterion_08_transfer_gap_diagnostic(desk_report):
    cases = [r for run in desk_report.runs for r in run.rollovers][:THM2_CASES]
    assert len(cases) == THM2_CASES
    held = [r.gap_holds for r in cases]
    fraction = float(np.mean(held))
    _verdict(8, "offline expert within the knowledge-transfer gap bound of w*",
             fraction >= THM2_MIN_FRACTION,
             f"{sum(held)}/{THM2_CASES} cases hold ({fraction:.0%})")


def test_criterion_09_early_and_end_wins(desk_report):
    finals = [run.intervals[-1] for run in desk_report.runs]
    assert all(m.g >= 6 for m in finals)  # warm pool
    early = float(np.mean([m.early_cum_co2 <= m.early_cum_online for m in finals]))
    end = float(np.mean([m.regret_co2 <= m.regret_oe for m in finals]))
    _verdict(9, "coupled learner beats from-scratch OGD early and at the horizon",
             early >= EARLY_WIN_FRACTION and end >= END_WIN_FRACTION,
             f"early win {early:.0%} (need >= {EARLY_WIN_FRACTION:.0%}), "
             f"end win {end:.0%} (need >= {END_WIN_FRACTION:.0%})")


def test_criterion_10_calculator_spot_values():
    checks = [
        abs(co2_regret_bounds(100, 2, 1.0, 1.0, 1.0, 60.0).worst - 68.32554) <= TOL_SPOT,
        abs(k_condition(100, 1.0, 1.0, 1.0, 50.0) - math.log(5.43656)) <= TOL_SPOT,  # log form
        abs(rademacher_bound(100, 1.0, 1.0, np.array([1.0, 0.0])) - 0.032975) <= TOL_SPOT_RADE,
        abs(transfer_gap_bound(0.0, 1.0, 1.0, 0.0) - 5.65685) <= TOL_SPOT,
    ]
    _verdict(10, "bound calculators reproduce hand-computed spot values",
             all(checks), f"{sum(checks)}/4 spot values")


def test_criterion_11_byte_identical_reports(tmp_path):
    config = ExperimentConfig(
        stream=StreamSpec(G=G, B=B, dim=DIM, seed=0),
        seeds=(1, 2, 3), K_max=K_MAX, wstar_proxy=False,
    )
    paths = []
    for name in ("first", "second"):
        out = tmp_path / name
        emit_reports(run_experiment(config), str(out))
        paths.append(out / "steps.csv")
    same = paths[0].read_bytes() == paths[1].read_bytes()
    _verdict(11, "identical config + seed give byte-identical steps.csv", same)


def test_criterion_12_single_expert_equals_bare_ogd(spec):
    buf = gen_synthetic(StreamSpec(G=1, B=B, dim=DIM, seed=12))[0]
    pool = ExpertPool(spec=spec, B=B, K_max=K_MAX)
    ogd = OnlineExpertState(w=np.zeros(spec.dim), t=1)
    worst = 0.0
    for i in range(buf.n):
        s = Sample(x=buf.X[i], y=int(buf.y[i]))
        w_t = pool.current_output()
        pool.process_labeled(s)
        worst = max(worst, float(np.max(np.abs(w_t - ogd.w))))
        ogd = ogd_step(ogd, grad_loss(ogd.w, s, spec), spec)
    _verdict(12, "single-expert pool reproduces bare OGD exactly",
             worst <= 1e-12, f"max coordinate difference {worst:.1e}")
