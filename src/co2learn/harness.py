"""Reproducible experiment driver.

One experiment runs, per seed: the coupled learner across all G intervals of
a generated stream, and a bare OGD baseline trained on the identical sample
sequence with no interval structure. Each interval's regret comparator is
the empirical minimizer over that interval's B samples (the ERM oracle: the
offline solver with gamma = 0, see ``offline.projected_gradient``);
synthetic runs can additionally report a population-optimum proxy fitted on
10*B fresh samples from the same interval distribution, labeled separately.

Every recorded interval is checked against the closed-form guarantees
(meta regret, OGD regret, both coupled-regret forms, the regret identity,
and the anchor-distance cap of the trained offline expert); any violation
raises BoundViolation, which the CLI maps to exit code 3.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import bounds as tb
from .errors import BoundViolation, ConfigError, ConvergenceError, check_int, check_real
from .geometry import Sample
from .losses import LossSpec, batch_losses, margin_loss
from .offline import omega, projected_gradient
from .online import INIT_POLICIES, init_online, ogd_update
from .pool import STRATEGIES, ExpertPool
from .streams import StreamSpec, fresh_proxy_samples, generate, parse_libsvm

# Not called here; kept importable because bench/tracing.py patches these names.
from .geometry import project_to_ball  # noqa: F401
from .losses import batch_mean_grad, grad_loss, loss  # noqa: F401
from .online import ogd_step  # noqa: F401

_TOL_BOUND = 1e-6   # deterministic-bound slack
_TOL_IDENT = 1e-9   # algebraic-identity slack
EARLY_T = 20        # step at which early cumulative losses are compared


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run depends on; two equal configs give identical reports.
    With StreamSpec, the one home of each setting's default and check."""

    stream: StreamSpec
    seeds: tuple[int, ...]
    R: float = 1.0
    K_max: int = 5
    strategy: str = "weight"
    init_policy: str = "cold"
    gamma_floor: float = 0.1
    grad_map_tol: float = 1e-8
    erm_tol: float = 1e-9
    delta: float = 0.05
    wstar_proxy: bool = True
    input_path: str | None = None

    def __post_init__(self):
        if not isinstance(self.seeds, (list, tuple)) or len(self.seeds) == 0:
            raise ConfigError(f"seeds must be a non-empty list of integers, got {self.seeds!r}")
        for seed in self.seeds:
            check_int("each seed", seed)
        object.__setattr__(self, "seeds", tuple(self.seeds))
        check_real("R", self.R, positive=True)
        check_int("K_max", self.K_max, minimum=2)
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")
        if self.init_policy not in INIT_POLICIES:
            raise ConfigError(f"init must be one of {INIT_POLICIES}, got {self.init_policy!r}")
        check_real("gamma_floor", self.gamma_floor)
        check_real("grad_map_tol", self.grad_map_tol, positive=True)
        check_real("erm_tol", self.erm_tol, positive=True)
        check_real("delta", self.delta, positive=True, below=1.0)
        if not isinstance(self.wstar_proxy, bool):
            raise ConfigError(f"wstar_proxy must be true or false, got {self.wstar_proxy!r}")
        if not (self.input_path is None or isinstance(self.input_path, str)):
            raise ConfigError(f"input must be a file path, got {self.input_path!r}")
        if self.stream.mode == "libsvm_noised" and self.input_path is None:
            raise ConfigError("libsvm_noised mode needs input_path")


@dataclass(frozen=True)
class StepRow:
    seed: int
    g: int
    t: int
    loss_co2: float
    loss_ogd: float
    regret_co2: float
    regret_ogd: float
    alpha: np.ndarray


@dataclass(frozen=True)
class IntervalMetrics:
    seed: int
    g: int
    K: int
    nu: float
    T: int
    regret_co2: float
    regret_me: float
    regret_me_weighted: float
    regret_ke: float
    regret_oe: float
    regret_ogd: float
    cum_loss_co2: float
    cum_loss_ogd: float
    cum_loss_online: float
    erm_cum_loss: float
    erm_objective: float
    early_t: int
    early_cum_co2: float
    early_cum_online: float
    early_cum_ogd: float
    meta_bound: float
    ogd_bound: float
    co2_bound_general: float
    co2_bound_worst: float
    k_condition_rhs: float
    k_condition_holds: bool
    regret_co2_vs_wstar: float | None = None
    regret_ogd_vs_wstar: float | None = None


@dataclass(frozen=True)
class RolloverMetrics:
    seed: int
    g_completed: int
    gamma: float
    weighted_loss: float
    omega_new: float
    anchor_cap: float
    grad_map_norm: float
    iterations: int
    converged: bool
    gap_measured: float | None = None
    gap_bound: float | None = None
    gap_holds: bool | None = None
    omega_star: float | None = None


@dataclass(frozen=True)
class SeedRun:
    seed: int
    steps: list[StepRow]
    intervals: list[IntervalMetrics]
    rollovers: list[RolloverMetrics]
    bound_report: dict


@dataclass(frozen=True)
class RunReport:
    config: ExperimentConfig
    runs: list[SeedRun]
    aggregate: dict = field(default_factory=dict)


def erm_oracle(
    X: np.ndarray,
    y: np.ndarray,
    spec: LossSpec,
    tol: float = 1e-9,
    max_iters: int = 200_000,
) -> np.ndarray:
    """Empirical minimizer over the hypothesis ball.

    The offline solver with gamma = 0 from the zero start (fixed step
    1/beta); returns the first iterate whose projected-gradient mapping norm
    is at most ``tol`` and raises ConvergenceError if the cap is hit first.
    Deterministic.
    """
    w, _, _, converged = projected_gradient(X, y, spec, tol=tol, max_iters=max_iters)
    if not converged:
        raise ConvergenceError(
            f"ERM oracle did not reach mapping norm {tol} within {max_iters} iterations"
        )
    return w


def load_input_samples(config: ExperimentConfig):
    """The parsed LIBSVM input of a libsvm-mode config; None in synthetic mode."""
    if config.stream.mode != "libsvm_noised":
        return None
    with open(config.input_path) as fh:
        return parse_libsvm(fh.read(), dim=config.stream.dim)


def run_experiment(config: ExperimentConfig) -> RunReport:
    """Run every seed and assemble the report; see the module docstring."""
    spec = LossSpec.create(D=config.stream.D, R=config.R, dim=config.stream.dim)
    input_samples = load_input_samples(config)
    runs = [
        _run_seed(config, spec, seed, input_samples)
        for seed in config.seeds
    ]
    return RunReport(config=config, runs=runs, aggregate=_aggregate(runs))


def _run_seed(config: ExperimentConfig, spec: LossSpec, seed: int, input_samples) -> SeedRun:
    stream_spec = replace(config.stream, seed=seed)
    intervals = generate(stream_spec, input_samples)
    pool = ExpertPool(
        spec=spec, B=stream_spec.B, K_max=config.K_max,
        strategy=config.strategy, init_policy=config.init_policy,
        gamma_floor=config.gamma_floor, grad_map_tol=config.grad_map_tol,
    )
    baseline = init_online("cold", spec.constants)
    w_ogd, t_ogd = baseline.w, baseline.t  # stepped in place

    steps: list[StepRow] = []
    metrics: list[IntervalMetrics] = []
    rollovers: list[RolloverMetrics] = []
    last_eigs = np.zeros(0)

    for buf in intervals:
        g = buf.interval_index
        K = pool.K
        nu = pool.meta.nu
        B = buf.n
        co2_losses = np.empty(B)
        ogd_losses = np.empty(B)
        expert_losses = np.empty((B, K))
        weighted_losses = np.empty(B)
        alphas = np.empty((B, K))
        for t in range(B):
            x, y = buf.X[t], int(buf.y[t])
            rec = pool.process_labeled(Sample(x=x, y=y))
            co2_losses[t] = rec.loss_meta
            expert_losses[t] = rec.losses_per_expert
            weighted_losses[t] = float(rec.alpha_before @ rec.losses_per_expert)
            alphas[t] = rec.alpha_after
            # process_labeled has already checked this sample
            z = y * float(x @ w_ogd)
            ogd_losses[t] = margin_loss(z, spec)
            ogd_update(w_ogd, t_ogd, x, y, z, spec)
            t_ogd += 1

        w_hat = erm_oracle(buf.X, buf.y, spec, tol=config.erm_tol)
        erm_losses = batch_losses(w_hat, buf.X, buf.y, spec)
        m = _interval_metrics(
            config, spec, seed, g, K, nu, B,
            co2_losses, ogd_losses, expert_losses, weighted_losses,
            erm_losses, w_hat, stream_spec, buf,
        )
        metrics.append(m)
        _assert_interval_bounds(m)
        steps.extend(_step_rows(seed, g, config.K_max, co2_losses, ogd_losses,
                                erm_losses, alphas))
        last_eigs = tb.estimate_eigenvalues(buf.X)

        if g < stream_spec.G:
            roll = pool.rollover(buf)
            rollovers.append(_rollover_metrics(config, spec, seed, stream_spec, buf, roll))
            _assert_rollover_bounds(config, rollovers[-1])

    final = metrics[-1]
    last_roll = rollovers[-1] if rollovers else None
    report_inputs = tb.BoundInputs(
        T=final.T, K=final.K, B=stream_spec.B,
        D=spec.constants.D, R=spec.constants.R, beta=spec.constants.beta,
        gamma=last_roll.gamma if last_roll else config.gamma_floor,
        delta=config.delta, regret_KE=final.regret_ke,
        omega_star=(last_roll.omega_star or 0.0) if last_roll else 0.0,
        weighted_loss=last_roll.weighted_loss if last_roll else 0.0,
        eigenvalues=last_eigs,
    )
    return SeedRun(seed=seed, steps=steps, intervals=metrics,
                   rollovers=rollovers, bound_report=tb.bound_report(report_inputs))


def _interval_metrics(config, spec, seed, g, K, nu, B, co2_losses, ogd_losses,
                      expert_losses, weighted_losses, erm_losses, w_hat,
                      stream_spec, buf) -> IntervalMetrics:
    cum_experts = expert_losses.sum(axis=0)
    best = float(cum_experts.min())
    cum_co2 = float(co2_losses.sum())
    cum_ogd = float(ogd_losses.sum())
    cum_online = float(cum_experts[-1])
    erm_cum = float(erm_losses.sum())
    regret_co2 = cum_co2 - erm_cum
    regret_me = cum_co2 - best
    regret_me_weighted = float(weighted_losses.sum()) - best
    regret_ke = best - erm_cum
    regret_oe = cum_online - erm_cum
    regret_ogd = cum_ogd - erm_cum
    k_rhs = tb.k_condition(B, spec.constants.D, spec.constants.beta, regret_ke)
    general, worst = tb.co2_regret_bounds(B, K, spec.constants.D, spec.constants.beta, regret_ke)

    early = min(EARLY_T, B)
    vs_wstar = (None, None)
    if config.wstar_proxy and buf.class_means is not None:
        Xf, yf = fresh_proxy_samples(stream_spec, buf, 10 * B)
        w_star = erm_oracle(Xf, yf, spec, tol=config.erm_tol)
        star_cum = float(batch_losses(w_star, buf.X, buf.y, spec).sum())
        vs_wstar = (cum_co2 - star_cum, cum_ogd - star_cum)

    return IntervalMetrics(
        seed=seed, g=g, K=K, nu=nu, T=B,
        regret_co2=regret_co2, regret_me=regret_me,
        regret_me_weighted=regret_me_weighted, regret_ke=regret_ke,
        regret_oe=regret_oe, regret_ogd=regret_ogd,
        cum_loss_co2=cum_co2, cum_loss_ogd=cum_ogd, cum_loss_online=cum_online,
        erm_cum_loss=erm_cum, erm_objective=erm_cum / B,
        early_t=early,
        early_cum_co2=float(co2_losses[:early].sum()),
        early_cum_online=float(expert_losses[:early, -1].sum()),
        early_cum_ogd=float(ogd_losses[:early].sum()),
        meta_bound=tb.meta_regret_bound(B, K),
        ogd_bound=tb.ogd_regret_bound(B, spec.constants.D, spec.constants.beta),
        co2_bound_general=general, co2_bound_worst=worst,
        k_condition_rhs=k_rhs, k_condition_holds=bool(K <= k_rhs),
        regret_co2_vs_wstar=vs_wstar[0], regret_ogd_vs_wstar=vs_wstar[1],
    )


def _rollover_metrics(config, spec, seed, stream_spec, buf, roll) -> RolloverMetrics:
    anchor_cap = roll.anchor.weighted_loss / roll.result.gamma + 10.0 * config.grad_map_tol
    gap_measured = gap_bound = gap_holds = omega_star = None
    if config.wstar_proxy and buf.class_means is not None:
        Xf, yf = fresh_proxy_samples(stream_spec, buf, 10 * buf.n)
        w_star = erm_oracle(Xf, yf, spec, tol=config.erm_tol)
        omega_star = omega(w_star, roll.anchor)
        gap_measured = float(np.linalg.norm(roll.result.w - w_star))
        gap_bound = tb.transfer_gap_bound(
            omega_star, spec.constants.beta,
            roll.result.gamma, roll.anchor.weighted_loss,
        )
        gap_holds = bool(gap_measured <= gap_bound + 0.05)
    return RolloverMetrics(
        seed=seed, g_completed=roll.g_completed, gamma=roll.result.gamma,
        weighted_loss=roll.anchor.weighted_loss, omega_new=roll.omega_new,
        anchor_cap=anchor_cap, grad_map_norm=roll.result.grad_map_norm,
        iterations=roll.result.iterations, converged=roll.result.converged,
        gap_measured=gap_measured, gap_bound=gap_bound, gap_holds=gap_holds,
        omega_star=omega_star,
    )


def _assert_interval_bounds(m: IntervalMetrics) -> None:
    checks = [
        (m.regret_me_weighted <= m.meta_bound + _TOL_BOUND,
         f"meta regret {m.regret_me_weighted} exceeds bound {m.meta_bound}"),
        (m.regret_oe <= m.ogd_bound + _TOL_BOUND,
         f"online-expert regret {m.regret_oe} exceeds bound {m.ogd_bound}"),
        (m.regret_co2 <= m.co2_bound_general + _TOL_BOUND,
         f"coupled regret {m.regret_co2} exceeds general bound {m.co2_bound_general}"),
        (m.regret_co2 <= m.co2_bound_worst + _TOL_BOUND,
         f"coupled regret {m.regret_co2} exceeds worst-case bound {m.co2_bound_worst}"),
        (abs(m.regret_co2 - (m.regret_me + m.regret_ke)) <= _TOL_IDENT,
         "regret decomposition identity broken"),
        (m.regret_ke <= m.regret_oe + _TOL_IDENT,
         f"best-expert gap {m.regret_ke} exceeds online-expert regret {m.regret_oe}"),
    ]
    for ok, msg in checks:
        if not ok:
            raise BoundViolation(f"seed {m.seed} interval {m.g}: {msg}")


def _assert_rollover_bounds(config: ExperimentConfig, r: RolloverMetrics) -> None:
    if r.omega_new > r.anchor_cap:
        raise BoundViolation(
            f"seed {r.seed} interval {r.g_completed}: anchor distance "
            f"{r.omega_new} exceeds {r.anchor_cap}"
        )


def _step_rows(seed, g, K_max, co2_losses, ogd_losses, erm_losses, alphas) -> list[StepRow]:
    cum_co2 = np.cumsum(co2_losses - erm_losses)
    cum_ogd = np.cumsum(ogd_losses - erm_losses)
    rows = []
    for t in range(len(co2_losses)):
        alpha = np.zeros(K_max)
        alpha[: alphas.shape[1]] = alphas[t]
        rows.append(StepRow(
            seed=seed, g=g, t=t + 1,
            loss_co2=float(co2_losses[t]), loss_ogd=float(ogd_losses[t]),
            regret_co2=float(cum_co2[t]), regret_ogd=float(cum_ogd[t]),
            alpha=alpha,
        ))
    return rows


def _aggregate(runs: list[SeedRun]) -> dict:
    finals = [r.intervals[-1] for r in runs]
    n = len(finals)
    early_vs_scratch = [m.early_cum_co2 <= m.early_cum_online for m in finals]
    end_vs_scratch = [m.regret_co2 <= m.regret_oe for m in finals]
    end_vs_stream = [m.regret_co2 <= m.regret_ogd for m in finals]
    return {
        "seeds": [r.seed for r in runs],
        "final_interval": finals[0].g if n else None,
        "mean_final_regret_co2": float(np.mean([m.regret_co2 for m in finals])),
        "mean_final_regret_ogd": float(np.mean([m.regret_ogd for m in finals])),
        "mean_final_regret_oe": float(np.mean([m.regret_oe for m in finals])),
        "early_t": finals[0].early_t if n else None,
        "early_win_fraction_vs_scratch_ogd": float(np.mean(early_vs_scratch)),
        "end_win_fraction_vs_scratch_ogd": float(np.mean(end_vs_scratch)),
        "end_win_fraction_vs_stream_ogd": float(np.mean(end_vs_stream)),
        "k_condition_held_fraction": float(np.mean([m.k_condition_holds for m in finals])),
    }


# ---------------------------------------------------------------------------
# Report emission

def emit_reports(report: RunReport, out_dir: str) -> dict:
    """Write steps.csv, summary.json and bounds.json; returns the paths."""
    if not report.runs:
        raise ValueError("cannot emit an empty run list")
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "steps": os.path.join(out_dir, "steps.csv"),
        "summary": os.path.join(out_dir, "summary.json"),
        "bounds": os.path.join(out_dir, "bounds.json"),
    }
    K_max = report.config.K_max
    header = ["seed", "g", "t", "loss_co2", "loss_ogd", "regret_co2", "regret_ogd"]
    header += [f"alpha_{k}" for k in range(1, K_max + 1)]
    with open(paths["steps"], "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for run in report.runs:
            for row in run.steps:
                writer.writerow(
                    [row.seed, row.g, row.t]
                    + [f"{v:.17g}" for v in
                       (row.loss_co2, row.loss_ogd, row.regret_co2, row.regret_ogd)]
                    + [f"{v:.17g}" for v in row.alpha]
                )
    summary = {
        "config": _config_dict(report.config),
        "aggregate": report.aggregate,
        "per_seed": [
            {
                "seed": run.seed,
                "intervals": [asdict(m) for m in run.intervals],
                "rollovers": [asdict(r) for r in run.rollovers],
            }
            for run in report.runs
        ],
    }
    with open(paths["summary"], "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    with open(paths["bounds"], "w") as fh:
        json.dump({str(run.seed): run.bound_report for run in report.runs}, fh, indent=2)
        fh.write("\n")
    return paths


def _config_dict(config: ExperimentConfig) -> dict:
    d = asdict(config)
    d["stream"] = asdict(config.stream)
    d["seeds"] = list(config.seeds)
    return d


def parse_steps_csv(path: str) -> list[StepRow]:
    """Read steps.csv back into rows; trailing zero alphas are padding."""
    rows = []
    with open(path) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        n_alpha = sum(1 for h in header if h.startswith("alpha_"))
        for rec in reader:
            alpha = np.array([float(v) for v in rec[7: 7 + n_alpha]])
            rows.append(StepRow(
                seed=int(rec[0]), g=int(rec[1]), t=int(rec[2]),
                loss_co2=float(rec[3]), loss_ogd=float(rec[4]),
                regret_co2=float(rec[5]), regret_ogd=float(rec[6]),
                alpha=alpha,
            ))
    return rows
