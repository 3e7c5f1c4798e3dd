"""Reproducible experiment driver.

One experiment runs, per seed: the coupled learner across all G intervals of
a generated stream, and a bare OGD baseline trained on the identical sample
sequence with no interval structure. Each interval's regret comparator is
the empirical minimizer over that interval's B samples (the ERM oracle: the
offline solver with gamma = 0, see ``offline.projected_gradient``);
synthetic runs can additionally report a population-optimum proxy fitted on
10*B fresh samples from the same interval distribution, labeled separately.
That proxy sample is drawn once per interval and shared by the interval's
metrics and the rollover metrics that follow it.

Every recorded interval is checked against the closed-form guarantees
(meta regret, OGD regret, both coupled-regret forms, the regret identity,
and the anchor-distance cap of the trained offline expert); any violation
raises BoundViolation, which the CLI maps to exit code 3.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import bounds as tb
from .errors import BoundViolation, ConfigError, ConvergenceError, check_int
from .geometry import Sample
from .losses import LossSpec, batch_losses, margin_loss
from .offline import GRAD_MAP_TOL, omega, projected_gradient
from .online import eta, ogd_update
from .pool import ExpertPool, check_settings
from .streams import IntervalBuffer, StreamSpec, fresh_proxy_samples, generate, parse_libsvm

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
    With StreamSpec, the one home of each setting's default and check.

    Built here, once: ``stream.seed``, set to ``seeds[0]``; ``loss_spec`` (not
    a field, so ``asdict`` gives the settings alone), the LossSpec of
    ``stream.D``, ``R`` and ``stream.dim``; and, by ``bound_inputs``, the
    calculators' inputs. ``pool.check_settings`` checks the pool settings.
    R must be <= ``stream.D``: the asserted OGD bound ``6 D sqrt(T beta)`` is
    Zinkevich's ``(2 R^2 / D + 4 D) sqrt(T beta)`` at R = D, and below it
    only for R <= D. ``BoundInputs`` checks ``delta`` and the float range at
    ``regret_KE = 0`` and the smallest and largest transfer weight a run can
    take, ``gamma_floor`` and ``max(1/(4 R^2), gamma_floor)``."""

    stream: StreamSpec
    seeds: tuple[int, ...]
    R: float = 1.0
    K_max: int = 5
    strategy: str = "weight"
    init_policy: str = "cold"
    gamma_floor: float = 0.1
    delta: float = 0.05
    wstar_proxy: bool = True
    input_path: str | None = None

    def __post_init__(self):
        if not isinstance(self.seeds, (list, tuple)) or len(self.seeds) == 0:
            raise ConfigError(f"seeds must be a non-empty list of integers, got {self.seeds!r}")
        for seed in self.seeds:
            check_int("each seed", seed)
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seeds must be distinct, got {list(self.seeds)}")
        object.__setattr__(self, "seeds", tuple(self.seeds))
        object.__setattr__(self, "stream", replace(self.stream, seed=self.seeds[0]))
        object.__setattr__(self, "loss_spec",
                           LossSpec(D=self.stream.D, R=self.R, dim=self.stream.dim))
        if self.R > self.stream.D:
            raise ConfigError(f"R must be <= D, got R={self.R}, D={self.stream.D}: the "
                              f"asserted OGD regret bound 6 D sqrt(T beta) needs R <= D")
        check_settings(self.stream.B, self.K_max, self.strategy, self.init_policy,
                       self.gamma_floor)
        self.bound_inputs(())  # at gamma_floor, the smallest transfer weight
        cap = 4.0 * self.R * self.R  # gamma = max(WL / cap, gamma_floor) with 0 <= WL <= 1
        try:  # only gamma differs from the inputs just checked
            self.bound_inputs((), gamma=max(1.0 / cap if cap else math.inf, self.gamma_floor))
        except ConfigError as exc:
            raise ConfigError(f"max(1/(4 R^2), gamma_floor) at R={self.R}: {exc}") from None
        if not isinstance(self.wstar_proxy, bool):
            raise ConfigError(f"wstar_proxy must be true or false, got {self.wstar_proxy!r}")
        if not (self.input_path is None or isinstance(self.input_path, str)):
            raise ConfigError(f"input must be a file path, got {self.input_path!r}")
        if self.stream.mode == "libsvm_noised" and self.input_path is None:
            raise ConfigError("libsvm_noised mode needs input_path")

    def bound_inputs(self, eigenvalues, gamma: float | None = None, regret_KE: float = 0.0,
                     omega_star: float = 0.0, weighted_loss: float = 0.0) -> tb.BoundInputs:
        """The calculators' inputs for one interval of this run: T = B,
        K = min(G, K_max), and the given measurements; ``gamma`` defaults to
        ``gamma_floor``."""
        spec, stream = self.loss_spec, self.stream
        return tb.BoundInputs(
            T=stream.B, K=min(stream.G, self.K_max), B=stream.B,
            D=spec.D, R=spec.R, beta=spec.beta,
            gamma=self.gamma_floor if gamma is None else gamma, delta=self.delta,
            regret_KE=regret_KE, omega_star=omega_star, weighted_loss=weighted_loss,
            eigenvalues=eigenvalues,
        )


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
    """One seed's records. ``steps`` is a ``(G*B, 4 + K_max)`` float64 table:
    row ``(g-1)*B + (t-1)`` holds step t of interval g, in the columns
    loss_co2, loss_ogd (the whole-stream OGD baseline's), regret_co2 and
    regret_ogd (cumulative within the interval against its ERM comparator), and
    alpha_1..alpha_Kmax (post-update meta weights, 0.0 past the live experts)."""

    seed: int
    steps: np.ndarray
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
    input_samples = load_input_samples(config)
    # one seed's stream at a time, so two are never held at once
    runs = [_run_seed(config, seed, generate(replace(config.stream, seed=seed), input_samples))
            for seed in config.seeds]
    return RunReport(config=config, runs=runs, aggregate=_aggregate(runs))


def _run_seed(config: ExperimentConfig, seed: int, intervals: list[IntervalBuffer]) -> SeedRun:
    """One seed's run over its stream: ``config.stream.G`` intervals of
    ``config.stream.B`` rows of dimension ``config.stream.dim`` in the D-ball,
    indexed 1..G in order. Raises a one-line ValueError, before any step, on
    a set of another count, order or shape."""
    stream_spec = replace(config.stream, seed=seed)  # the proxy's substreams
    shape = (stream_spec.B, stream_spec.dim)
    if len(intervals) != stream_spec.G:
        raise ValueError(f"the run needs {stream_spec.G} intervals, got {len(intervals)}")
    for g, buf in enumerate(intervals, start=1):
        if buf.interval_index != g or buf.X.shape != shape:
            raise ValueError(f"interval {g} must be indexed {g} with {shape[0]} rows of "
                             f"{shape[1]} values, got index {buf.interval_index} and "
                             f"shape {buf.X.shape}")
    spec = config.loss_spec
    pool = ExpertPool(
        spec=spec, B=stream_spec.B, K_max=config.K_max,
        strategy=config.strategy, init_policy=config.init_policy,
        gamma_floor=config.gamma_floor,
    )
    w_ogd = np.zeros(spec.dim)  # the whole-stream baseline, stepped in place

    B = stream_spec.B
    steps = np.zeros((stream_spec.G * B, 4 + config.K_max))
    metrics: list[IntervalMetrics] = []
    rollovers: list[RolloverMetrics] = []

    for buf in intervals:
        g = buf.interval_index
        K = pool.K
        nu = pool.meta.nu
        rows = steps[(g - 1) * B: g * B]  # views, filled in place
        co2_losses, ogd_losses, alphas = rows[:, 0], rows[:, 1], rows[:, 4: 4 + K]
        expert_losses = np.empty((B, K))
        weighted_losses = np.empty(B)
        for t in range(B):
            x, y = buf.X[t], int(buf.y[t])
            rec = pool.process_labeled(Sample(x, y))
            co2_losses[t] = rec.loss_meta
            expert_losses[t] = rec.losses_per_expert
            weighted_losses[t] = float(rec.alpha_before.dot(rec.losses_per_expert))
            alphas[t] = rec.alpha_after
            # process_labeled has already checked this sample
            z = y * float(x.dot(w_ogd))
            ogd_losses[t] = margin_loss(z, spec)
            ogd_update(w_ogd, eta((g - 1) * B + t + 1, spec), x, y, z, spec)

        w_hat = erm_oracle(buf.X, buf.y, spec)
        erm_losses = batch_losses(w_hat, buf.X, buf.y, spec)
        # the w* proxy sample, shared by both metrics below; the last interval's
        # is let go first, so two are never held at once
        proxy = None
        if config.wstar_proxy and buf.class_means is not None:
            proxy = fresh_proxy_samples(stream_spec, buf, 10 * B)
        m = _interval_metrics(
            spec, seed, g, K, nu, B,
            co2_losses, ogd_losses, expert_losses, weighted_losses,
            erm_losses, buf, proxy,
        )
        metrics.append(m)
        _assert_interval_bounds(m)
        rows[:, 2] = np.cumsum(co2_losses - erm_losses)
        rows[:, 3] = np.cumsum(ogd_losses - erm_losses)

        if g < stream_spec.G:
            roll = pool.rollover(buf)
            rollovers.append(_rollover_metrics(spec, seed, roll, proxy))
            _assert_rollover_bounds(rollovers[-1])

    last_roll = rollovers[-1] if rollovers else None
    report_inputs = config.bound_inputs(
        tb.estimate_eigenvalues(intervals[-1].X), regret_KE=metrics[-1].regret_ke,
        gamma=last_roll.gamma if last_roll else None,
        omega_star=(last_roll.omega_star or 0.0) if last_roll else 0.0,
        weighted_loss=last_roll.weighted_loss if last_roll else 0.0,
    )
    return SeedRun(seed=seed, steps=steps, intervals=metrics,
                   rollovers=rollovers, bound_report=tb.bound_report(report_inputs))


def _interval_metrics(spec, seed, g, K, nu, B, co2_losses, ogd_losses,
                      expert_losses, weighted_losses, erm_losses,
                      buf, proxy) -> IntervalMetrics:
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
    k_rhs = tb.k_condition(B, spec.D, spec.beta, regret_ke)
    general, worst = tb.co2_regret_bounds(B, K, spec.D, spec.beta, regret_ke)

    early = min(EARLY_T, B)
    vs_wstar = (None, None)
    if proxy is not None:
        w_star = erm_oracle(*proxy, spec)
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
        ogd_bound=tb.ogd_regret_bound(B, spec.D, spec.beta),
        co2_bound_general=general, co2_bound_worst=worst,
        k_condition_rhs=k_rhs, k_condition_holds=bool(K <= k_rhs),
        regret_co2_vs_wstar=vs_wstar[0], regret_ogd_vs_wstar=vs_wstar[1],
    )


def _rollover_metrics(spec, seed, roll, proxy) -> RolloverMetrics:
    anchor_cap = roll.anchor.weighted_loss / roll.result.gamma + 10.0 * GRAD_MAP_TOL
    gap_measured = gap_bound = gap_holds = omega_star = None
    if proxy is not None:
        # the interval metrics' fit again; it goes once bench's S(3G - 1) ERM-call pin is restated
        w_star = erm_oracle(*proxy, spec)
        omega_star = omega(w_star, roll.anchor)
        gap_measured = float(np.linalg.norm(roll.result.w - w_star))
        gap_bound = tb.transfer_gap_bound(
            omega_star, spec.beta,
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


def _assert_rollover_bounds(r: RolloverMetrics) -> None:
    if r.omega_new > r.anchor_cap:
        raise BoundViolation(
            f"seed {r.seed} interval {r.g_completed}: anchor distance "
            f"{r.omega_new} exceeds {r.anchor_cap}"
        )


def _aggregate(runs: list[SeedRun]) -> dict:
    finals = [r.intervals[-1] for r in runs]  # ExperimentConfig requires a seed
    early_vs_scratch = [m.early_cum_co2 <= m.early_cum_online for m in finals]
    end_vs_scratch = [m.regret_co2 <= m.regret_oe for m in finals]
    end_vs_stream = [m.regret_co2 <= m.regret_ogd for m in finals]
    return {
        "seeds": [r.seed for r in runs],
        "final_interval": finals[0].g,
        "mean_final_regret_co2": float(np.mean([m.regret_co2 for m in finals])),
        "mean_final_regret_ogd": float(np.mean([m.regret_ogd for m in finals])),
        "mean_final_regret_oe": float(np.mean([m.regret_oe for m in finals])),
        "early_t": finals[0].early_t,
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
    B, K_max = report.config.stream.B, report.config.K_max
    header = ["seed", "g", "t", "loss_co2", "loss_ogd", "regret_co2", "regret_ogd"]
    header += [f"alpha_{k}" for k in range(1, K_max + 1)]
    row_format = "%d,%d,%d" + ",%.17g" * (4 + K_max) + "\n"  # seed, g, t, then SeedRun.steps
    with open(paths["steps"], "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for run in report.runs:
            for i, row in enumerate(run.steps.tolist()):
                g, t = divmod(i, B)
                fh.write(row_format % (run.seed, g + 1, t + 1, *row))
    summary = {
        "config": asdict(report.config),
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
