"""Reproducible experiment driver.

One experiment runs, per seed: the coupled learner across all G intervals of
a generated stream, and a bare OGD baseline trained on the identical sample
sequence with no interval structure. Each interval's regret comparator is
the empirical minimizer over that interval's B samples (``offline.erm_oracle``);
synthetic runs also report regret against the interval's population optimum
w*, labeled separately: the weighted ERM of a node set that integrates the
interval's distribution (``population.population_nodes``). The node set is
built once per interval, from its class means, and shared by the interval's
metrics and the rollover metrics that follow it.

A seed draws each interval (``streams.intervals``) when it reaches it and
lets it go, with its node set, before it draws the next, so the run holds
one interval of one seed at a time, and every seed's step table.

Every recorded interval is checked against the closed-form guarantees
(meta regret, OGD regret, both coupled-regret forms, and the anchor-distance
cap of the trained offline expert); any violation raises BoundViolation,
which the CLI maps to exit code 3. The metrics' arithmetic decides the two
identities R_CO2 = R_ME + R_KE and R_KE <= R_OE; Tier-1 tests state them.
"""

from __future__ import annotations

import json
import math
import os
import sys
from collections.abc import Iterable
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import bounds as tb
from .errors import BoundViolation, ConfigError, check_int
from .losses import LossSpec, batch_losses, margin_loss
from .offline import GRAD_MAP_TOL, erm_oracle, omega
from .online import eta, ogd_update
from .pool import ExpertPool, check_settings
from .population import NodeSet, population_nodes
from .streams import _SEED_MAX, IntervalBuffer, StreamSpec, intervals, parse_libsvm

# Not called here; kept importable because bench/tracing.py patches these names.
from .geometry import project_to_ball  # noqa: F401
from .losses import batch_mean_grad, grad_loss, loss  # noqa: F401
from .online import ogd_step  # noqa: F401
from .streams import fresh_proxy_samples, generate  # noqa: F401

_TOL_BOUND = 1e-6   # deterministic-bound slack
EARLY_T = 20        # step at which early cumulative losses are compared


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run depends on; two equal configs give identical reports.
    With StreamSpec, the one home of each setting's default and check.

    Built here, once: ``stream.seed``, set to ``seeds[0]``; ``loss_spec`` (not
    a field, so ``asdict`` gives the settings alone), the LossSpec of
    ``stream.D``, ``R`` and ``stream.dim``; and, by ``bound_inputs``, the
    calculators' inputs. ``pool.check_settings`` checks the pool settings.
    Every bound a run can report must be finite where it is largest, at
    ``omega_star = 4 R^2`` and ``weighted_loss = 1``: first ``transfer_gap_bound``,
    the one bound that reads gamma, at the transfer weights
    ``max(1/(4 R^2), gamma_floor)`` (it names ``R``) and ``gamma_floor`` (it
    names ``gamma_floor``); then one ``BoundInputs`` at ``gamma_floor`` and
    ``regret_KE = B``, which checks ``delta``, and whose failure at any other
    bound names that bound and echoes its inputs."""

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
            check_int("each seed", seed, minimum=0, maximum=_SEED_MAX)
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seeds must be distinct, got {list(self.seeds)}")
        object.__setattr__(self, "seeds", tuple(self.seeds))
        object.__setattr__(self, "stream", replace(self.stream, seed=self.seeds[0]))
        object.__setattr__(self, "loss_spec",
                           LossSpec(D=self.stream.D, R=self.R, dim=self.stream.dim))
        check_settings(self.stream.B, self.K_max, self.strategy, self.init_policy,
                       self.gamma_floor)
        cap = 4.0 * self.R * self.R  # omega_star <= cap; gamma = max(WL / cap, gamma_floor)
        for setting, gamma in (("R", max(1.0 / cap, self.gamma_floor)),
                               ("gamma_floor", self.gamma_floor)):
            gap = tb.transfer_gap_bound(cap, self.loss_spec.beta, gamma, 1.0)
            if not math.isfinite(gap):
                raise ConfigError(
                    f"{setting}={getattr(self, setting)!r}: transfer_gap_bound must be a finite "
                    f"number, got {gap} at omega_star={cap!r}, beta={self.loss_spec.beta!r}, "
                    f"gamma={gamma!r}")
        # every other bound; none that is finite at regret_KE = B leaves the
        # float range for a regret_KE in [-B, B]
        self.bound_inputs((), regret_KE=self.stream.B, omega_star=cap, weighted_loss=1.0)
        if not isinstance(self.wstar_proxy, bool):
            raise ConfigError(f"wstar_proxy must be true or false, got {self.wstar_proxy!r}")
        if not (self.input_path is None or isinstance(self.input_path, str)):
            raise ConfigError(f"input must be a file path, got {self.input_path!r}")
        if self.stream.mode == "libsvm_noised" and self.input_path is None:
            raise ConfigError("libsvm_noised mode needs input_path")
        if self.stream.mode != "libsvm_noised" and self.input_path is not None:
            raise ConfigError(f"input {self.input_path!r} is read only when stream.mode is "
                              f"libsvm_noised, got stream.mode {self.stream.mode}")

    def bound_inputs(self, eigenvalues, gamma: float | None = None, regret_KE: float = 0.0,
                     omega_star: float = 0.0, weighted_loss: float = 0.0) -> tb.BoundInputs:
        """The calculators' inputs for one interval of this run: T = B,
        K = min(G, K_max), and the given measurements; ``gamma`` defaults to
        ``gamma_floor``."""
        spec, stream = self.loss_spec, self.stream
        return tb.BoundInputs(
            T=stream.B, K=min(stream.G, self.K_max),
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
    k_condition_log_rhs: float
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


def load_input_samples(config: ExperimentConfig):
    """The parsed LIBSVM input of a libsvm-mode config; None in synthetic mode."""
    if config.stream.mode != "libsvm_noised":
        return None
    with open(config.input_path) as fh:
        return parse_libsvm(fh.read(), dim=config.stream.dim)


def check_memory(config: ExperimentConfig, run: bool = True) -> None:
    """Raise MemoryError unless what a command holds fits in physical memory,
    counted in 8-byte values of rows of ``dim + 1``. ``run`` holds one
    interval, ``B`` rows (libsvm: its input, at least ``G*B``), and every
    seed's step table, ``G*B`` rows of ``4 + K_max``, kept for the report. An
    interval's w* node set, points of the plane of its class means, is not
    counted: a few thousand at the usual shapes, more at far means or a
    large D, but under 1 MB (the most seen: 10,672 points of 32 bytes).
    Synthetic ``generate`` and ``bounds`` hold one interval but count the
    stream's ``G*B`` rows, so a walk or a write that would not end is
    refused; in libsvm mode they hold the input. The message names what is
    counted. This check draws nothing."""
    stream, S = config.stream, len(config.seeds) if run else 0
    libsvm = stream.mode == "libsvm_noised"
    rows = (stream.G if libsvm or not run else 1) * stream.B
    need = 8 * (rows * (stream.dim + 1) + S * stream.G * stream.B * (4 + config.K_max))
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf: numpy's size limit
        memory = sys.maxsize
    if need > memory:
        values = f"{rows} rows of {stream.dim + 1} float64 values"
        if run:
            held = (f"{'the input, at least' if libsvm else 'one interval,'} {values}, and a "
                    f"step table per seed, S x G*B = {S} x {stream.G} x {stream.B} rows of "
                    f"{4 + config.K_max}, need")
        elif libsvm:
            held = f"the input, at least {values}, needs"
        else:
            held = f"the stream, G*B = {values} drawn one interval at a time, needs"
        raise MemoryError(f"{held} more than the machine's {memory / 2**30:.3g} GiB")


def run_experiment(config: ExperimentConfig) -> RunReport:
    """Run every seed and assemble the report; see the module docstring."""
    input_samples = load_input_samples(config)
    # each seed draws an interval when it reaches it, so the run holds one at a time
    runs = [_run_seed(config, seed, intervals(replace(config.stream, seed=seed), input_samples))
            for seed in config.seeds]
    return RunReport(config=config, runs=runs, aggregate=_aggregate(runs))


def _run_seed(config: ExperimentConfig, seed: int, stream: Iterable[IntervalBuffer]) -> SeedRun:
    """One seed's run over its stream: ``config.stream.G`` intervals of
    ``config.stream.B`` rows of dimension ``config.stream.dim`` in the D-ball,
    indexed 1..G in order. It takes each interval from ``stream`` when it
    reaches it, and lets go of it, its step records and its w* node set before
    it takes the next; the last one's rows give the bound report's
    eigenvalues. An interval of another index or shape raises a one-line
    ValueError before its first step, and a list of another count, order or
    shape before any step."""
    G, B = config.stream.G, config.stream.B
    if isinstance(stream, list):
        if len(stream) != G:
            raise ValueError(f"the run needs {G} intervals, got {len(stream)}")
        for g, buf in enumerate(stream, start=1):
            _check_fit(config.stream, g, buf)
    spec = config.loss_spec
    pool = ExpertPool(
        spec=spec, B=B, K_max=config.K_max,
        strategy=config.strategy, init_policy=config.init_policy,
        gamma_floor=config.gamma_floor,
    )
    w_ogd = np.zeros(spec.dim)  # the whole-stream baseline, stepped in place

    steps = np.zeros((G * B, 4 + config.K_max))
    metrics: list[IntervalMetrics] = []
    rollovers: list[RolloverMetrics] = []

    g = 0
    for buf in stream:
        g += 1
        _check_fit(config.stream, g, buf)
        meta = pool.meta  # the weights the interval's first step uses
        nodes = star_cum = None
        rows = steps[(g - 1) * B: g * B]  # a view, filled in place
        recs = [pool.process_labeled(s) for s in buf.samples]
        rows[:, 0] = [rec.loss_meta for rec in recs]
        rows[:, 4: 4 + pool.K] = [rec.alpha_after for rec in recs]
        # the whole-stream baseline; process_labeled has already checked each sample
        for t, (x, y) in enumerate(zip(buf.X, buf.y.tolist())):
            z = y * float(x.dot(w_ogd))
            rows[t, 1] = margin_loss(z, spec)
            ogd_update(w_ogd, eta((g - 1) * B + t + 1, spec), x, y, z, spec)

        w_hat = erm_oracle(buf.X, buf.y, spec)
        erm_losses = batch_losses(w_hat, buf.X, buf.y, spec)
        if config.wstar_proxy and buf.class_means is not None:  # one node set for both metrics
            nodes = population_nodes(buf.class_means, spec)
            star_cum = float(batch_losses(_population_optimum(nodes), buf.X, buf.y, spec).sum())
        m = _interval_metrics(spec, seed, g, meta, rows, recs, erm_losses, star_cum)
        metrics.append(m)
        _assert_interval_bounds(m)
        rows[:, 2] = np.cumsum(rows[:, 0] - erm_losses)
        rows[:, 3] = np.cumsum(rows[:, 1] - erm_losses)

        if g < G:
            roll = pool.rollover(buf)
            rollovers.append(_rollover_metrics(spec, seed, roll, nodes))
            _assert_rollover_bounds(rollovers[-1])
        else:
            eigenvalues = tb.estimate_eigenvalues(buf.X)
        buf = recs = nodes = None  # let go before the next interval is drawn
    if g != G:
        raise ValueError(f"the run needs {G} intervals, got {g}")

    last_roll = rollovers[-1] if rollovers else None
    report_inputs = config.bound_inputs(
        eigenvalues, regret_KE=metrics[-1].regret_ke,
        gamma=last_roll.gamma if last_roll else None,
        omega_star=(last_roll.omega_star or 0.0) if last_roll else 0.0,
        weighted_loss=last_roll.weighted_loss if last_roll else 0.0,
    )
    return SeedRun(seed=seed, steps=steps, intervals=metrics,
                   rollovers=rollovers, bound_report=tb.bound_report(report_inputs))


def _check_fit(stream_spec: StreamSpec, g: int, buf: IntervalBuffer) -> None:
    """A one-line ValueError unless ``buf`` can be interval g of the run."""
    shape = (stream_spec.B, stream_spec.dim)
    if g > stream_spec.G:
        raise ValueError(f"the run needs {stream_spec.G} intervals, got more")
    if buf.interval_index != g or buf.X.shape != shape:
        raise ValueError(f"interval {g} must be indexed {g} with {shape[0]} rows of "
                         f"{shape[1]} values, got index {buf.interval_index} and "
                         f"shape {buf.X.shape}")


def _interval_metrics(spec, seed, g, meta, rows, recs, erm_losses, star_cum) -> IntervalMetrics:
    co2_losses, ogd_losses = rows[:, 0], rows[:, 1]
    expert_losses = np.array([rec.losses_per_expert for rec in recs])
    alphas = [meta.alpha, *(rec.alpha_after for rec in recs)]  # the weights each step used
    weighted_losses = np.array([a.dot(rec.losses_per_expert) for a, rec in zip(alphas, recs)])
    B, K = expert_losses.shape
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
    k_log_rhs = tb.k_condition(B, spec.D, spec.R, spec.beta, regret_ke)
    general, worst = tb.co2_regret_bounds(B, K, spec.D, spec.R, spec.beta, regret_ke)

    early = min(EARLY_T, B)
    return IntervalMetrics(
        seed=seed, g=g, K=K, nu=meta.nu, T=B,
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
        ogd_bound=tb.ogd_regret_bound(B, spec.D, spec.R, spec.beta),
        co2_bound_general=general, co2_bound_worst=worst,
        k_condition_log_rhs=k_log_rhs, k_condition_holds=bool(math.log(K) <= k_log_rhs),
        regret_co2_vs_wstar=None if star_cum is None else cum_co2 - star_cum,
        regret_ogd_vs_wstar=None if star_cum is None else cum_ogd - star_cum,
    )


def _population_optimum(nodes: NodeSet) -> np.ndarray:
    """w*: the node set's weighted ERM, lifted from the plane of the class means."""
    return nodes.basis @ erm_oracle(nodes.X, nodes.y, nodes.spec, weights=nodes.weights)


def _rollover_metrics(spec, seed, roll, nodes) -> RolloverMetrics:
    anchor_cap = roll.anchor.weighted_loss / roll.result.gamma + 10.0 * GRAD_MAP_TOL
    gap_measured = gap_bound = gap_holds = omega_star = None
    if nodes is not None:
        # the interval metrics' fit again; it goes once bench's S(3G - 1) ERM-call pin is restated
        w_star = _population_optimum(nodes)
        omega_star = omega(w_star, roll.anchor)
        gap_measured = float(np.linalg.norm(roll.result.w - w_star))
        gap_bound = tb.transfer_gap_bound(
            omega_star, spec.beta,
            roll.result.gamma, roll.anchor.weighted_loss,
        )
        gap_holds = bool(gap_measured <= gap_bound)
    return RolloverMetrics(
        seed=seed, g_completed=roll.g_completed, gamma=roll.result.gamma,
        weighted_loss=roll.anchor.weighted_loss, omega_new=omega(roll.result.w, roll.anchor),
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
    write_json(paths["summary"], summary)
    write_json(paths["bounds"], {str(run.seed): run.bound_report for run in report.runs})
    return paths


def write_json(path: str, obj) -> str:
    """Write ``obj`` to ``path`` as indented JSON and a newline in one write; return the text."""
    text = json.dumps(obj, indent=2) + "\n"
    with open(path, "w") as fh:
        fh.write(text)
    return text
