"""In-memory span tracer for the benchmark's traced run.

Timers are installed where each caller looks a name up: a module imports
``loss`` from ``co2learn.losses`` by name, so the timer for calls made by the
pool goes on ``co2learn.pool.loss`` and the one for calls made by the
harness on ``co2learn.harness.loss``. Methods are timed on their class.
Both sites of one function report under one layer name, e.g.
``losses.loss``. Nothing inside the program is changed; ``restore`` puts
every original back.

Each call records a span (id, parent id, name, start, end). A span's self
time is its duration minus the time its child spans cover. Spans stay in
memory until ``write_spans`` is called at the end of the run.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.durations: dict[str, list[int]] = defaultdict(list)
        self.self_durations: dict[str, list[int]] = defaultdict(list)
        self.counts: Counter = Counter()
        self.child_calls: Counter = Counter()
        self._stack: list[list] = []  # [span id, name, ns covered by children]
        self._next_id = 1
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, on_return):
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            frame = [tracer._next_id, name, 0]
            tracer._next_id += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                tracer.durations[name].append(duration)
                tracer.self_durations[name].append(duration - frame[2])
                parent_id = 0
                if parent is not None:
                    parent[2] += duration
                    parent_id = parent[0]
                    tracer.child_calls[(parent[1], name)] += 1
                tracer.spans.append((frame[0], parent_id, name, start, end))
            if on_return is not None:
                on_return(tracer, args, kwargs, result)
            return result

        return timed

    def patch(self, owner, attr: str, name: str, on_return=None) -> None:
        """Replace ``owner.attr`` (a module global or a class method) by a
        timed wrapper that reports as ``name``."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, self._wrap(name, original, on_return))
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summaries ---------------------------------------------------------

    def calls(self, name: str) -> int:
        return len(self.durations.get(name, ()))

    def total_ns(self, name: str) -> int:
        return sum(self.durations.get(name, ()))

    def p50_ns(self, name: str, self_time: bool = False) -> float:
        values = (self.self_durations if self_time else self.durations).get(name)
        return float(statistics.median(values)) if values else 0.0

    def write_spans(self, path: str) -> None:
        """One line per span: id,parent_id,name,start_ns,end_ns."""
        with open(path, "w") as fh:
            fh.write("id,parent_id,name,start_ns,end_ns\n")
            for span in sorted(self.spans):
                fh.write("%d,%d,%s,%d,%d\n" % span)


def install(tracer: Tracer) -> None:
    """Put timers on every layer boundary the per-layer metrics read."""
    from co2learn import bounds, cli, harness, offline, online, pool, streams
    from co2learn.pool import ExpertPool
    from co2learn.rng import CounterRng

    def add_iterations(t, args, kwargs, result):
        t.counts["offline.train_offline.iterations"] += result.iterations

    def add_draws(t, args, kwargs, result):
        t.counts["rng.normals.draws"] += len(result)

    sites = [
        (ExpertPool, "process_labeled", "pool.process_labeled", None),
        (ExpertPool, "predict_unlabeled", "pool.predict_unlabeled", None),
        (ExpertPool, "rollover", "pool.rollover", None),
        (pool, "loss", "losses.loss", None),
        (harness, "loss", "losses.loss", None),
        (pool, "grad_loss", "losses.grad_loss", None),
        (harness, "grad_loss", "losses.grad_loss", None),
        (offline, "batch_mean_grad", "losses.batch_mean_grad", None),
        (harness, "batch_mean_grad", "losses.batch_mean_grad", None),
        (online, "project_to_ball", "geometry.project_to_ball", None),
        (offline, "project_to_ball", "geometry.project_to_ball", None),
        (harness, "project_to_ball", "geometry.project_to_ball", None),
        (pool, "update_weights", "meta.update_weights", None),
        (pool, "combine", "meta.combine", None),
        (pool, "ogd_step", "online.ogd_step", None),
        (harness, "ogd_step", "online.ogd_step", None),
        (pool, "train_offline", "offline.train_offline", add_iterations),
        (harness, "erm_oracle", "harness.erm_oracle", None),
        (cli, "run_experiment", "harness.run_experiment", None),
        (cli, "emit_reports", "harness.emit_reports", None),
        (harness, "generate", "streams.generate", None),
        (streams, "generate", "streams.generate", None),
        (harness, "fresh_proxy_samples", "streams.fresh_proxy_samples", None),
        (streams, "parse_libsvm", "streams.parse_libsvm", None),
        (streams, "make_multidist", "streams.make_multidist", None),
        (CounterRng, "normals", "rng.normals", add_draws),
        (CounterRng, "shuffle", "rng.shuffle", None),
        (bounds, "estimate_eigenvalues", "bounds.estimate_eigenvalues", None),
        (bounds, "bound_report", "bounds.bound_report", None),
        (cli, "main", "cli.main", None),
    ]
    for owner, attr, name, on_return in sites:
        tracer.patch(owner, attr, name, on_return)


def layer_metrics(t: Tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit)."""
    us, ms, s = 1e-3, 1e-6, 1e-9
    return {
        "pool.process_labeled.calls": (t.calls("pool.process_labeled"), "count"),
        "pool.process_labeled.us_p50": (t.p50_ns("pool.process_labeled") * us, "us"),
        "pool.process_labeled.self_us_p50": (t.p50_ns("pool.process_labeled", True) * us, "us"),
        "pool.predict_unlabeled.us_p50": (t.p50_ns("pool.predict_unlabeled") * us, "us"),
        "pool.rollover.ms_p50": (t.p50_ns("pool.rollover") * ms, "ms"),
        "pool.rollover.self_ms_p50": (t.p50_ns("pool.rollover", True) * ms, "ms"),
        "losses.loss.calls": (t.calls("losses.loss"), "count"),
        "losses.grad_loss.calls": (t.calls("losses.grad_loss"), "count"),
        "losses.loss.ms_sum": (t.total_ns("losses.loss") * ms, "ms"),
        "losses.batch_mean_grad.calls": (t.calls("losses.batch_mean_grad"), "count"),
        "losses.batch_mean_grad.ms_sum": (t.total_ns("losses.batch_mean_grad") * ms, "ms"),
        "geometry.project_to_ball.calls": (t.calls("geometry.project_to_ball"), "count"),
        "meta.update_weights.calls": (t.calls("meta.update_weights"), "count"),
        "meta.update_weights.us_p50": (t.p50_ns("meta.update_weights") * us, "us"),
        "meta.combine.calls": (t.calls("meta.combine"), "count"),
        "online.ogd_step.calls": (t.calls("online.ogd_step"), "count"),
        "online.ogd_step.us_p50": (t.p50_ns("online.ogd_step") * us, "us"),
        "offline.train_offline.calls": (t.calls("offline.train_offline"), "count"),
        "offline.train_offline.iterations": (t.counts["offline.train_offline.iterations"], "count"),
        "offline.train_offline.ms_sum": (t.total_ns("offline.train_offline") * ms, "ms"),
        "harness.erm_oracle.calls": (t.calls("harness.erm_oracle"), "count"),
        "harness.erm_oracle.grad_evals": (
            t.child_calls[("harness.erm_oracle", "losses.batch_mean_grad")], "count"),
        "harness.erm_oracle.ms_sum": (t.total_ns("harness.erm_oracle") * ms, "ms"),
        "harness.run_experiment.s": (t.total_ns("harness.run_experiment") * s, "s"),
        "harness.emit_reports.ms": (t.total_ns("harness.emit_reports") * ms, "ms"),
        "streams.generate.ms_sum": (t.total_ns("streams.generate") * ms, "ms"),
        "streams.fresh_proxy_samples.calls": (t.calls("streams.fresh_proxy_samples"), "count"),
        "streams.fresh_proxy_samples.ms_sum": (t.total_ns("streams.fresh_proxy_samples") * ms, "ms"),
        "streams.parse_libsvm.ms": (t.total_ns("streams.parse_libsvm") * ms, "ms"),
        "streams.make_multidist.ms": (t.total_ns("streams.make_multidist") * ms, "ms"),
        "rng.normals.draws": (t.counts["rng.normals.draws"], "count"),
        "rng.normals.ms_sum": (t.total_ns("rng.normals") * ms, "ms"),
        "rng.shuffle.ms_sum": (t.total_ns("rng.shuffle") * ms, "ms"),
        "bounds.estimate_eigenvalues.ms_sum": (t.total_ns("bounds.estimate_eigenvalues") * ms, "ms"),
        "bounds.bound_report.ms_sum": (t.total_ns("bounds.bound_report") * ms, "ms"),
        "cli.main.s": (t.total_ns("cli.main") * s, "s"),
    }
