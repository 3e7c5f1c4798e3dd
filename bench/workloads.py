"""The benchmark's three workloads.

desk    the paper's experiment at the desk shape (synthetic, G 15 x B 200,
        dim 2, K_max 5, weight eviction, cold start, w* proxy on), run as
        the ``run`` command in-process through ``co2learn.cli.main``, three
        seeds per command, as many commands as the run length allows.
        Per-sample Python overhead dominates it.
wide    the same command at dim 200, B 2000, G 5, one seed per command.
        Arithmetic dominates it: the ERM oracle, proxy draws and fits.
online  the pool driven directly as a deployed learner on noised streams
        made from LIBSVM text the benchmark writes: 40 intervals x 250
        samples, dim 20, 8 nonzeros per row, K_max 8, fifo eviction, warm
        start, four predictions on held-out points per labeled sample and a
        rollover at each interval end. No oracle and no reports.

On desk and wide each round is one ``run`` command, which alone gives the
sample rate, followed by one pass of the pool driven directly, as on
``online``, over the stream of each of the command's seeds; the pool
latencies come from these passes. They time the pool's public calls from the caller,
so they still measure the pool if the experiment stops calling it per
sample, and they are spread over the whole run like the commands.

Every input is made from the benchmark seed: desk and wide use stream
seeds ``1000 * seed + i``; online draws its data and held-out points from
numpy's generator seeded with ``seed`` and uses stream seeds
``1000 * seed + r``.
"""

from __future__ import annotations

import contextlib
import io
from array import array
import json
import os
import time
from dataclasses import dataclass

import numpy as np

import checks
from co2learn import cli, streams
from co2learn.losses import LossSpec
from co2learn.pool import ExpertPool

QUERIES_PER_STEP = 4
HELD_OUT = 1000


@dataclass(frozen=True)
class Shape:
    G: int
    B: int
    dim: int
    k_max: int
    strategy: str
    init: str
    seeds_per_round: int = 1   # seeds per run command (desk, wide)
    nnz: int = 0               # nonzeros per LIBSVM row (online)


SHAPES = {
    "desk": Shape(G=15, B=200, dim=2, k_max=5, strategy="weight", init="cold",
                  seeds_per_round=3),
    "wide": Shape(G=5, B=2000, dim=200, k_max=5, strategy="weight", init="cold",
                  seeds_per_round=1),
    "online": Shape(G=40, B=250, dim=20, k_max=8, strategy="fifo", init="warm",
                    nnz=8),
}


class Latencies:
    """Running totals of the pool calls' nanoseconds, so that memory does
    not grow with the number of rounds a run manages."""

    def __init__(self):
        self.step_ns = 0
        self.steps = 0
        self.predict_ns = 0
        self.predicts = 0
        self.rollover_ns = 0
        self.rollovers = 0


class PoolLog:
    """What one pass of the pool emitted on the intervals chosen for replay,
    the state at their start, and every rollover's outcome."""

    def __init__(self, replay_intervals=()):
        self.replay_intervals = set(replay_intervals)
        self.snapshots: dict[int, dict] = {}
        self.rollovers: dict[int, dict] = {}
        self.loss_meta: dict[int, array] = {}
        self.predictions: dict[int, array] = {}

    def snapshot(self, pool, g):
        self.snapshots[g] = {
            "offline": [w.copy() for w in pool.offline], "w": pool.online.w.copy(),
            "t": pool.online.t, "alpha": pool.meta.alpha.copy(), "nu": pool.meta.nu,
        }
        self.loss_meta[g] = array("d")
        self.predictions[g] = array("b")

    def rollover(self, pool, rec):
        self.rollovers[rec.g_completed] = {
            "w": rec.result.w, "v": rec.anchor.v, "weighted_loss": rec.anchor.weighted_loss,
            "gamma": rec.result.gamma, "K": rec.K, "newest": pool.offline[-1].copy(),
        }


def drive(pool, stream, queries, lat: Latencies, log: PoolLog, ref=None) -> int:
    """One pass of a deployed learner: per labeled sample one update and
    QUERIES_PER_STEP predictions, a rollover at each interval end. Every
    call is timed by the caller. After each interval the host-speed
    reference ``ref``, if given, follows it. Returns the labeled samples
    processed."""
    clock = time.perf_counter_ns
    step_ns = 0
    predict_ns = 0
    n_queries = len(queries)
    qi = 0
    n = 0
    for g, (buf, samples) in enumerate(stream, start=1):
        interval_start = clock()
        replay = g in log.replay_intervals
        if replay:
            log.snapshot(pool, g)
            loss_meta, predictions = log.loss_meta[g], log.predictions[g]
        for s in samples:
            t0 = clock()
            rec = pool.process_labeled(s)
            step_ns += clock() - t0
            if replay:
                loss_meta.append(rec.loss_meta)
            for _ in range(QUERIES_PER_STEP):
                x = queries[qi % n_queries]
                qi += 1
                t0 = clock()
                p = pool.predict_unlabeled(x)
                predict_ns += clock() - t0
                if replay:
                    predictions.append(p)
        n += len(samples)
        t0 = clock()
        rec = pool.rollover(buf)
        lat.rollover_ns += clock() - t0
        log.rollover(pool, rec)
        if ref is not None:
            ref.follow((clock() - interval_start) * 1e-9)
    lat.step_ns += step_ns
    lat.steps += n
    lat.predict_ns += predict_ns
    lat.predicts += n * QUERIES_PER_STEP
    lat.rollovers += len(stream)
    return n


def held_out_queries(rng, n, dim):
    X = rng.normal(size=(n, dim))
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    return list(X / np.maximum(norms, 1.0))


def replay_intervals(shape):
    return sorted({g for g in (1, 2, shape.k_max, shape.k_max + 1, shape.G) if g <= shape.G})


class _PoolDriven:
    """Shared by all workloads: one pass of a fresh pool per round, each
    round over its own stream, and the checks on those passes."""

    def __init__(self, name, seed, out_dir):
        self.name = name
        self.shape = SHAPES[name]
        self.seed = seed
        self.out_dir = out_dir
        self.lat = Latencies()
        self.logs: list[tuple[int, PoolLog]] = []  # (stream seed, log)
        # host-speed references (hostspeed.py) interleaved with the pool
        # passes and with the run commands; the timed part of a round uses
        # round_ref
        self.pool_ref = None
        self.command_ref = None
        self.attempted = 0

    def _new_pool(self):
        return ExpertPool(spec=self.spec, B=self.shape.B, K_max=self.shape.k_max,
                          strategy=self.shape.strategy, init_policy=self.shape.init)

    def pass_stream(self, stream_seed):
        """A pool pass's stream as (buffer, samples) pairs. The first one is
        built in setup; later ones are built when needed and not kept."""
        if stream_seed == self.stream0_seed:
            return self.stream0
        return [(b, b.samples) for b in self._stream(stream_seed)]

    def _set_stream0(self, stream_seed):
        self.stream0_seed = stream_seed
        self.stream0 = [(b, b.samples) for b in self._stream(stream_seed)]

    def _drive_pass(self, stream_seed, stream):
        log = PoolLog(replay_intervals(self.shape))
        n = drive(self._new_pool(), stream, self.queries, self.lat, log, self.pool_ref)
        self.logs.append((stream_seed, log))
        self.attempted += n
        return n

    def _warm_pool(self):
        buf, samples = self.stream0[0]
        pool = self._new_pool()
        for s in samples:
            pool.process_labeled(s)
            pool.predict_unlabeled(self.queries[0])
        pool.rollover(buf)

    def _check_pool(self):
        errors = []
        for stream_seed, log in self.logs:
            intervals = [(b.X, b.y) for b, _ in self.pass_stream(stream_seed)]
            errors += [f"pool pass on stream {stream_seed}: {e}" for e in checks.check_pool_log(
                log, intervals, self.queries, QUERIES_PER_STEP, self.shape.k_max)]
        return errors


class ExperimentWorkload(_PoolDriven):
    """desk and wide: per round one ``run`` command, then one pool pass over
    the stream of each of the command's seeds."""

    def __init__(self, name, seed, out_dir):
        super().__init__(name, seed, out_dir)
        self.runs: list[tuple[list[int], str, int]] = []

    @property
    def round_ref(self):
        return self.command_ref

    def round_seeds(self, r):
        n = self.shape.seeds_per_round
        return [1000 * self.seed + r * n + i for i in range(n)]

    def setup(self):
        sh = self.shape
        self.config = os.path.join(self.out_dir, "config.json")
        with open(self.config, "w") as fh:
            json.dump({"stream": {"G": sh.G, "B": sh.B, "dim": sh.dim, "mode": "synthetic"},
                       "k_max": sh.k_max, "strategy": sh.strategy, "init": sh.init,
                       "wstar_proxy": True}, fh)
        self.spec = LossSpec.create(D=checks.D, R=checks.R, dim=sh.dim)
        self._set_stream0(self.round_seeds(0)[0])
        self.queries = held_out_queries(np.random.default_rng(self.seed), HELD_OUT, sh.dim)

    def _stream(self, stream_seed):
        sh = self.shape
        return streams.generate(streams.StreamSpec(G=sh.G, B=sh.B, dim=sh.dim,
                                                   seed=stream_seed))

    def _run_command(self, seeds, out, extra=()):
        argv = ["run", "--config", self.config, "--seeds", ",".join(map(str, seeds)),
                "--out", out, *extra]
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def warmup(self):
        self._run_command(self.round_seeds(0)[:1], os.path.join(self.out_dir, "warmup"),
                          ("--g", "2", "--b", "50"))
        self._warm_pool()

    def round(self, r):
        """One run command, which alone is timed for the sample rate, then
        one pool pass per seed. Returns the command's labeled samples and
        its seconds."""
        seeds = self.round_seeds(r)
        out = os.path.join(self.out_dir, f"round-{r}")
        if self.command_ref is not None:
            rc, seconds = self.command_ref.during(lambda: self._run_command(seeds, out))
        else:
            t0 = time.perf_counter()
            rc = self._run_command(seeds, out)
            seconds = time.perf_counter() - t0
        self.runs.append((seeds, out, rc))
        n = len(seeds) * self.shape.G * self.shape.B
        self.attempted += n
        for seed in seeds:
            self._drive_pass(seed, self.pass_stream(seed))
        return n, seconds

    def failed(self):
        return sum(len(seeds) for seeds, _, rc in self.runs if rc != 0) \
            * self.shape.G * self.shape.B

    def check(self):
        sh = self.shape
        errors = []
        for i, (seeds, out, rc) in enumerate(self.runs):
            if rc != 0:
                continue
            by_seed = {}
            for seed in seeds:
                spec = streams.StreamSpec(G=sh.G, B=sh.B, dim=sh.dim, seed=seed)
                by_seed[seed] = [(b.X, b.y) for b in streams.generate(spec)]
            scipy_at = [(seeds[0], 1), (seeds[0], sh.G)] if i == 0 else []
            errors += [f"{out}: {e}" for e in
                       checks.check_run_reports(out, seeds, sh, by_seed, scipy_at)]
        return errors + self._check_pool()


class OnlineWorkload(_PoolDriven):
    """online: per round one pass of a fresh pool over a stream made from the
    parsed LIBSVM samples with stream seed ``1000 * seed + r``."""

    def setup(self):
        sh = self.shape
        rng = np.random.default_rng(self.seed)
        n = sh.G * sh.B + sh.B
        w_true = rng.normal(size=sh.dim)
        cols = np.sort(rng.random((n, sh.dim)).argsort(axis=1)[:, :sh.nnz], axis=1)
        vals = 0.3 * rng.normal(size=(n, sh.nnz))
        X = np.zeros((n, sh.dim))
        np.put_along_axis(X, cols, vals, axis=1)
        y = np.where(X @ w_true >= 0, 1, -1) * np.where(rng.random(n) < 0.1, -1, 1)
        lines = [" ".join([f"{label:+d}"] + [f"{j + 1}:{v!r}" for j, v in zip(c, row)])
                 for label, c, row in zip(y.tolist(), cols.tolist(), vals.tolist())]
        path = os.path.join(self.out_dir, "data.libsvm")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with open(path) as fh:
            parsed = streams.parse_libsvm(fh.read(), dim=sh.dim)
        self.written = (X, y)
        self.parsed = parsed
        self._set_stream0(self.round_seed(0))
        self.spec = LossSpec.create(D=checks.D, R=checks.R, dim=sh.dim)
        self.queries = held_out_queries(rng, HELD_OUT, sh.dim)

    @property
    def round_ref(self):
        return self.pool_ref

    def round_seed(self, r):
        return 1000 * self.seed + r

    def _stream(self, stream_seed):
        sh = self.shape
        spec = streams.StreamSpec(G=sh.G, B=sh.B, dim=sh.dim, seed=stream_seed,
                                  mode="libsvm_noised")
        return streams.generate(spec, self.parsed)

    def warmup(self):
        self._warm_pool()

    def round(self, r):
        """One pass, timed without the reference slices inside it; its
        stream is built before the clock starts."""
        stream = self.pass_stream(self.round_seed(r))
        spent = self.pool_ref.spent if self.pool_ref else 0.0
        t0 = time.perf_counter()
        n = self._drive_pass(self.round_seed(r), stream)
        seconds = time.perf_counter() - t0
        if self.pool_ref:
            seconds -= self.pool_ref.spent - spent
        return n, seconds

    def failed(self):
        return 0

    def check(self):
        X, y = self.written
        errors = []
        if (len(self.parsed) != len(y)
                or not np.array_equal(np.array([s.x for s in self.parsed]), X)
                or [s.y for s in self.parsed] != y.tolist()):
            errors.append("parse_libsvm did not return the matrix that was written")
        return errors + self._check_pool()


def make(name, seed, out_dir):
    cls = OnlineWorkload if name == "online" else ExperimentWorkload
    return cls(name, seed, out_dir)
