"""The program names and state that the benchmark under ``bench/`` relies on.

``bench/tracing.py`` puts timers on module globals and methods by name, and
``bench/workloads.py`` drives the pool directly and reads its state between
calls. These tests run both against the current code, so a rename or a
change of the pool's public state fails here rather than in a benchmark run.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from co2learn.losses import LossSpec
from co2learn.pool import ExpertPool
from co2learn.streams import StreamSpec, gen_synthetic

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(BENCH))
    try:
        import checks
        import tracing
        import workloads
        yield tracing, workloads, checks
    finally:
        sys.path.remove(str(BENCH))


def current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_every_traced_name_resolves_and_comes_off(bench):
    tracing, _, _ = bench
    tracer = tracing.Tracer()
    tracing.install(tracer)  # a name that no longer exists raises here
    try:
        patched = list(tracer._patches)
        spec = LossSpec.create(D=1.0, R=1.0, dim=2)
        pool = ExpertPool(spec=spec, B=5, K_max=2)
        pool.process_labeled(gen_synthetic(StreamSpec(G=1, B=5, dim=2, seed=1))[0].samples[0])
    finally:
        tracer.restore()
    assert len(patched) > 0 and tracer.calls("pool.process_labeled") == 1
    for owner, attr, original in patched:
        assert current(owner, attr) is original, attr


def test_pool_pass_gives_what_the_benchmark_reads_and_checks(bench):
    _, workloads, checks = bench
    G, B, dim, k_max = 3, 20, 3, 2
    spec = LossSpec.create(D=checks.D, R=checks.R, dim=dim)
    stream = [(b, b.samples) for b in gen_synthetic(StreamSpec(G=G, B=B, dim=dim, seed=5))]
    queries = list(np.random.default_rng(0).uniform(-0.5, 0.5, size=(7, dim)))
    pool = ExpertPool(spec=spec, B=B, K_max=k_max, strategy="weight")
    log = workloads.PoolLog(replay_intervals=range(1, G + 1))

    n = workloads.drive(pool, stream, queries, workloads.Latencies(), log)

    assert n == G * B
    assert sorted(log.snapshots) == sorted(log.rollovers) == list(range(1, G + 1))
    intervals = [(b.X, b.y) for b, _ in stream]
    assert checks.check_pool_log(log, intervals, queries, workloads.QUERIES_PER_STEP,
                                 k_max) == []
