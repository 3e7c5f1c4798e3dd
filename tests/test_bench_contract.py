"""The program names and state that the benchmark under ``bench/`` relies on.

``bench/tracing.py`` puts timers on module globals and methods by name, and
``bench/workloads.py`` drives the pool directly, reads its state between
calls, and reads ``.x``/``.y`` of the parsed LIBSVM samples. These tests run
both against the current code, so a rename, a change of the pool's public
state or of the parse's return value fails here rather than in a benchmark
run. The last test runs the deterministic checks of ``bench/selftest.py``:
tiny workloads pass their checks, the checks catch corrupted outputs, and a
traced round's counts repeat, match the harness's call pattern and come off.
The self-test's wall-clock and subprocess checks stay out of this suite.
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


def test_online_inputs_parse_to_the_matrix_that_was_written(bench, tmp_path):
    _, workloads, _ = bench
    workload = workloads.make("online", 1, str(tmp_path))
    workload.setup()
    assert len(workload.parsed) == workload.shape.G * workload.shape.B + workload.shape.B
    assert workload.check() == []


@pytest.fixture(scope="module")
def selftest_module():
    saved = list(sys.path)
    try:
        sys.path.insert(0, str(BENCH))
        import selftest  # puts src/ and bench/ on sys.path itself
        yield selftest
    finally:
        sys.path[:] = saved


@pytest.fixture
def selftest(selftest_module, monkeypatch, tmp_path):
    """The self-test, writing its tiny shapes into a copy of the workload
    table and its outputs under tmp_path."""
    workloads = selftest_module.workloads
    monkeypatch.setattr(workloads, "SHAPES", dict(workloads.SHAPES))
    monkeypatch.setattr(selftest_module, "OUT", str(tmp_path))
    return selftest_module


@pytest.mark.parametrize("check", [
    "test_workloads_pass_their_checks",
    "test_checks_catch_corrupted_reports",
    "test_checks_catch_corrupted_pool_outputs",
    "test_trace_counts_repeat_and_timers_come_off",
])
def test_selftest_check(selftest, check):
    getattr(selftest, check)()
