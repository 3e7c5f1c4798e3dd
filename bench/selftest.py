"""Quick self-test of the benchmark at tiny sizes (a few seconds).

    python3 bench/selftest.py

Runs every workload at a tiny shape through setup, rounds, probe and
checks; shows that the checks catch corrupted outputs; shows that the
traced run's counts repeat exactly and that the timers come off again;
shows that the host-speed reference's slices are taken out of the time
they interrupt; and shows that the benchmark refuses to run without the
program's sources.
Not part of the repository's test suite.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import replace

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "desk": replace(workloads.SHAPES["desk"], G=3, B=30, k_max=2, seeds_per_round=2),
    "wide": replace(workloads.SHAPES["wide"], G=2, B=60, dim=12),
    "online": replace(workloads.SHAPES["online"], G=4, B=20, dim=6, nnz=3, k_max=3),
}
OUT = os.path.join(ROOT, ".bench_out", "selftest")


def tiny_workload(name, seed=3):
    workloads.SHAPES[name] = TINY[name]
    out = os.path.join(OUT, name)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    w = workloads.make(name, seed, out)
    w.setup()
    return w


def run_rounds(w, rounds=2):
    w.warmup()
    return sum(w.round(r)[0] for r in range(rounds))


def test_workloads_pass_their_checks():
    for name in TINY:
        w = tiny_workload(name)
        assert run_rounds(w) > 0
        assert w.failed() == 0, name
        assert w.check() == [], (name, w.check())


def test_checks_catch_corrupted_reports():
    w = tiny_workload("desk")
    run_rounds(w, rounds=1)
    seeds, out, _ = w.runs[0]
    path = os.path.join(out, "steps.csv")
    with open(path) as fh:
        lines = fh.read().splitlines()
    fields = lines[5].split(",")
    fields[4] = repr(float(fields[4]) * (1 + 1e-9))  # one loss_ogd, off by 1e-9 relative
    lines[5] = ",".join(fields)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    assert any("loss_ogd" in e for e in w.check())

    summary_path = os.path.join(out, "summary.json")
    with open(summary_path) as fh:
        summary = json.load(fh)
    summary["per_seed"][0]["intervals"][0]["erm_objective"] += 1e-5
    with open(summary_path, "w") as fh:
        json.dump(summary, fh)
    assert any("scipy" in e for e in w.check())


def test_checks_catch_corrupted_pool_outputs():
    w = tiny_workload("online")
    run_rounds(w, rounds=1)
    log = w.logs[0][1]
    cases = [
        (log.loss_meta[2], 3, lambda v: v + 1e-9, "loss_meta"),
        (log.predictions[2], 7, lambda v: -v, "prediction"),
    ]
    for seq, i, corrupt, word in cases:
        kept = seq[i]
        seq[i] = corrupt(kept)
        assert any(word in e for e in w.check()), word
        seq[i] = kept
    rec = log.rollovers[2]
    rec["K"] += 1
    assert any("K=" in e for e in w.check())
    rec["K"] -= 1
    rec["w"] = checks.project(rec["w"] + 1e-3)
    assert any("mapping norm" in e for e in w.check())


def test_trace_counts_repeat_and_timers_come_off():
    from co2learn import harness, pool

    original = (pool.loss, harness.erm_oracle)
    counts = []
    for _ in range(2):
        w = tiny_workload("desk")
        t = tracing.Tracer()
        tracing.install(t)
        try:
            w.round(0)
        finally:
            t.restore()
        metrics = tracing.layer_metrics(t)
        counts.append({k: v for k, (v, unit) in metrics.items() if unit == "count"})
        assert (pool.loss, harness.erm_oracle) == original
    assert counts[0] == counts[1]
    sh = TINY["desk"]
    # per seed: G interval ERMs, G proxy fits in the interval metrics and
    # G - 1 more in the rollover metrics
    assert counts[0]["harness.erm_oracle.calls"] == sh.seeds_per_round * (3 * sh.G - 1)
    assert counts[0]["pool.process_labeled.calls"] == \
        2 * sh.seeds_per_round * sh.G * sh.B
    assert all(np.isfinite(v) for v, _ in metrics.values())


def test_reference_slices_are_taken_out_and_the_timer_comes_off():
    ref = hostspeed.Reference()
    w = tiny_workload("desk")
    w.warmup()
    w.command_ref = w.pool_ref = ref
    assert w.round(0)[0] > 0 and w.check() == []
    assert ref.calls["scalar"] > 0 and ref.calls["batch"] > 0

    def busy():
        end = time.perf_counter() + 0.5
        while time.perf_counter() < end:
            pass
        return "done"

    spent = ref.spent
    result, seconds = ref.during(busy)
    # about a tenth of the half second went to the slices and is taken out
    assert result == "done" and ref.spent > spent
    assert abs(seconds + (ref.spent - spent) - 0.5) < 0.05, seconds
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is signal.SIG_DFL
    assert ref.factor("scalar") > 0 and ref.factor("batch") > 0


def test_refuses_to_run_without_sources():
    bare = os.path.join(OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "online", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert "{" not in out.stdout


def main():
    tests = [(name, fn) for name, fn in globals().items() if name.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok  {name}")
    shutil.rmtree(OUT, ignore_errors=True)
    print(f"{len(tests)} self-tests passed")


if __name__ == "__main__":
    main()
