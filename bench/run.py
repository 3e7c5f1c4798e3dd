"""Benchmark entry point for co2learn.

    python3 bench/run.py --workload {desk,wide,online} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``. With ``--trace 0`` the last line of standard output is one JSON
object with the end-to-end metrics, every timing in reference seconds (see
``hostspeed.py``; the wall-clock figures go to standard error); with ``--trace 1`` the workload does one
fixed round under timers on every layer boundary (see ``tracing.py``) and the
object holds the per-layer metrics instead. Outputs and spans go under
``.bench_out/<workload>/``. See ``bench/README.md``.
"""

import os
import sys

# One BLAS thread, set before numpy is first imported: multithreaded
# OpenBLAS on a shared two-CPU machine makes timings drift.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SETUP_SAMPLES = 5
REF_SETUP_SECONDS = 0.05  # the reference slices before and after each setup
# The reference each timing follows (see hostspeed.py), by the kind of work
# in it in the traced run. On wide the setup draws a 10 000 x 200 stream,
# the command is mostly the ERM oracle and the proxy draws, and a rollover
# trains on a 2000 x 200 interval: arithmetic and interpreter overhead
# mixed. Every other timing is mostly small numpy calls and Python.
MIXED = {"wide": ("setup_s", "samples_per_s", "rollover_ms_mean")}


def _kind(workload, metric):
    return "mixed" if metric in MIXED.get(workload, ()) else "scalar"


def _import_program():
    """Import co2learn from this checkout's src/ and nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "co2learn", "__init__.py")):
        sys.exit(f"bench: no co2learn sources under {src}")
    sys.path[:0] = [src, BENCH_DIR]
    import co2learn
    import workloads

    if not os.path.abspath(co2learn.__file__).startswith(src + os.sep):
        sys.exit(f"bench: co2learn imported from {co2learn.__file__}, not {src}")
    return workloads


def _setup(args, out_dir):
    """Import the program and build the workload's inputs, with the host's
    speed taken before, during and after. numpy is imported first, for the
    reference kernels, so its own import is not part of the setup time.
    Returns the workload and the setup's reference and wall seconds."""
    import hostspeed

    ref = hostspeed.Reference()
    ref.slice(REF_SETUP_SECONDS)

    def build():
        workload = _import_program().make(args.workload, args.seed, out_dir)
        workload.setup()
        return workload

    workload, seconds = ref.during(build)
    ref.slice(REF_SETUP_SECONDS)
    return workload, seconds * ref.factor(_kind(args.workload, "setup_s")), seconds


def _setup_probe(args):
    """Set up once more in a fresh process (import included); returns the
    setup's reference seconds and wall seconds."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return tuple(map(float, out.stdout.strip().splitlines()[-1].split()))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=["desk", "wide", "online"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    out_dir = os.path.join(ROOT, ".bench_out", args.workload)
    if args.setup_probe:
        out_dir = os.path.join(out_dir, f"setup-probe-{os.getpid()}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)

    if args.setup_probe:
        _, ref_seconds, seconds = _setup(args, out_dir)
        shutil.rmtree(out_dir, ignore_errors=True)
        print(repr(ref_seconds), repr(seconds))
        return 0

    if args.trace:
        return _traced(args, out_dir)

    workload, *first_setup = _setup(args, out_dir)
    setup_times = [tuple(first_setup)]

    workload.warmup()
    import hostspeed

    pool_ref = workload.pool_ref = hostspeed.Reference()
    workload.command_ref = hostspeed.Reference()
    # Rounds repeat until the run length is used up. Every figure is gathered
    # over the whole run, and the setup probes are spread evenly over it, so
    # that a slow stretch of the shared host weighs on each figure alike.
    samples = 0
    busy = 0.0
    rounds = 0
    start = time.perf_counter()
    while True:
        gc.collect()
        n, seconds = workload.round(rounds)
        samples += n
        busy += seconds
        rounds += 1
        elapsed = time.perf_counter() - start
        if len(setup_times) < SETUP_SAMPLES and \
                elapsed >= len(setup_times) * args.seconds / SETUP_SAMPLES:
            setup_times.append(_setup_probe(args))
        if elapsed >= args.seconds:
            break
    while len(setup_times) < SETUP_SAMPLES:
        setup_times.append(_setup_probe(args))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    errors = workload.check()
    lat = workload.lat
    wall = {
        "setup_s": statistics.median(wall for _, wall in setup_times),
        "samples_per_s": samples / busy,
        "step_us_mean": lat.step_ns / lat.steps * 1e-3,
        "predict_us_mean": lat.predict_ns / lat.predicts * 1e-3,
        "rollover_ms_mean": lat.rollover_ns / lat.rollovers * 1e-6,
    }
    print("bench: wall clock: " + ", ".join(f"{k} {v:.6g}" for k, v in wall.items())
          + "; reference calls/s " + ", ".join(
              f"{kind} {r.rate(kind):.6g}{where}"
              for r, where in ((workload.round_ref, ""), (pool_ref, " in pool"))
              for kind in r.kernels), file=sys.stderr)

    def factor(name, source):
        return source.factor(_kind(args.workload, name))

    metrics = {
        "setup_s": (statistics.median(r for r, _ in setup_times), "s"),
        "samples_per_s": (wall["samples_per_s"] / factor("samples_per_s", workload.round_ref),
                          "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    for name, unit in (("step_us_mean", "us"), ("predict_us_mean", "us"),
                       ("rollover_ms_mean", "ms")):
        metrics[name] = (wall[name] * factor(name, pool_ref), unit)
    return _report(errors, workload.attempted, workload.failed(), metrics)


def _traced(args, out_dir):
    import hostspeed
    import tracing

    workloads = _import_program()
    workload = workloads.make(args.workload, args.seed, out_dir)
    # Warm up on the workload's own inputs before any timer is installed;
    # setup runs again under the timers so its layers are measured.
    workload.setup()
    workload.warmup()
    workload = workloads.make(args.workload, args.seed, out_dir)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        gc.collect()
        workload.setup()
        samples, busy = workload.round(0)
    finally:
        tracer.restore()
    ref = hostspeed.Reference()
    ref.follow(busy)
    tracer.write_spans(os.path.join(out_dir, "spans.csv"))
    errors = workload.check()
    metrics = tracing.layer_metrics(tracer)
    metrics["traced.samples_per_s"] = (
        samples / busy / ref.factor(_kind(args.workload, "samples_per_s")), "1/s")
    return _report(errors, workload.attempted, workload.failed(), metrics)


def _report(errors, attempted, failed, metrics):
    for e in errors:
        print(f"bench: check failed: {e}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
