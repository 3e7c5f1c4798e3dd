"""Turn a LIBSVM dataset into a multi-distributional stream and learn it.

The file is parsed from its sparse text form, shuffled, split into G
blocks of B, and each block gets fresh class-conditional Gaussian noise so
the blocks genuinely differ in distribution. A short coupled run follows.
"""

import os
import tempfile

import numpy as np

from co2learn import (
    ExperimentConfig,
    StreamSpec,
    make_multidist,
    parse_libsvm,
    run_experiment,
)

# a tiny inline dataset in LIBSVM sparse format (two separable-ish classes)
rng = np.random.default_rng(11)
lines = []
for i in range(400):
    y = 1 if i % 2 == 0 else -1
    x1 = 0.4 * y + 0.15 * rng.normal()
    x2 = -0.2 * y + 0.15 * rng.normal()
    lines.append(f"{y} 1:{x1:.5f} 2:{x2:.5f}")
text = "\n".join(lines) + "\n"

samples = parse_libsvm(text, dim=2)
pos = sum(1 for s in samples if s.y == 1)
print(f"parsed {len(samples)} samples, {pos} positive / {len(samples) - pos} negative")

stream_spec = StreamSpec(G=4, B=100, dim=2, seed=5, mode="libsvm_noised", noise_std=0.1)
intervals = make_multidist(samples, stream_spec)
print(f"stream: {len(intervals)} intervals x {intervals[0].n} samples; "
      f"max |x| = {max(np.linalg.norm(b.X, axis=1).max() for b in intervals):.4f}")

# the harness consumes the same stream via a config (it re-parses the file;
# here we just hand it a temp copy)
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "demo.libsvm")
    with open(path, "w") as fh:
        fh.write(text)
    config = ExperimentConfig(
        stream=stream_spec, seeds=(5,), K_max=3, input_path=path, wstar_proxy=False
    )
    report = run_experiment(config)
for m in report.runs[0].intervals:
    print(f"interval {m.g}: K={m.K} regret_co2={m.regret_co2:.3f} "
          f"regret_oe={m.regret_oe:.3f} (bound {m.co2_bound_worst:.2f})")
