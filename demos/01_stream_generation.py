"""Build a drifting multi-distributional stream and look inside it.

A stream is G intervals of B samples each. Every interval draws from its
own pair of class-conditional Gaussians; the class means take a random
walk between intervals, so no two intervals share a distribution. All
features are conditioned into the unit ball after sampling.
"""

import os
import tempfile

import numpy as np

from co2learn import StreamSpec, dump_stream, gen_synthetic

spec = StreamSpec(G=6, B=100, dim=2, seed=42, drift_std=0.3)
intervals = gen_synthetic(spec)

print(f"stream: {spec.G} intervals x {spec.B} samples, dim {spec.dim}, seed {spec.seed}")
print(f"{'g':>3} {'mu_pos':>20} {'mu_neg':>20} {'|x| max':>8} {'+1':>4} {'-1':>4}")
for buf in intervals:
    mp, mn = buf.class_means
    norms = np.linalg.norm(buf.X, axis=1)
    print(f"{buf.interval_index:>3} [{mp[0]:+.3f} {mp[1]:+.3f}]      "
          f"[{mn[0]:+.3f} {mn[1]:+.3f}]      {norms.max():>8.4f} "
          f"{int((buf.y == 1).sum()):>4} {int((buf.y == -1).sum()):>4}")

# The mean drift between intervals is what makes the stream nonstationary:
drift = [float(np.linalg.norm(b.class_means - a.class_means))
         for a, b in zip(intervals, intervals[1:])]
print("\nmean-drift magnitudes between consecutive intervals:")
print("  " + "  ".join(f"{d:.3f}" for d in drift))

# Streams dump to a plain CSV (g,t,y,x1,...,xdim) at 17 significant digits,
# so numpy reads them back exactly.
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "stream.csv")
    dump_stream(intervals, path)
    back = np.loadtxt(path, delimiter=",", ndmin=2)
identical = (np.array_equal(back[:, 2], np.concatenate([b.y for b in intervals]))
             and np.array_equal(back[:, 3:], np.vstack([b.X for b in intervals])))
print(f"\nCSV round-trip exact: {identical}")

# Identical spec -> identical stream, byte for byte. Reproducibility is a
# property of the spec alone (counter-based generator, substream per
# interval), not of any global RNG state.
again = gen_synthetic(spec)
print(f"regenerated stream identical: "
      f"{all(np.array_equal(a.X, b.X) for a, b in zip(intervals, again))}")
