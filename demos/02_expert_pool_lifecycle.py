"""Walk the expert pool through its full lifecycle, interval by interval.

The pool starts with a single online expert (K=1). Each time an interval
completes, it trains an offline expert for that interval (regularized
toward the pool's weighted state), grows K up to K_max, evicts the
lowest-priority expert when full, and restarts the online expert. Within
an interval, the meta-expert reweights everyone per sample.
"""

import numpy as np

from co2learn import ExpertPool, LossSpec, Sample, StreamSpec, gen_synthetic, omega

spec = LossSpec.create(D=1.0, R=1.0, dim=2)
stream_spec = StreamSpec(G=6, B=120, dim=2, seed=7)
stream = gen_synthetic(stream_spec)

pool = ExpertPool(spec=spec, B=stream_spec.B, K_max=4, strategy="weight")

print(f"{'g':>3} {'K':>3} {'nu':>7} {'mean loss':>10} {'final alpha (ascending priority)':>36}")
for buf in stream:
    losses = []
    for i in range(buf.n):
        rec = pool.process_labeled(Sample(x=buf.X[i], y=int(buf.y[i])))
        losses.append(rec.loss_meta)
    alpha = ", ".join(f"{a:.3f}" for a in pool.meta.alpha)
    print(f"{buf.interval_index:>3} {pool.K:>3} {pool.meta.nu:>7.4f} "
          f"{np.mean(losses):>10.4f} [{alpha:>34}]")
    if buf.interval_index < stream_spec.G:
        roll = pool.rollover(buf)
        print(f"      rollover: gamma={roll.result.gamma:.4f} "
              f"weighted_loss={roll.anchor.weighted_loss:.4f} "
              f"omega(new)={omega(roll.result.w, roll.anchor):.5f} "
              f"{'evicted one expert' if roll.evicted is not None else 'pool grew'}")

# Unlabeled predictions use the current weighted-average hypothesis and do
# not consume a labeled slot.
x_probe = np.array([0.4, -0.2])
print(f"\nunlabeled prediction at {x_probe}: {pool.predict_unlabeled(x_probe):+d} "
      f"(t stays {pool.t})")
