"""Measure the coupling advantage: early loss and horizon regret vs OGD.

Per seed, the harness runs the coupled learner across the whole stream and
a bare OGD on the identical sample sequence. The per-interval regret
comparator is the empirical minimizer of that interval (the ERM oracle).
At a fresh interval's start the coupled learner leans on its offline
experts while a from-scratch OGD is still unreliable; by the horizon its
regret should not trail the online expert's.
"""

import numpy as np

from co2learn import ExperimentConfig, StreamSpec, run_experiment

config = ExperimentConfig(
    stream=StreamSpec(G=10, B=150, dim=2),
    seeds=tuple(range(1, 9)),
    K_max=5,
    wstar_proxy=False,
)
report = run_experiment(config)

print("final interval per seed (T = B = 150):")
print(f"{'seed':>5} {'early co2':>10} {'early ogd':>10} {'regret co2':>11} "
      f"{'regret oe':>10} {'regret stream-ogd':>18}")
for run in report.runs:
    m = run.intervals[-1]
    print(f"{run.seed:>5} {m.early_cum_co2:>10.3f} {m.early_cum_online:>10.3f} "
          f"{m.regret_co2:>11.3f} {m.regret_oe:>10.3f} {m.regret_ogd:>18.3f}")

agg = report.aggregate
print(f"\nearly (t <= {agg['early_t']}) win fraction vs from-scratch OGD: "
      f"{agg['early_win_fraction_vs_scratch_ogd']:.2f}")
print(f"horizon win fraction vs from-scratch OGD: "
      f"{agg['end_win_fraction_vs_scratch_ogd']:.2f}")
print(f"horizon win fraction vs whole-stream OGD: "
      f"{agg['end_win_fraction_vs_stream_ogd']:.2f}")

# every interval also carries its guarantee values; none may be exceeded
worst = max(
    m.regret_co2 - m.co2_bound_worst
    for run in report.runs for m in run.intervals
)
print(f"\nworst coupled-regret slack against the closed-form bound: {worst:.3f} "
      f"(negative = bound satisfied)")

# meta weights at the end of the final interval: how much mass the
# meta-expert kept on the online expert (last entry) vs offline knowledge;
# the last step's row holds them from column 4 on (see SeedRun)
alphas = np.array([run.steps[-1, 4: 4 + run.intervals[-1].K] for run in report.runs])
print(f"mean final weight on the online expert: {alphas[:, -1].mean():.3f}")
