"""Evaluate every closed-form guarantee on measured quantities.

The calculators are pure functions; the harness feeds them the measured
regret of the best maintained expert, the anchor statistics of the last
rollover (with ``wstar_proxy`` on, its distance from the interval's
population optimum w*, which ``co2learn.population`` computes by
quadrature), and moment eigenvalues estimated from the final interval.
"""

import json

from co2learn import (
    ExperimentConfig,
    StreamSpec,
    bound_report,
    estimate_eigenvalues,
    run_experiment,
)
from co2learn.streams import gen_synthetic

# the config's stream takes the first of its seeds, so it is seed 1's stream
config = ExperimentConfig(stream=StreamSpec(G=8, B=120, dim=2), seeds=(1,), wstar_proxy=True)
report = run_experiment(config)
run = report.runs[0]

# the harness already assembled a report for the final interval:
print("harness-assembled bound report (final interval):")
print(json.dumps(run.bound_report, indent=2))

# the same calculators can be driven by hand; here with a pessimistic
# regret_KE to see the K-condition tighten
final = run.intervals[-1]
inputs = config.bound_inputs(
    estimate_eigenvalues(gen_synthetic(config.stream)[-1].X),
    gamma=run.rollovers[-1].gamma, regret_KE=5.0, weighted_loss=0.4,
)
pessimistic = bound_report(inputs)
print("\nwith regret_KE forced to 5.0:")
print(f"  admissible expert count log K <= {pessimistic['k_condition_log_rhs']:.2f} "
      f"(measured run had regret_KE = {final.regret_ke:.3f} "
      f"and log K <= {run.bound_report['k_condition_log_rhs']:.2f})")
print(f"  excess-risk bound: {pessimistic['excess_risk_bound']:.3f}")
