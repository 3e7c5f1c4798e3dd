"""Coupled online-offline expert learning for multi-distributional streams.

A stream of G fixed-size intervals with drifting distributions is learned by
a pool of up to K_max experts: one offline expert per completed interval
(trained with a knowledge-transfer regularizer toward the pool's weighted
state) plus an online-gradient-descent expert for the currently filling
interval, combined per sample by an exponentially weighted meta-expert.
The package also ships stream generators, an ERM oracle for regret
measurement, closed-form calculators for the regret/generalization
guarantees, and a CLI harness that records and checks them.
"""

from .bounds import (
    BoundInputs,
    bound_report,
    co2_regret_bounds,
    estimate_eigenvalues,
    excess_risk_bound,
    k_condition,
    meta_regret_bound,
    ogd_regret_bound,
    rademacher_bound,
    transfer_gap_bound,
)
from .errors import (
    BoundViolation,
    ConfigError,
    ConvergenceError,
    DataError,
    StreamFormatError,
)
from .geometry import ProblemConstants, Sample, inner, project_to_ball
from .harness import (
    ExperimentConfig,
    RunReport,
    emit_reports,
    erm_oracle,
    parse_steps_csv,
    run_experiment,
)
from .losses import LossSpec, grad_loss, loss
from .meta import MetaWeights, combine, init_weights, step_size_nu, update_weights
from .offline import (
    Anchor,
    OfflineTrainConfig,
    OfflineTrainResult,
    gamma_lower_bound,
    omega,
    train_offline,
)
from .online import OnlineExpertState, eta, init_online, ogd_step
from .pool import ExpertPool, RolloverRecord, StepRecord, effective_K
from .rng import CounterRng, substream
from .streams import (
    IntervalBuffer,
    StreamSpec,
    condition_norms,
    dump_stream,
    gen_synthetic,
    load_stream,
    make_multidist,
    parse_libsvm,
)

__version__ = "0.1.0"
