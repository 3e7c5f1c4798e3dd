"""Expert-pool lifecycle: per-sample coupling loop and interval rollover.

A pool holds up to K_max - 1 offline experts (priority-ascending, so the
highest-priority expert has the highest index) plus one online expert at
index K, with K = min(G, K_max) and G the number of intervals seen so far.

Each labeled sample runs, in order: collect the K expert advices, output
their weighted average, score every expert and the average on the sample,
update the meta weights with those scores, and only then send the gradient
at the online expert's own iterate to the online expert. The output is
committed before the loss is seen.

When the online interval completes (t = B) the pool rolls over: it builds
the anchor from the final meta weights and the experts' empirical risks on
the completed interval, trains a new offline expert against that anchor,
evicts the lowest-priority offline expert if the pool is full, reorders
survivors by priority, reinitializes the meta weights for the new K, and
restarts the online expert.

Eviction strategies: ``fifo`` keeps insertion order (oldest = lowest
priority); ``weight`` orders the surviving offline experts by their final
meta weights. Either way the newest offline expert gets the highest
priority. Priorities only shape the initial weights, not any guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import Sample, inner
from .losses import LossSpec, batch_losses, batch_mean_grad, batch_mean_loss, check_sample
from .meta import MetaWeights, combine, update_weights
from .offline import Anchor, OfflineTrainResult, default_config, omega, train_offline
from .online import INIT_POLICIES, init_online, ogd_step
from .streams import IntervalBuffer

# Not called here; kept importable because bench/tracing.py patches these names.
from .losses import grad_loss, loss  # noqa: F401

STRATEGIES = ("fifo", "weight")


def effective_K(G: int, K_max: int) -> int:
    """Number of live experts: min(G, K_max)."""
    if G < 1:
        raise ValueError(f"G must be >= 1, got {G}")
    if K_max < 2:
        raise ValueError(f"K_max must be >= 2, got {K_max}")
    return min(G, K_max)


@dataclass(frozen=True)
class StepRecord:
    """Everything observable about one labeled step."""

    g: int
    t: int
    w: np.ndarray
    loss_meta: float
    losses_per_expert: np.ndarray
    alpha_before: np.ndarray
    alpha_after: np.ndarray


@dataclass(frozen=True)
class RolloverRecord:
    """Outcome of one interval rollover."""

    g_completed: int
    anchor: Anchor
    result: OfflineTrainResult
    omega_new: float
    evicted: np.ndarray | None
    K: int
    order: list[int] = field(default_factory=list)


class ExpertPool:
    """One coupling run; mutate only from its owning sequence."""

    def __init__(
        self,
        spec: LossSpec,
        B: int,
        K_max: int,
        strategy: str = "weight",
        init_policy: str = "cold",
        gamma_floor: float = 0.1,
        grad_map_tol: float = 1e-8,
    ):
        if B < 1:
            raise ValueError("B must be >= 1")
        if K_max < 2:
            raise ValueError("K_max must be >= 2")
        if strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
        if init_policy not in INIT_POLICIES:
            raise ValueError(f"init_policy must be one of {INIT_POLICIES}, got {init_policy!r}")
        self.spec = spec
        self.B = B
        self.K_max = K_max
        self.strategy = strategy
        self.init_policy = init_policy
        self.gamma_floor = gamma_floor
        self.grad_map_tol = grad_map_tol
        self.G = 1
        self.t = 0
        self.offline: list[np.ndarray] = []
        # no previous interval to inherit from, so even a warm pool starts cold
        self.online = init_online("cold", spec.constants)
        self.meta = MetaWeights.fresh(K=1, horizon=B)

    @property
    def K(self) -> int:
        return effective_K(self.G, self.K_max)

    def expert_advice(self) -> list[np.ndarray]:
        """Current advices w^1..w^{K-1}, w_t^K (online last)."""
        return [w.copy() for w in self.offline] + [self.online.w.copy()]

    def current_output(self) -> np.ndarray:
        """The weighted-average hypothesis the pool would emit right now."""
        return combine(self.meta, self.expert_advice())

    def process_labeled(self, s: Sample) -> StepRecord:
        """One pass of the per-sample loop; advances t. The sample is
        domain-checked here, once; nothing after re-checks it."""
        if self.t >= self.B:
            raise RuntimeError("online interval already holds B samples; rollover first")
        check_sample(s.x, s.y, self.spec)
        advice = np.array(self.offline + [self.online.w])
        w_t = combine(self.meta, advice)
        losses = batch_losses(s.x, advice, s.y, self.spec)  # one row per expert
        loss_meta = float(batch_losses(w_t, s.x, s.y, self.spec))
        alpha_before = self.meta.alpha.copy()
        self.meta = update_weights(self.meta, losses)
        grad = batch_mean_grad(self.online.w, s.x[np.newaxis], np.array([s.y]), self.spec)
        self.online = ogd_step(self.online, grad)
        self.t += 1
        return StepRecord(
            g=self.G, t=self.t, w=w_t, loss_meta=loss_meta,
            losses_per_expert=losses, alpha_before=alpha_before,
            alpha_after=self.meta.alpha.copy(),
        )

    def predict_unlabeled(self, x: np.ndarray) -> int:
        """Sign of <w_t, x> with the current output; +1 on ties. Free: does
        not consume a labeled slot."""
        value = inner(self.current_output(), x)
        return 1 if value >= 0 else -1

    def rollover(self, completed: IntervalBuffer) -> RolloverRecord:
        """Close the online interval: train, evict, reindex, reinitialize."""
        if self.t != self.B:
            raise RuntimeError(f"rollover needs t = B = {self.B}, have t = {self.t}")
        if completed.n != self.B:
            raise ValueError(f"completed interval must hold exactly B={self.B} samples")

        # Anchor from the final state: post-update weights, final iterates.
        advice = self.expert_advice()
        risks = np.array([
            batch_mean_loss(w_k, completed.X, completed.y, self.spec) for w_k in advice
        ])
        anchor = Anchor(v=combine(self.meta, advice),
                        weighted_loss=float(self.meta.alpha @ risks))
        config = default_config(anchor, self.spec, self.gamma_floor, self.grad_map_tol)
        result = train_offline(completed, anchor, config, self.spec)
        omega_new = omega(result.w, anchor)

        g_completed = self.G
        self.G += 1
        K_new = effective_K(self.G, self.K_max)

        if self.strategy == "fifo":
            order = list(range(len(self.offline)))
        else:
            # surviving offline experts ranked by their final meta weights
            order = list(np.argsort(self.meta.alpha[: len(self.offline)], kind="stable"))
        candidates = [self.offline[i] for i in order] + [result.w]
        keep = K_new - 1
        evicted = None
        if len(candidates) > keep:
            evicted = candidates[0]  # lowest priority
            candidates = candidates[len(candidates) - keep:]
        self.offline = candidates
        self.meta = MetaWeights.fresh(K=K_new, horizon=self.B)
        self.online = init_online(self.init_policy, self.spec.constants,
                                  previous=self.online.w)
        self.t = 0
        return RolloverRecord(
            g_completed=g_completed, anchor=anchor, result=result,
            omega_new=omega_new, evicted=evicted, K=K_new, order=order,
        )
