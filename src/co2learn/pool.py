"""Expert-pool lifecycle: per-sample coupling loop and interval rollover.

A pool holds up to K_max - 1 offline experts (priority-ascending, so the
highest-priority expert has the highest index) plus one online expert at
index K, with K = min(G, K_max) and G the number of intervals seen so far.

Each labeled sample runs, in order: output the weighted average of the K
experts, score every expert (one matvec and one softplus) and the average
on the sample, update the meta weights with those scores, and only then
take the online expert's OGD step with the gradient at its own iterate.
The output is committed before the loss is seen.

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
from .losses import LossSpec, batch_mean_loss, check_sample, margin_loss, softplus
from .meta import MetaWeights, reweight
from .offline import Anchor, OfflineTrainResult, default_config, omega, train_offline
from .online import INIT_POLICIES, OnlineExpertState, init_online, ogd_update
from .streams import IntervalBuffer

# Not called here; kept importable because bench/tracing.py patches these names.
from .losses import grad_loss, loss  # noqa: F401
from .meta import combine, update_weights  # noqa: F401
from .online import ogd_step  # noqa: F401

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
    """One coupling run; mutate only from its owning sequence.

    The state is one (K, dim) float array of the experts, the offline ones
    first in priority order and the online iterate last, plus the meta
    weights ``alpha`` with their step size ``nu`` and two counters: ``t``,
    the samples taken in this interval, and the online expert's OGD step.
    A step writes the online row and the counters in place and replaces
    ``alpha``; only ``rollover`` rebuilds the array. ``offline``, ``online``
    and ``meta`` read that state (and set it, to inject one).
    """

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
        # no previous interval to inherit from, so even a warm pool starts cold
        start = init_online("cold", spec.constants)
        self._experts = start.w[np.newaxis].copy()
        self._ogd_t = start.t
        self.meta = MetaWeights.fresh(K=1, horizon=B)

    @property
    def K(self) -> int:
        return effective_K(self.G, self.K_max)

    @property
    def offline(self) -> list[np.ndarray]:
        """The offline experts w^1..w^{K-1}, lowest priority first."""
        return list(self._experts[:-1])

    @offline.setter
    def offline(self, experts) -> None:
        self._experts = np.array([*experts, self._experts[-1]], dtype=np.float64)

    @property
    def online(self) -> OnlineExpertState:
        """A copy of the online expert's iterate and its OGD step counter."""
        return OnlineExpertState(w=self._experts[-1].copy(), t=self._ogd_t,
                                 constants=self.spec.constants)

    @online.setter
    def online(self, state: OnlineExpertState) -> None:
        self._experts[-1] = state.w
        self._ogd_t = state.t

    @property
    def meta(self) -> MetaWeights:
        """The meta weights over the K experts and their step size."""
        return MetaWeights(alpha=self._alpha, nu=self._nu, K=len(self._alpha))

    @meta.setter
    def meta(self, weights: MetaWeights) -> None:
        self._alpha = np.array(weights.alpha, dtype=np.float64)
        self._nu = weights.nu

    def current_output(self) -> np.ndarray:
        """The weighted-average hypothesis the pool would emit right now."""
        return self._alpha @ self._experts

    def process_labeled(self, s: Sample) -> StepRecord:
        """One pass of the per-sample loop; advances t. The sample is
        domain-checked here, once; nothing after re-checks it."""
        if self.t >= self.B:
            raise RuntimeError("online interval already holds B samples; rollover first")
        x, y, spec = s.x, s.y, self.spec
        check_sample(x, y, spec)
        experts, alpha = self._experts, self._alpha
        w_t = alpha @ experts
        z = y * (experts @ x)  # every expert's margin, the online one last
        losses = softplus(-z) / spec.C
        loss_meta = margin_loss(y * float(w_t @ x), spec)
        self._alpha = reweight(alpha, self._nu, losses)
        ogd_update(experts[-1], self._ogd_t, x, y, float(z[-1]), spec)
        self._ogd_t += 1
        self.t += 1
        return StepRecord(
            g=self.G, t=self.t, w=w_t, loss_meta=loss_meta,
            losses_per_expert=losses, alpha_before=alpha, alpha_after=self._alpha,
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
        experts, alpha = self._experts, self._alpha
        risks = np.array([
            batch_mean_loss(w_k, completed.X, completed.y, self.spec) for w_k in experts
        ])
        anchor = Anchor(v=alpha @ experts, weighted_loss=float(alpha @ risks))
        config = default_config(anchor, self.spec, self.gamma_floor, self.grad_map_tol)
        result = train_offline(completed, anchor, config, self.spec)
        omega_new = omega(result.w, anchor)

        g_completed = self.G
        self.G += 1
        K_new = effective_K(self.G, self.K_max)

        n_offline = len(experts) - 1
        if self.strategy == "fifo":
            order = list(range(n_offline))
        else:
            # surviving offline experts ranked by their final meta weights
            order = list(np.argsort(alpha[:n_offline], kind="stable"))
        candidates = [experts[i] for i in order] + [result.w]
        keep = K_new - 1
        evicted = None
        if len(candidates) > keep:
            evicted = candidates[0]  # lowest priority
            candidates = candidates[len(candidates) - keep:]
        start = init_online(self.init_policy, self.spec.constants, previous=experts[-1])
        self._experts = np.array([*candidates, start.w], dtype=np.float64)
        self._ogd_t = start.t
        self.meta = MetaWeights.fresh(K=K_new, horizon=self.B)
        self.t = 0
        return RolloverRecord(
            g_completed=g_completed, anchor=anchor, result=result,
            omega_new=omega_new, evicted=evicted, K=K_new, order=order,
        )
