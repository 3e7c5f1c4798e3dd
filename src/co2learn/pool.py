"""Expert-pool lifecycle: per-sample coupling loop and interval rollover.

A pool holds up to K_max - 1 offline experts (priority-ascending, so the
highest-priority expert has the highest index) plus one online expert at
index K, with K = min(G, K_max) and G the number of intervals seen so far.

The pool keeps its output, the weighted average ``w = alpha @ A`` of the
K experts, as state, always current: a labeled step, a rollover and
``set_state`` each compute it once at their end, and a prediction in
between is one dot product. Each labeled sample runs,
in order: check the sample and compute the OGD step size, either of which
can raise; take the output carried over from the previous step as
``w_t``; score every expert (one matvec and one ``logaddexp``, the
K-vector form of ``losses.softplus``) and ``w_t`` on the sample; take the
online expert's OGD step with the gradient at its own iterate; and only
then write the new meta weights, ``t`` and the next output. ``w_t`` was
fixed before the loss was seen.

When the online interval completes (t = B) the pool rolls over: it builds
the anchor from the final meta weights and the experts' empirical risks on
the completed interval, trains a new offline expert against that anchor
(to the fixed mapping-norm tolerance ``offline.GRAD_MAP_TOL``), evicts the
lowest-priority offline expert if the pool is full, reorders survivors by
priority, reinitializes the meta weights for the new K, and restarts the
online expert, at zero (cold) or at its final iterate (warm).

Eviction strategies: ``fifo`` keeps insertion order (oldest = lowest
priority); ``weight`` orders the surviving offline experts by their final
meta weights. Either way the newest offline expert gets the highest
priority. Priorities only shape the initial weights, not any guarantee.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, check_int, check_real
from .geometry import Sample
from .losses import _DOMAIN_ATOL, LossSpec, batch_mean_losses, check_sample, margin_loss
from .meta import MetaWeights, init_weights, reweight, step_size_nu
from .offline import GRAD_MAP_TOL, Anchor, OfflineTrainResult, omega, train_offline
from .online import OnlineExpertState, eta, ogd_update
from .streams import IntervalBuffer

# Not called here; kept importable because bench/tracing.py patches these names.
from .losses import grad_loss, loss  # noqa: F401
from .meta import combine, update_weights  # noqa: F401
from .online import ogd_step  # noqa: F401

STRATEGIES = ("fifo", "weight")
INIT_POLICIES = ("cold", "warm")  # how rollover restarts the online expert


def check_settings(B, K_max, strategy, init_policy, gamma_floor) -> None:
    """Raise ConfigError unless these are settings a pool accepts. The
    transfer weight gamma >= ``gamma_floor`` must be > 0: the trainer's rate
    and the transfer-gap bound divide by it."""
    check_int("B", B, minimum=1)
    check_int("K_max", K_max, minimum=2)
    if strategy not in STRATEGIES:
        raise ConfigError(f"strategy must be one of {STRATEGIES}, got {strategy!r}")
    if init_policy not in INIT_POLICIES:
        raise ConfigError(f"init_policy must be one of {INIT_POLICIES}, got {init_policy!r}")
    check_real("gamma_floor", gamma_floor, positive=True)


class StepRecord(NamedTuple):
    """Everything observable about one labeled step: ``w`` is the output
    ``w_t`` the step was scored with, ``alpha_before`` and ``alpha_after``
    the meta weights around it. A tuple, so building one per step is cheap;
    the arrays are the step's own and no later step writes into them."""

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


class ExpertPool:
    """One coupling run; mutate only from its owning sequence.

    The state is one (K, dim) float array ``A`` of the experts, the
    offline ones first in priority order and the online iterate last, the
    meta weights ``alpha`` with their step size ``nu``, the count ``t`` of
    samples taken in this interval, the interval index ``G``, and the
    output ``w = alpha @ A``, always current. The online expert restarts
    with each interval, so its next OGD step is ``t + 1``. A step writes the
    online row and ``t`` in place, replaces ``alpha`` and then ``w``; only
    ``rollover`` rebuilds the array. ``G``, ``t``, ``offline``, ``online``
    and ``meta`` only read that state; ``set_state`` is the one way to set
    it from outside, whole and checked.
    """

    def __init__(
        self,
        spec: LossSpec,
        B: int,
        K_max: int,
        strategy: str = "weight",
        init_policy: str = "cold",
        gamma_floor: float = 0.1,
    ):
        check_settings(B, K_max, strategy, init_policy, gamma_floor)
        self.spec = spec
        self.B = B
        self.K_max = K_max
        self.strategy = strategy
        self.init_policy = init_policy
        self.gamma_floor = gamma_floor
        self._G = 1
        self._t = 0
        # no previous interval to inherit from, so even a warm pool starts cold
        self._experts = np.zeros((1, spec.dim))
        self._alpha, self._nu = init_weights(1), step_size_nu(1, B)
        self._w = self._alpha.dot(self._experts)

    def set_state(self, experts, alpha, t: int = 0, G: int | None = None) -> None:
        """Set the whole state from copies: ``experts`` is a (K, dim) array,
        the online iterate last, ``G`` defaults to K, and ``nu`` is
        ``step_size_nu(K, B)`` as in every reachable state. Raises a one-line
        ValueError, with the state unchanged, unless 1 <= K = min(G, K_max),
        every expert is finite and in the R-ball, ``alpha`` has shape (K,) and
        lies on the simplex (within 1e-9), and 0 <= t <= B: the regret bound
        needs the simplex, and losses in [0, 1]."""
        A = np.array(experts, dtype=np.float64)
        if A.ndim != 2 or A.shape[1] != self.spec.dim:
            raise ValueError(f"experts must have shape (K, {self.spec.dim}), got {A.shape}")
        K, G = len(A), len(A) if G is None else G
        check_int("G", G, minimum=1)
        if not 1 <= K == min(G, self.K_max):
            raise ValueError(f"need 1 <= K = min(G, K_max), got K={K}, G={G}, K_max={self.K_max}")
        norm = np.sqrt(np.einsum("ij,ij->i", A, A)).max()  # NaN if any row is not finite
        if not norm <= self.spec.R + _DOMAIN_ATOL:
            raise ValueError(f"each expert needs a finite ||w|| <= R={self.spec.R}, got {norm}")
        a = np.array(alpha, dtype=np.float64)
        if a.shape != (K,) or not (a >= 0).all() or not abs(a.sum() - 1.0) <= 1e-9:
            raise ValueError(f"alpha must be {K} weights >= 0 summing to 1, got {a.tolist()}")
        check_int("t", t, minimum=0, maximum=self.B)
        self._experts, self._alpha, self._nu, self._t, self._G = A, a, step_size_nu(K, self.B), t, G
        self._w = a.dot(A)

    G = property(lambda self: self._G, doc="The interval index: intervals begun so far.")
    t = property(lambda self: self._t, doc="Samples taken in this interval.")

    @property
    def K(self) -> int:
        """Number of live experts: min(G, K_max)."""
        return min(self._G, self.K_max)

    @property
    def offline(self) -> list[np.ndarray]:
        """The offline experts w^1..w^{K-1}, lowest priority first."""
        return list(self._experts[:-1])

    @property
    def online(self) -> OnlineExpertState:
        """A copy of the online expert's iterate and its next OGD step, t + 1."""
        return OnlineExpertState(w=self._experts[-1].copy(), t=self._t + 1)

    @property
    def meta(self) -> MetaWeights:
        """The meta weights over the K experts and their step size."""
        return MetaWeights(alpha=self._alpha, nu=self._nu)

    def current_output(self) -> np.ndarray:
        """A copy of the weighted-average hypothesis the pool emits now."""
        return self._w.copy()

    def process_labeled(self, s: Sample) -> StepRecord:
        """One pass of the per-sample loop; advances t. The sample is checked
        here, once, by ``check_sample``, and the OGD step size ``eta(t + 1)``
        is computed, both before any state changes; nothing after re-checks
        the sample. So a bad sample or step index leaves the pool as it was."""
        if self._t >= self.B:
            raise RuntimeError("online interval already holds B samples; rollover first")
        y, spec = s.y, self.spec
        x = check_sample(s.x, y, spec)
        t = self._t + 1
        eta_t = eta(t, spec)
        experts, alpha, w_t = self._experts, self._alpha, self._w
        neg_z = experts.dot(x)  # -y <w_k, x> for every expert, the online one last
        if y == 1:
            np.negative(neg_z, neg_z)
        z_online = -float(neg_z[-1])
        # softplus's K-vector form, as margin_loss is its scalar form: one ufunc
        # call, where softplus's six pay off only on the batch paths' long arrays
        losses = np.logaddexp(0.0, neg_z, out=neg_z)
        losses /= spec.C
        loss_meta = margin_loss(y * float(w_t.dot(x)), spec)
        ogd_update(experts[-1], eta_t, x, y, z_online, spec)
        self._alpha = alpha_next = reweight(alpha, self._nu, losses)
        self._t = t
        self._w = alpha_next.dot(experts)
        return StepRecord(w_t, loss_meta, losses, alpha, alpha_next)

    def predict_unlabeled(self, x: np.ndarray) -> int:
        """Sign of <w, x> with the current output; +1 on ties. Free: does
        not consume a labeled slot. Raises ValueError on a dimension
        mismatch or when <w, x> is not finite (a NaN or infinite entry in
        ``x``, or entries too large for the product)."""
        w = self._w
        x = np.asarray(x, dtype=np.float64)
        if x.shape != w.shape:
            raise ValueError(f"dimension mismatch: {w.shape} vs {x.shape}")
        dot = w.dot(x)
        if not math.isfinite(dot):
            raise ValueError(f"the query's score <w, x> is not finite: {dot}")
        return 1 if dot >= 0 else -1

    def rollover(self, completed: IntervalBuffer) -> RolloverRecord:
        """Close the online interval: train, evict, reindex, reinitialize.
        The completed interval is checked first, before any state changes:
        B samples, and its longest row (or a non-finite one) by the sample
        rule, so every row has shape (dim,) and ||x|| <= D."""
        if self._t != self.B:
            raise RuntimeError(f"rollover needs t = B = {self.B}, have t = {self._t}")
        if completed.n != self.B:
            raise ValueError(f"completed interval must hold exactly B={self.B} samples")
        i = np.einsum("ij,ij->i", completed.X, completed.X).argmax()  # a NaN row wins too
        check_sample(completed.X[i], completed.y[i], self.spec)

        # Anchor from the final state: post-update weights, final iterates.
        experts, alpha = self._experts, self._alpha
        risks = batch_mean_losses(experts, completed.X, completed.y, self.spec)
        anchor = Anchor(v=alpha.dot(experts), weighted_loss=float(alpha.dot(risks)))
        result = train_offline(completed, anchor, self.spec, self.gamma_floor, GRAD_MAP_TOL)
        omega_new = omega(result.w, anchor)

        g_completed = self._G
        self._G += 1
        K_new = self.K

        # rank the offline experts, lowest priority first; the new one ranks highest
        n_offline = len(experts) - 1
        order = (np.arange(n_offline) if self.strategy == "fifo"
                 else np.argsort(alpha[:n_offline], kind="stable"))
        n_evict = max(0, n_offline + 2 - K_new)  # 1 once the pool is full, else 0
        evicted = experts[order[0]] if n_evict else None
        restart = experts[-1] if self.init_policy == "warm" else np.zeros(self.spec.dim)
        self._experts = np.concatenate((experts[order[n_evict:]], [result.w, restart]))
        self._alpha, self._nu = init_weights(K_new), step_size_nu(K_new, self.B)
        self._w = self._alpha.dot(self._experts)
        self._t = 0
        return RolloverRecord(g_completed=g_completed, anchor=anchor, result=result,
                              omega_new=omega_new, evicted=evicted, K=K_new)
