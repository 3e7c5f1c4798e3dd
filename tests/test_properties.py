"""Property tests for the invariants the per-sample step no longer re-checks.

The step path trusts what it computes: ``update_weights`` does not re-check
that its losses lie in [0, 1] or that the new weights are on the simplex,
``MetaWeights`` and ``OnlineExpertState`` do not validate themselves, and
``ogd_step`` does not re-check the iterate's ball. These tests show that the
code keeps each of those invariants for every input in its domain, that the
pool's fused step and the gemv batch gradient equal the per-sample reference
functions, that the fused batch gradient, the solver loop and the rollover's
expert risks equal their plain references bit for bit, that ``check_sample``
accepts exactly the samples in the loss's domain and a rejected step leaves
the pool as it was, that every domain check takes the vectors the package
builds at any radius and refuses one past the ball rule ``geometry.max_norm``,
that ``ExpertPool.set_state`` takes a whole valid state
or changes nothing, that the loss is self-bounding, and that the LIBSVM
parser, where outside text enters, fails only with the documented errors and
gives the rows or the error of the per-token reference parser. The last group
holds the generator's contract (see ``co2learn.rng`` and the substream layout
in ``co2learn.streams``) for any seed and request sizes, and the last two
tests hold the per-interval guarantees over arbitrary small runs and over
interval sets the generator does not give. Two more hold the regret
identities the interval metrics' arithmetic decides, for every loss table,
and the run's symmetries: a rotation of the inputs moves no metric past
rounding, and negating every sample and label moves no bit. The final two
tests hold the bounds' float-range rule: a config it takes gives finite
bounds at every input a run can reach, and a refusal names a setting only
when that setting decides it.
"""

import math
import re
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from co2learn.bounds import bound_report, transfer_gap_bound
from co2learn.errors import ConfigError, DataError
from co2learn.geometry import (
    _INSIDE_RTOL, Sample, project_in_place, project_to_ball,
)
from co2learn.harness import ExperimentConfig, _interval_metrics, _run_seed, run_experiment
from co2learn.losses import (
    LossSpec, _check_domain, batch_losses, batch_mean_grad, batch_mean_losses, check_sample,
    grad_buffers, grad_loss, loss,
)
from co2learn.meta import MetaWeights, combine, step_size_nu, update_weights
from co2learn.offline import Anchor, projected_gradient, train_offline
from co2learn.online import OnlineExpertState, ogd_step
from co2learn.pool import INIT_POLICIES, STRATEGIES, ExpertPool, StepRecord
from co2learn.rng import _BLOCK, CounterRng, substream
from co2learn.streams import (
    IntervalBuffer,
    StreamSpec,
    gen_synthetic,
    condition_norms,
    parse_libsvm,
    sample_from_means,
)

from oracles import (
    reference_batch_mean_grad,
    reference_expert_risks,
    reference_normals,
    reference_projected_gradient,
    reference_parse_libsvm,
    reference_raw,
    reference_shuffle,
)


def vectors(dim, bound):
    return arrays(np.float64, dim, elements=st.floats(-bound, bound))


@st.composite
def loss_sequences(draw):
    T, K = draw(st.integers(1, 60)), draw(st.integers(1, 6))
    return draw(arrays(np.float64, (T, K), elements=st.floats(0.0, 1.0)))


@given(loss_sequences())
def test_weights_stay_on_simplex_and_regret_within_bound(losses):
    T, K = losses.shape
    mw = MetaWeights.fresh(K, T)
    weighted = 0.0
    for row in losses:
        weighted += float(mw.alpha @ row)
        mw = update_weights(mw, row)
        assert np.all(mw.alpha >= 0)
        assert abs(mw.alpha.sum() - 1.0) <= 1e-12
    assert weighted - losses.sum(axis=0).min() <= math.sqrt(T * math.log(K)) + 1e-9


@st.composite
def ogd_runs(draw):
    dim = draw(st.integers(1, 5))
    spec = LossSpec.create(D=draw(st.floats(0.1, 10.0)), R=draw(st.floats(0.1, 10.0)), dim=dim)
    grads = draw(st.lists(vectors(dim, 1e100), min_size=1, max_size=30))
    return spec, grads


@given(ogd_runs())
def test_ogd_iterate_stays_in_ball_for_any_gradient(run):
    spec, grads = run
    state = OnlineExpertState(w=np.zeros(spec.dim), t=1)
    for grad in grads:
        state = ogd_step(state, grad, spec)
        assert np.linalg.norm(state.w) <= spec.R * (1.0 + 1e-12)
    assert state.t == len(grads) + 1


@given(st.integers(1, 5).flatmap(lambda d: st.tuples(vectors(d, 1e6), vectors(d, 1e6))),
       st.floats(1e-3, 1e3))
def test_projection_idempotent_and_non_expansive(pair, R):
    u, v = pair
    pu, pv = project_to_ball(u, R), project_to_ball(v, R)
    np.testing.assert_array_equal(project_to_ball(pu, R), pu)
    assert np.linalg.norm(pu - pv) <= np.linalg.norm(u - v) + 1e-9 * R


def in_ball(draw, dim, radius, n=None):
    """A point (or n points) of the closed ball of the given radius."""
    shape = dim if n is None else (n, dim)
    v = draw(arrays(np.float64, shape, elements=st.floats(-2 * radius, 2 * radius)))
    return project_to_ball(v, radius) if n is None else np.array([project_to_ball(r, radius) for r in v])


@st.composite
def pool_states(draw):
    """A spec, a pool state and a sample in the loss's domain. The state is
    arbitrary but reachable: after t_pool steps, the online expert's next
    OGD step is t_pool + 1."""
    dim, K = draw(st.integers(1, 30)), draw(st.integers(1, 8))
    spec = LossSpec.create(D=draw(st.floats(0.1, 5.0)), R=draw(st.floats(0.1, 5.0)), dim=dim)
    B = draw(st.integers(1, 400))
    experts = in_ball(draw, dim, spec.R, n=K)
    raw = draw(arrays(np.float64, K, elements=st.floats(1e-3, 1.0)))
    meta = MetaWeights(alpha=raw / raw.sum(), nu=step_size_nu(K, B))
    t_pool = draw(st.integers(0, B - 1))
    x = in_ball(draw, dim, spec.D)
    return spec, B, experts, meta, t_pool, Sample(x=x, y=draw(st.sampled_from([-1, 1])))


@given(pool_states())
def test_step_matches_the_reference_chain(state):
    spec, B, experts, meta, t_pool, s = state
    K = len(experts)
    pool = ExpertPool(spec=spec, B=B, K_max=max(K, 2))
    pool.set_state(experts, meta.alpha, t=t_pool)

    w_out, alpha_t = pool.current_output(), pool.meta.alpha
    rec = pool.process_labeled(s)

    losses = batch_losses(s.x, experts, s.y, spec)
    w_t = combine(meta, list(experts))
    after = update_weights(meta, losses)
    online = ogd_step(OnlineExpertState(w=experts[-1], t=t_pool + 1),
                      grad_loss(experts[-1], s, spec), spec)
    np.testing.assert_allclose(w_out, w_t, rtol=0, atol=1e-12)
    assert abs(rec.loss_meta - float(batch_losses(w_t, s.x, s.y, spec))) <= 1e-12
    np.testing.assert_allclose(rec.losses_per_expert, losses, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(alpha_t, meta.alpha)
    np.testing.assert_allclose(rec.alpha_after, after.alpha, rtol=0, atol=1e-12)
    np.testing.assert_allclose(pool.online.w, online.w, rtol=0, atol=1e-12)
    assert pool.online.t == online.t and pool.t == t_pool + 1
    for got, want in zip(pool.offline, experts[:-1]):
        np.testing.assert_array_equal(got, want)


@st.composite
def candidate_samples(draw):
    """A spec and a labeled candidate that may break any part of the sample
    rule: its shape, a non-finite entry, its norm or its label."""
    dim = draw(st.integers(1, 5))
    spec = LossSpec.create(D=draw(st.floats(0.1, 5.0)), R=1.0, dim=dim)
    shape = draw(st.sampled_from([(dim,), (dim,), (dim,), (dim + 1,), (1, dim), ()]))
    scale = draw(st.sampled_from([spec.D / math.sqrt(dim), 2 * spec.D, 1e200]))
    x = draw(arrays(np.float64, shape, elements=st.floats(-scale, scale)))
    bad = draw(st.sampled_from([None, None, np.nan, np.inf, -np.inf]))
    if bad is not None and x.size:
        x.flat[draw(st.integers(0, x.size - 1))] = bad
    return spec, x, draw(st.sampled_from([-1, 1, -1, 1, 0, 2, -2, np.int64(-1), np.int32(1),
                                          True, False, 1.0, np.float64(-1.0)]))


def accepts(x, y, spec) -> bool:
    try:
        check_sample(x, y, spec)
    except ValueError:
        return False
    return True


@given(candidate_samples(), st.integers(0, 3))
def test_check_sample_is_the_domain_rule_and_a_rejected_step_changes_nothing(candidate, steps):
    spec, x, y = candidate
    label_ok = isinstance(y, (int, np.integer)) and not isinstance(y, bool) and y in (-1, 1)
    in_rule = x.shape == (spec.dim,) and bool(np.isfinite(x).all())
    if in_rule:
        norm = math.hypot(*x.tolist())  # exact to an ulp, and never overflows
        edge = spec.D * (1 + 2e-12) + 1e-9  # the ball rule, written out
        assume(abs(norm - edge) > 1e-12 * edge)  # clear of the boundary
        in_rule = norm <= edge and label_ok
    accepted = accepts(x, y, spec)
    assert accepted == in_rule
    assert accepts(np.zeros(spec.dim), y, spec) == label_ok  # the label rule on its own

    # a two-expert pool part-way through an interval
    pool = ExpertPool(spec=spec, B=8, K_max=3)
    meta = MetaWeights.fresh(2, 8)
    pool.set_state([np.full(spec.dim, 0.5 / math.sqrt(spec.dim)), np.zeros(spec.dim)],
                   meta.alpha)
    x_ok = np.full(spec.dim, 0.5 * spec.D / math.sqrt(spec.dim))
    for k in range(steps):
        pool.process_labeled(Sample(x_ok, (-1) ** k))
    before = (pool.t, pool.meta.alpha.copy(), np.vstack(pool.offline), pool.online,
              pool.current_output())
    if accepted:
        pool.process_labeled(Sample(x, y))
        assert pool.t == steps + 1
        return
    with pytest.raises(ValueError):
        pool.process_labeled(Sample(x, y))
    t, alpha, offline, online, output = before
    assert pool.t == t and pool.online.t == online.t
    np.testing.assert_array_equal(pool.meta.alpha, alpha)
    np.testing.assert_array_equal(np.vstack(pool.offline), offline)
    np.testing.assert_array_equal(pool.online.w, online.w)
    np.testing.assert_array_equal(pool.current_output(), output)


def refuses(check, *args) -> bool:
    try:
        check(*args)
    except ValueError:
        return True
    return False


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_every_domain_check_takes_what_the_package_builds_and_nothing_past_the_rule(data):
    """At any radius r in [1e-150, 1e150] and dim in 1-50, with D = R = r:
    outputs of both projections, and experts on the sphere, at the
    projection's slack and at the rule's edge ``R_max``, pass ``set_state``
    and ``_check_domain``; a state of such experts whose weights sum to 1
    only within ``set_state``'s 1e-9 rolls over, so the anchor the rollover
    builds from it passes ``train_offline``; every ``condition_norms`` row
    passes ``check_sample``; and a vector at ``r (1 + 1e-6) + 2e-9`` fails
    all four checks. The 2e-9 is there because below r = 1e-3 the rule's
    absolute 1e-9, not its relative slack, decides."""
    draw = data.draw
    r, dim = 10.0 ** draw(st.floats(-150, 150)), draw(st.integers(1, 50))
    spec = LossSpec.create(D=r, R=r, dim=dim)
    K, n = draw(st.integers(1, 4)), draw(st.integers(1, 8))

    def direction():
        u = draw(arrays(np.float64, dim, elements=st.floats(-1, 1)))
        u[draw(st.integers(0, dim - 1))] = draw(st.sampled_from([-1.0, 1.0]))
        return u / np.linalg.norm(u)

    experts = []
    for _ in range(K):
        kind = draw(st.sampled_from(["copy", "in_place", "edge"]))
        if kind == "edge":  # 1e-14 below R_max keeps the norm's rounding inside it
            edge = draw(st.sampled_from([r, r * (1 + _INSIDE_RTOL), spec.R_max * (1 - 1e-14)]))
            experts.append(direction() * edge)
            continue
        w = direction() * (r * 10.0 ** draw(st.floats(-3, 3)))
        if kind == "copy":
            w = project_to_ball(w, r)
        else:
            project_in_place(w, r)
        experts.append(w)
    far = direction() * (r * (1 + 1e-6) + 2e-9)
    zero = Sample(np.zeros(dim), 1)
    for w in experts:
        _check_domain(w, zero, spec)
    assert refuses(_check_domain, far, zero, spec)

    A = np.array(experts)
    raw = draw(arrays(np.float64, K, elements=st.floats(0.0, 1.0)))
    raw[draw(st.integers(0, K - 1))] = 1.0
    alpha = raw / raw.sum() * (1 + draw(st.floats(-9.9e-10, 9.9e-10)))
    pool = ExpertPool(spec=spec, B=n, K_max=max(K, 2),
                      init_policy=draw(st.sampled_from(INIT_POLICIES)))
    assert refuses(pool.set_state, np.vstack([A[:-1], far]), alpha)
    pool.set_state(A, alpha, t=n)

    scale = draw(st.sampled_from([r * 10.0 ** draw(st.floats(-3, 3)), 1e300]))
    X = draw(arrays(np.float64, (n, dim), elements=st.floats(-1, 1)))
    X = condition_norms(X * scale, r)
    for x in X:
        check_sample(x, 1, spec)
    assert refuses(check_sample, far, 1, spec)

    y = draw(arrays(np.int64, n, elements=st.sampled_from([-1, 1])))
    roll = pool.rollover(IntervalBuffer(X=X, y=y, interval_index=0))
    assert (pool.G, pool.t) == (K + 1, 0)
    assert np.linalg.norm(roll.anchor.v) <= spec.R_max
    assert refuses(train_offline, IntervalBuffer(X=X, y=y, interval_index=0),
                   Anchor(v=far, weighted_loss=0.5), spec, 0.1)


def coherent_output(pool):
    """The pool's output recomputed from the state it reports."""
    want = pool.meta.alpha @ np.vstack(pool.offline + [pool.online.w])
    assert pool.current_output().tobytes() == want.tobytes()
    return want


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_kept_output_is_alpha_times_experts_after_every_call(data):
    draw = data.draw
    dim, K_max, B = draw(st.integers(1, 6)), draw(st.integers(2, 4)), draw(st.integers(1, 3))
    spec = LossSpec.create(D=draw(st.floats(0.1, 3.0)), R=draw(st.floats(0.1, 3.0)), dim=dim)
    pool = ExpertPool(spec=spec, B=B, K_max=K_max, strategy=draw(st.sampled_from(STRATEGIES)),
                      init_policy=draw(st.sampled_from(INIT_POLICIES)))
    taken = []  # the samples of the current interval
    want = coherent_output(pool)
    for op in draw(st.lists(st.sampled_from(("inject", "step", "predict")), max_size=30)):
        if op == "inject":
            K = draw(st.integers(1, K_max))
            G = K if K < K_max else draw(st.integers(K_max, K_max + 3))
            raw = draw(arrays(np.float64, K, elements=st.floats(1e-3, 1.0)))
            pool.set_state(in_ball(draw, dim, spec.R, n=K), raw / raw.sum(), G=G)
            taken = []
            want = coherent_output(pool)
        elif op == "step" and pool.t == B:
            X = np.array([s.x for s in taken])
            y = np.array([s.y for s in taken])
            pool.rollover(IntervalBuffer(X=X, y=y, interval_index=pool.G))
            taken = []
            want = coherent_output(pool)
        elif op == "step":
            s = Sample(x=in_ball(draw, dim, spec.D), y=draw(st.sampled_from([-1, 1])))
            w_t = pool.current_output()
            pool.process_labeled(s)
            assert w_t.tobytes() == want.tobytes()
            taken.append(s)
            want = coherent_output(pool)
        else:
            q = draw(vectors(dim, 3.0))
            if draw(st.booleans()):
                q = q.tolist()
            value = float(np.dot(want, q))
            assert pool.predict_unlabeled(q) == (1 if value >= 0 else -1)
            assert coherent_output(pool).tobytes() == want.tobytes()


def reported_state(pool):
    """The bytes of everything the pool reports: A, alpha, nu, t, G and w."""
    A = np.vstack(pool.offline + [pool.online.w])
    return (A.tobytes(), A.shape, pool.meta.alpha.tobytes(), pool.meta.nu, pool.t, pool.G,
            pool.current_output().tobytes())


# each check of set_state, with the start of its message
SET_STATE_CHECKS = {"shape": "experts must have shape", "K": "need 1 <= K|G must", "ball":
                    "each expert needs", "alpha": "alpha must", "t": "t must"}


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from((None, *SET_STATE_CHECKS)))
def test_set_state_takes_a_whole_state_or_changes_nothing(data, broken):
    """With ``broken`` None the drawn state is valid; otherwise exactly that
    check of ``set_state`` fails, and the pool keeps what it had."""
    draw = data.draw
    dim, K_max, B = draw(st.integers(1, 5)), draw(st.integers(2, 5)), draw(st.integers(1, 6))
    spec = LossSpec.create(D=1.0, R=draw(st.floats(0.1, 1.0)), dim=dim)
    pool = ExpertPool(spec=spec, B=B, K_max=K_max)
    for k in range(draw(st.integers(0, B))):  # part-way through the first interval
        pool.process_labeled(Sample(np.full(dim, 0.5 / math.sqrt(dim)), (-1) ** k))
    K = draw(st.integers(1, K_max))
    experts = in_ball(draw, dim, spec.R, n=K)
    raw = draw(arrays(np.float64, K, elements=st.floats(1e-3, 1.0)))
    state = dict(experts=experts, alpha=raw / raw.sum(), t=draw(st.integers(0, B)),
                 G=K if K < K_max else draw(st.integers(K_max, K_max + 3)))
    if broken == "shape":
        state["experts"] = draw(st.sampled_from([
            np.hstack([experts, experts[:, :1]]), experts[0], experts[:, :, None]]))
    elif broken == "K":  # G that gives another K, or more than K_max experts
        if draw(st.booleans()):
            state["G"] = draw(st.integers(-1, K_max + 3).filter(lambda g: min(g, K_max) != K))
        else:
            state["experts"] = np.vstack([experts, np.zeros((K_max + 1 - K, dim))])
            state["alpha"] = np.full(K_max + 1, 1.0 / (K_max + 1))
            state["G"] = K_max + 1
    elif broken == "ball":
        k = draw(st.integers(0, K - 1))
        bad = draw(st.sampled_from([np.nan, np.inf, -np.inf, "outside"]))
        if bad == "outside":
            experts[k] = spec.R * draw(st.floats(1.0 + 1e-6, 1e200)) / math.sqrt(dim)
        else:
            experts[k, draw(st.integers(0, dim - 1))] = bad
    elif broken == "alpha":
        alpha = state["alpha"]
        state["alpha"] = draw(st.sampled_from([
            alpha * 2.0, alpha * 0.5, np.append(alpha, 0.0), alpha[:, None],
            np.where(np.arange(K) == 0, np.nan, alpha),
            alpha + np.where(np.arange(K) == 0, -1.0, 1.0 / max(K - 1, 1)),  # one weight < 0
        ]))
    elif broken == "t":
        state["t"] = draw(st.integers(-3, -1) | st.integers(B + 1, B + 3) | st.just(0.5))

    before = reported_state(pool)
    if broken is not None:
        with pytest.raises(ValueError, match=SET_STATE_CHECKS[broken]) as exc:
            pool.set_state(**state)
        assert "\n" not in str(exc.value)
        assert reported_state(pool) == before
        return
    want = state["alpha"] @ experts
    pool.set_state(**state)
    experts[:] = 0.0  # the pool holds copies
    assert pool.current_output().tobytes() == want.tobytes()
    assert (pool.t, pool.G, pool.K, pool.meta.nu) == (state["t"], state["G"], K, step_size_nu(K, B))


@st.composite
def batches(draw):
    dim, n = draw(st.integers(1, 30)), draw(st.integers(1, 50))
    spec = LossSpec.create(D=draw(st.floats(0.1, 5.0)), R=draw(st.floats(0.1, 5.0)), dim=dim)
    X = in_ball(draw, dim, spec.D, n=n)
    y = np.array(draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n)))
    return spec, in_ball(draw, dim, spec.R), X, y


@given(batches())
def test_batch_mean_grad_is_the_row_mean_of_grad_loss(batch):
    spec, w, X, y = batch
    rows = [grad_loss(w, Sample(x=x, y=int(label)), spec) for x, label in zip(X, y)]
    np.testing.assert_allclose(batch_mean_grad(w, X, y, spec), np.mean(rows, axis=0),
                               rtol=0, atol=1e-12)


@st.composite
def sphere_batches(draw, max_n=300, max_dim=8):
    """Rows on the D-sphere (or, for some batches, half of them inside the
    ball), int64 labels, and a numpy generator for hypotheses on the
    R-sphere (see ``sphere_point``). D R reaches 1,600, so the margins cover
    both tails of the sigmoid, where exp(-|z|) underflows, and its middle."""
    n, dim = draw(st.integers(1, max_n)), draw(st.integers(1, max_dim))
    spec = LossSpec.create(D=draw(st.floats(0.1, 40.0)), R=draw(st.floats(0.1, 40.0)), dim=dim)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, dim))
    X *= (spec.D / np.linalg.norm(X, axis=1))[:, None]
    if draw(st.booleans()):
        X[: n // 2] *= rng.random((n // 2, 1))
    return spec, X, rng.choice(np.array([-1, 1]), n), rng


def sphere_point(draw, spec, X, rng):
    """A hypothesis on the R-sphere, along a row of X (margin +-D R there) or
    at random; or the origin, where every margin is a signed zero."""
    kind = draw(st.sampled_from(["row", "random", "origin"]))
    if kind == "origin":
        return np.zeros(spec.dim)
    u = X[draw(st.integers(0, len(X) - 1))] if kind == "row" else rng.normal(size=spec.dim)
    return u * (draw(st.sampled_from([-1.0, 1.0])) * spec.R / np.linalg.norm(u))


@given(sphere_batches(), st.sampled_from([np.int64, np.float64]), st.data())
def test_batch_mean_grad_equals_the_reference_bit_for_bit(batch, dtype, data):
    spec, X, y, rng = batch
    w = sphere_point(data.draw, spec, X, rng)
    got = batch_mean_grad(w, X, y.astype(dtype), spec)
    want = reference_batch_mean_grad(w, X, y, spec)
    assert np.array_equal(got, want) and got.tobytes() == want.tobytes()


@given(sphere_batches(), st.sampled_from([np.int64, np.float64]), st.data())
def test_batch_mean_grad_writes_into_the_buffers_it_is_given(batch, dtype, data):
    spec, X, y, rng = batch
    y = y.astype(dtype)
    buffers = grad_buffers(X, y, spec)
    for _ in range(2):  # the second call overwrites what the first left
        w = sphere_point(data.draw, spec, X, rng)
        got = batch_mean_grad(w, X, y, spec, buffers)
        want = batch_mean_grad(w, X, y, spec)
        assert got is buffers[-1]
        assert not np.shares_memory(want, got) and got.tobytes() == want.tobytes()


@st.composite
def solver_problems(draw):
    """A ``sphere_batches`` problem with its gamma and anchor: an anchor
    inside the R-ball whenever gamma > 0, and for some problems at gamma 0."""
    spec, X, y, rng = draw(sphere_batches(max_n=60, max_dim=5))
    gamma = draw(st.just(0.0) | st.floats(1e-3, 2.0))
    anchor = None
    if draw(st.booleans()) or gamma > 0:
        anchor = 0.9 * sphere_point(draw, spec, X, rng)
    return spec, X, y, gamma, anchor


UNIT = LossSpec.create(D=1.0, R=1.0, dim=2)
SPREAD = np.random.default_rng(3).normal(size=(7, 3))


@settings(max_examples=60, deadline=None)
@given(solver_problems(), st.sampled_from([np.int64, np.float64]),
       st.sampled_from([1e-3, 1e-6, 1e-9]), st.integers(1, 300))
# the anchor on the R-sphere and the data pulling outward: all 22 steps project
@example((UNIT, np.array([[1.0, 0.0], [0.8, 0.6], [1.0, 0.0]]), np.array([1, 1, 1]), 0.05,
          np.array([0.0, 1.0])), np.float64, 1e-9, 300)
# stopped by max_iters after three steps, with no certificate
@example((LossSpec.create(D=1.0, R=2.0, dim=3),
          SPREAD / np.linalg.norm(SPREAD, axis=1)[:, None], np.array([1, -1, 1, 1, -1, -1, 1]),
          0.0, None), np.int64, 1e-9, 3)
# one sample
@example((UNIT, np.array([[0.6, 0.8]]), np.array([-1]), 0.5, np.array([0.3, 0.0])),
         np.int64, 1e-6, 300)
def test_projected_gradient_equals_the_reference_loop(problem, dtype, tol, max_iters):
    spec, X, y, gamma, anchor = problem
    kwargs = dict(gamma=gamma, anchor=anchor, tol=tol, max_iters=max_iters)
    w, *rest = projected_gradient(X, y.astype(dtype), spec, **kwargs)
    w_ref, *rest_ref = reference_projected_gradient(X, y, spec, **kwargs)
    assert np.array_equal(w, w_ref) and w.tobytes() == w_ref.tobytes()
    assert rest == rest_ref


@settings(max_examples=60, deadline=None)
@given(sphere_batches(max_n=120), st.integers(1, 6), st.data())
def test_rollover_risks_equal_the_per_expert_mean_losses(batch, K, data):
    spec, X, y, rng = batch
    experts = np.array([data.draw(st.sampled_from([1.0, 0.5])) * sphere_point(data.draw, spec, X, rng)
                        for _ in range(K)])
    want = reference_expert_risks(experts, X, y, spec)
    assert np.array_equal(batch_mean_losses(experts, X, y, spec), want)

    # the pool's anchor carries the same risks of its K experts
    pool = ExpertPool(spec=spec, B=len(X), K_max=max(K, 2))
    raw = data.draw(arrays(np.float64, K, elements=st.floats(1e-3, 1.0)))
    alpha = raw / raw.sum()
    pool.set_state(experts, alpha, t=len(X))
    rec = pool.rollover(IntervalBuffer(X=X, y=y, interval_index=K))
    assert rec.anchor.weighted_loss == float(alpha.dot(want))


@given(batches())
def test_gradient_is_self_bounding(batch):
    spec, w, X, y = batch
    beta = spec.beta
    for x, label in zip(X, y):
        s = Sample(x=x, y=int(label))
        g = grad_loss(w, s, spec)
        assert float(g @ g) <= 4.0 * beta * loss(w, s, spec) * (1.0 + 1e-12)


def records(head, fields, sep):
    """Lines of ``head`` tokens followed by up to three ``fields`` tokens."""
    line = st.tuples(*(st.sampled_from(h) for h in head),
                     st.lists(st.sampled_from(fields), max_size=3))
    return st.lists(line.map(lambda p: sep.join([*p[:-1], *p[-1]])), max_size=6).map("\n".join)


LIBSVM_TEXT = st.one_of(
    st.text(max_size=200),
    st.text(alphabet="0123456789+-.:eEinfa \t\n", max_size=200),
    records([["1", "+1", "-1", "0", "2", "nan", "x"]],
            ["1:0.5", "2:-3", "2:1", "3:1e400", "1:nan", "0:1", "70000:1",
             "99999999999999999999:1", "1:x", ":", "1:1:1"], " "),
)


@given(LIBSVM_TEXT, st.none() | st.integers(1, 50))
@example("1 1:0.5\n-1 99999999999999999999:1", None)  # needs every line valid
def test_parse_libsvm_returns_samples_or_a_data_error(text, dim):
    try:
        samples = parse_libsvm(text, dim=dim)
    except DataError:  # StreamFormatError is a DataError
        return
    for s in samples:
        assert s.y in (-1, 1)
        assert s.x.shape == samples[0].x.shape and np.all(np.isfinite(s.x))


def _outcome(parse, text, dim):
    """What a parse gives: the rows as (x bytes, y), or the error's type and message."""
    try:
        return [(s.x.tobytes(), s.y) for s in parse(text, dim=dim)]
    except DataError as exc:
        return type(exc), str(exc)


@given(LIBSVM_TEXT, st.none() | st.integers(1, 50))
@example("x 1:0.5", None)  # non-numeric label
@example("1 1:0.5\n2 1:0.5", None)  # label outside +1/1/0/-1
@example("1 1:1:1", None)  # malformed token
@example("1 \u00b2:1", None)  # a digit that is not decimal: malformed
@example("1 1:x", None)  # non-numeric value
@example("1 3:1e400", None)  # non-finite value
@example("1 0:1", None)  # index < 1
@example("1 2:1 2:1", None)  # duplicate index
@example("1 2:1 1:1", None)  # decreasing index
@example("1 3:1", 2)  # index > dim
@example("1 70000:1", None)  # index > MAX_DIM
@example("1 " + "9" * 5000 + ":1", None)  # index too long for int()
@example("+1 1:0.5 3:-0.25\n\n-1\x0c 0 \u0663:2\u2028 1.0 2:1e-3\r\n-0.0", None)
def test_parse_libsvm_matches_the_reference_parser(text, dim):
    assert _outcome(parse_libsvm, text, dim) == _outcome(reference_parse_libsvm, text, dim)


SEEDS = st.integers(0, 2**64 - 1)


@given(SEEDS, st.integers(0, 300), st.integers(0, 300))
def test_draws_do_not_depend_on_how_requests_are_split(seed, n, m):
    for draw in ("raw", "uniforms"):
        parts = CounterRng(seed)
        split = np.concatenate([getattr(parts, draw)(n), getattr(parts, draw)(m)])
        np.testing.assert_array_equal(split, getattr(CounterRng(seed), draw)(n + m))


@given(SEEDS, st.integers(0, 500), st.sampled_from([np.int64, np.float64]))
def test_shuffle_matches_the_reference_loop(seed, n, dtype):
    items = (np.arange(n) * 3 - 7).astype(dtype)
    rng, ref = CounterRng(seed), CounterRng(seed)
    got, want = rng.shuffle(items), reference_shuffle(ref, items)
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(rng.raw(2), ref.raw(2))  # as many draws consumed


# The property above stops at 500 items; ``fresh_proxy_samples``, the tests'
# Monte Carlo reference for w*, shuffles 10*B labels (2,000 at the desk
# shape, 20,000 at dim 200, B 2000).
@pytest.mark.parametrize("n", [2_000, 20_000])
@pytest.mark.parametrize("kind", ["labels", "arange"])
def test_shuffle_matches_the_reference_loop_at_proxy_sizes(n, kind):
    items = (np.where(np.arange(n) % 2 == 0, 1, -1).astype(np.int64)
             if kind == "labels" else np.arange(n))
    rng, ref = CounterRng(n + 1), CounterRng(n + 1)
    got, want = rng.shuffle(items), reference_shuffle(ref, items)
    assert got.dtype == want.dtype == np.int64
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(rng.raw(2), ref.raw(2))  # as many draws consumed


# Draws are made _BLOCK raw values (so _BLOCK normals) at a time: request
# sizes near and across block boundaries, and small ones of either parity.
DRAW_COUNTS = st.one_of(
    st.integers(0, 40),
    st.builds(lambda k, d: k * _BLOCK + d, st.integers(1, 3), st.integers(-1, 1)),
)


@example(seed=1, prior=0, n=0)
@example(seed=1, prior=0, n=1)
@example(seed=1, prior=1, n=_BLOCK - 1)
@example(seed=1, prior=_BLOCK + 1, n=3 * _BLOCK + 1)
@given(SEEDS, DRAW_COUNTS, DRAW_COUNTS)
def test_normals_match_the_whole_array_reference(seed, prior, n):
    rng, ref = CounterRng(seed), CounterRng(seed)
    for count in (prior, n):
        got, want = rng.normals(count), reference_normals(ref, count)
        assert got.shape == (count,)
        assert got.tobytes() == want.tobytes()
    np.testing.assert_array_equal(rng.raw(1), ref.raw(1))  # as many draws consumed


@settings(max_examples=8)
@given(SEEDS, DRAW_COUNTS, DRAW_COUNTS)
def test_raw_draws_match_the_python_integer_reference(seed, prior, n):
    rng = CounterRng(seed)
    rng.raw(prior)
    np.testing.assert_array_equal(rng.raw(n), reference_raw(seed, prior + 1, n))


@st.composite
def small_streams(draw):
    return StreamSpec(G=draw(st.integers(1, 3)), B=draw(st.integers(1, 30)),
                      dim=draw(st.integers(1, 4)), seed=draw(st.integers(0, 2**63)),
                      drift_std=draw(st.floats(0.0, 1.0)))


@given(small_streams(), st.integers(1, 3))
def test_a_longer_stream_keeps_its_first_intervals(spec, extra):
    longer = gen_synthetic(replace(spec, G=spec.G + extra))
    for a, b in zip(gen_synthetic(spec), longer):
        assert a.interval_index == b.interval_index
        for name in ("X", "y", "class_means"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))


@settings(max_examples=15)
@given(small_streams())
def test_proxy_draws_never_move_the_interval_samples(spec):
    for buf in gen_synthetic(spec):
        # interval g's samples come from substream g alone, fresh samples
        # from substream 2**32 + g
        X, y = sample_from_means(buf.class_means, spec.B, spec.D,
                                 substream(spec.seed, buf.interval_index))
        np.testing.assert_array_equal(buf.X, X)
        np.testing.assert_array_equal(buf.y, y)
    # and a run that fits w* every interval sees the same samples
    config = ExperimentConfig(stream=spec, seeds=(spec.seed,), wstar_proxy=False)
    plain = run_experiment(config).runs[0]
    proxied = run_experiment(replace(config, wstar_proxy=True)).runs[0]
    np.testing.assert_array_equal(proxied.steps, plain.steps)
    for a, b in zip(proxied.intervals, plain.intervals):
        assert a.regret_co2_vs_wstar is not None
        assert replace(a, regret_co2_vs_wstar=None, regret_ogd_vs_wstar=None) == b


@given(G=st.integers(2, 4), B=st.integers(4, 40), dim=st.integers(1, 6),
       K_max=st.integers(2, 4), strategy=st.sampled_from(STRATEGIES),
       init_policy=st.sampled_from(INIT_POLICIES), drift=st.floats(0.0, 2.0),
       seed=st.integers(0, 2**32 - 1), wstar_proxy=st.booleans(),
       D=st.floats(0.1, 10.0), R_share=st.floats(0.01, 1.0))
def test_every_interval_keeps_its_guarantees(G, B, dim, K_max, strategy, init_policy,
                                             drift, seed, wstar_proxy, D, R_share):
    # D R <= 10, below the products at which an ERM solve on a separable
    # interval can run out of iterations; R runs from D / 1000 to 1000 D
    R = R_share * 10.0 / D
    config = ExperimentConfig(
        stream=StreamSpec(G=G, B=B, dim=dim, seed=seed, drift_std=drift, D=D), seeds=(seed,),
        R=R, K_max=K_max, strategy=strategy, init_policy=init_policy, wstar_proxy=wstar_proxy)
    run = run_experiment(config).runs[0]  # raises BoundViolation on any failed bound
    assert_runs_its_intervals(run, G, B)


def assert_runs_its_intervals(run, G, B):
    """Every interval recorded, with the regret identity and its alpha rows
    on the simplex."""
    assert [m.g for m in run.intervals] == list(range(1, G + 1))
    for m in run.intervals:
        assert abs(m.regret_co2 - (m.regret_me + m.regret_ke)) <= 1e-9
        alphas = run.steps[(m.g - 1) * B:m.g * B, 4:]  # post-update weights, row per step
        live, past_k = alphas[:, :m.K], alphas[:, m.K:]
        assert np.all(live >= 0.0)
        np.testing.assert_allclose(live.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert np.all(past_k == 0.0)


@st.composite
def adversarial_intervals(draw, kind):
    """A config and an interval set of a kind the Gaussian generator does not
    give: rows on the D-sphere, one point repeated with alternating labels,
    all-zero rows, or fixed rows whose labels flip each interval. D and R are
    drawn as in ``test_every_interval_keeps_its_guarantees``."""
    G, B, dim = draw(st.integers(1, 3)), draw(st.integers(1, 40)), draw(st.integers(1, 4))
    D = draw(st.floats(0.1, 10.0))
    R = draw(st.floats(0.01, 1.0)) * 10.0 / D
    X = draw(arrays(np.float64, (G, B, dim), elements=st.floats(-1.0, 1.0))) * (D / dim ** 0.5)
    y = np.array(draw(st.lists(st.sampled_from([-1, 1]), min_size=G * B,
                               max_size=G * B))).reshape(G, B)
    if kind == "sphere":  # a zero row becomes D e_1; scaled by its largest entry first,
        top = np.abs(X).max(axis=-1, keepdims=True)  # so a tiny row's norm is exact enough
        X = np.where(top > 0, X / np.where(top > 0, top, 1.0), np.eye(dim)[0])
        X *= D / np.linalg.norm(X, axis=-1, keepdims=True)
    elif kind == "repeated_point":
        X[:] = X[0, 0]
        y[:] = np.where(np.arange(B) % 2 == 0, 1, -1)
    elif kind == "zero_rows":
        X[:] = 0.0
    else:  # flipping_labels
        X[:] = X[0]
        y = y[0] * np.where(np.arange(G) % 2 == 0, 1, -1)[:, None]
    config = ExperimentConfig(
        stream=StreamSpec(G=G, B=B, dim=dim, D=D), seeds=(0,), R=R,
        K_max=draw(st.integers(2, 4)), strategy=draw(st.sampled_from(STRATEGIES)),
        init_policy=draw(st.sampled_from(INIT_POLICIES)))
    return config, [IntervalBuffer(X=X[g], y=y[g], interval_index=g + 1) for g in range(G)]


@pytest.mark.parametrize("kind", ["sphere", "repeated_point", "zero_rows", "flipping_labels"])
@settings(max_examples=20)
@given(data=st.data())
def test_every_interval_set_keeps_its_guarantees(kind, data):
    config, intervals = data.draw(adversarial_intervals(kind))
    run = _run_seed(config, 0, intervals)  # raises BoundViolation on any failed bound
    assert_runs_its_intervals(run, config.stream.G, config.stream.B)


@st.composite
def interval_tables(draw):
    """What ``_interval_metrics`` reads of one interval: B steps' records, each
    with K expert losses in [0, 1] and its ``alpha_after``, the weights the
    first step used (so B + 1 weight rows on the simplex), and each step's
    co2, OGD and ERM losses in [0, 1]."""
    B, K = draw(st.integers(1, 400)), draw(st.integers(1, 5))
    unit = st.floats(0.0, 1.0)
    table = draw(arrays(np.float64, (B, K), elements=unit))
    weights = draw(arrays(np.float64, (B + 1, K), elements=st.floats(1e-3, 1.0)))
    weights /= weights.sum(axis=1, keepdims=True)
    rows = draw(arrays(np.float64, (B, 2), elements=unit))
    erm_losses = draw(arrays(np.float64, B, elements=unit))
    recs = [StepRecord(float(rows[t, 0]), table[t], weights[t + 1]) for t in range(B)]
    return MetaWeights(weights[0], step_size_nu(K, B)), rows, recs, erm_losses


@given(interval_tables())
def test_the_metrics_arithmetic_decides_the_regret_identities(interval):
    # R_KE <= R_OE because the online expert is one of the experts, and
    # R_CO2 = R_ME + R_KE up to the rounding of two subtractions
    meta, rows, recs, erm_losses = interval
    m = _interval_metrics(UNIT, 0, 1, meta, rows, recs, erm_losses, None)
    assert m.regret_ke <= m.regret_oe
    largest = max(m.cum_loss_co2, m.erm_cum_loss,
                  float(np.array([rec.losses_per_expert for rec in recs]).sum(axis=0).max()))
    assert abs(m.regret_co2 - (m.regret_me + m.regret_ke)) <= 2 * math.ulp(largest)


def metric_floats(record) -> list[float]:
    """A metrics record's floats, without the solver's stopping certificate."""
    return [v for k, v in asdict(record).items() if isinstance(v, float) and k != "grad_map_norm"]


@settings(max_examples=20)
@given(dim=st.integers(2, 8), G=st.integers(1, 6), B=st.integers(1, 60), K_max=st.integers(2, 3),
       strategy=st.sampled_from(STRATEGIES), init_policy=st.sampled_from(INIT_POLICIES),
       D=st.floats(0.5, 2.0), R_over_D=st.floats(0.25, 2.5), seed=st.integers(0, 2**32 - 1))
def test_a_rotation_moves_no_metric_and_a_negation_no_bit(dim, G, B, K_max, strategy,
                                                          init_policy, D, R_over_D, seed):
    # the losses read x only through <w, x> and y <w, x>, and every expert
    # starts at zero, so for an orthogonal M (a random Q or a permutation P)
    # X M^T turns each iterate by M, and (-X, -y) leaves it. The population
    # optimum w* turns with the class means, so its metrics move by rounding
    # alone; under the negation the classes swap, and so does the order of
    # w*'s nodes
    config = ExperimentConfig(
        stream=StreamSpec(G=G, B=B, dim=dim, seed=seed, D=D), seeds=(seed,), R=D * R_over_D,
        K_max=K_max, strategy=strategy, init_policy=init_policy)
    intervals = gen_synthetic(config.stream)
    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
    P = np.eye(dim)[rng.permutation(dim)]  # a coordinate permutation, orthogonal too
    plain = _run_seed(config, seed, intervals)
    assert plain.intervals[0].regret_co2_vs_wstar is not None
    for M in (Q, P):
        turned = _run_seed(config, seed, [replace(b, X=b.X @ M.T, class_means=b.class_means @ M.T)
                                          for b in intervals])
        np.testing.assert_allclose(turned.steps, plain.steps, rtol=0, atol=1e-12)
        for got, want in zip(turned.intervals + turned.rollovers,
                             plain.intervals + plain.rollovers):
            np.testing.assert_allclose(metric_floats(got), metric_floats(want),
                                       rtol=0, atol=1e-12)
        assert ([r.iterations for r in turned.rollovers]
                == [r.iterations for r in plain.rollovers])
    negated = _run_seed(config, seed, [replace(b, X=-b.X, y=-b.y, class_means=-b.class_means[::-1])
                                       for b in intervals])
    assert negated.steps.tobytes() == plain.steps.tobytes()
    for got, want in zip(negated.intervals + negated.rollovers,
                         plain.intervals + plain.rollovers):
        np.testing.assert_allclose(metric_floats(got), metric_floats(want), rtol=0, atol=1e-12)


# log-uniform over the positive floats, from the smallest subnormal up to 1e308
POSITIVE_FLOATS = st.floats(-744.4, 709.2).map(math.exp)


# the config draws of both tests below
CONFIG_DRAWS = dict(
    D=POSITIVE_FLOATS, R=POSITIVE_FLOATS, gamma_floor=POSITIVE_FLOATS,
    delta=st.floats(-744.4, -1e-15).map(math.exp),  # in (0, 1)
    B=POSITIVE_FLOATS.map(math.ceil), K_max=st.floats(0.7, 709.2).map(math.exp).map(math.ceil),
    G=st.integers(1, 30))


@settings(max_examples=300)
@given(**CONFIG_DRAWS)
# 6 D sqrt(T beta) overflows, which a rule on the transfer gap alone let through
@example(D=1e154, R=2.5e-150, gamma_floor=0.1, delta=0.05, B=20000, K_max=5, G=2)
# 32 beta / gamma_floor^2 is a few ulps below the float range's end, which
# 2 omega_star = 8 R^2 at the largest omega_star a run can measure crosses
@example(D=1e146, R=1e146, gamma_floor=2.1095373229726e-154, delta=0.05, B=200, K_max=5, G=2)
def test_a_config_the_rule_takes_gives_finite_bounds_at_every_reachable_input(
        D, R, gamma_floor, delta, B, K_max, G):
    try:
        config = ExperimentConfig(stream=StreamSpec(G=G, B=B, D=D), seeds=(0,), R=R,
                                  K_max=K_max, gamma_floor=gamma_floor, delta=delta)
    except ConfigError:
        return
    beta, cap = config.loss_spec.beta, 4.0 * R * R
    rate = max(6.0 * D, 2.0 * (R / D) * R + 4.0 * D)  # the OGD bound over sqrt(T beta)
    gammas = (gamma_floor, max(1.0 / cap if cap else math.inf, gamma_floor))
    for gamma in gammas:
        for omega_star in (0.0, cap):
            for weighted_loss in (0.0, 1.0):
                for regret_KE in (-B, 0, B):
                    report = bound_report(config.bound_inputs(
                        (), gamma=gamma, regret_KE=regret_KE, omega_star=omega_star,
                        weighted_loss=weighted_loss))
                    assert all(math.isfinite(v) for k, v in report.items() if k != "inputs")
                    exponent = rate * math.sqrt(beta) - regret_KE / math.sqrt(B)
                    if exponent < 709.0:  # where 2 exp(exponent) is finite
                        assert math.exp(report["k_condition_log_rhs"]) == pytest.approx(
                            2.0 * math.exp(exponent), rel=1e-12)


BOUND_NAMES = tuple(name for name in bound_report(
    ExperimentConfig(stream=StreamSpec(), seeds=(0,)).bound_inputs(())) if name != "inputs")


@settings(max_examples=300)
@given(**CONFIG_DRAWS)
@example(D=1.0, R=1.0, gamma_floor=0.1, delta=1e-320, B=200, K_max=5, G=15)  # log(16/delta)
@example(D=1e154, R=2.5e-150, gamma_floor=0.1, delta=0.05, B=20000, K_max=5, G=2)  # OGD bound
def test_a_refusal_names_a_setting_only_when_that_setting_decides_it(
        D, R, gamma_floor, delta, B, K_max, G):
    try:
        ExperimentConfig(stream=StreamSpec(G=G, B=B, D=D), seeds=(0,), R=R, K_max=K_max,
                         gamma_floor=gamma_floor, delta=delta)
        return
    except ConfigError as exc:
        message = str(exc)
    try:
        beta = LossSpec(D=D, R=R, dim=1).beta
    except ConfigError as refusal:  # refused before any bound is computed
        assert message == str(refusal)
        assert message.startswith(("beta = ", f"R={R!r}: 1/(4 R^2) must be a finite number"))
        return
    # the transfer gap where a run's is largest, at the two weights a run can reach
    cap = 4.0 * R * R
    def gap_is_finite(gamma):
        return math.isfinite(transfer_gap_bound(cap, beta, gamma, 1.0))
    if not gap_is_finite(max(1.0 / cap, gamma_floor)):
        assert message.startswith(f"R={R!r}: ")
    elif not gap_is_finite(gamma_floor):
        assert message.startswith(f"gamma_floor={gamma_floor!r}: transfer_gap_bound must be ")
    else:
        name = message.split(" ", 1)[0]
        assert name in BOUND_NAMES
        assert re.match(f"{name} must be a finite number, got (inf|nan) at T={B}, ", message)
