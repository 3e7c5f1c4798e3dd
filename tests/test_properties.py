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
the pool as it was, that the loss is self-bounding, and that the LIBSVM
parser, where outside text enters, fails only with the documented errors and
gives the rows or the error of the per-token reference parser. The last group
holds the generator's contract (see ``co2learn.rng`` and the substream layout
in ``co2learn.streams``) for any seed and request sizes, and the last two
tests hold the per-interval guarantees over arbitrary small runs and over
interval sets the generator does not give.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from co2learn.errors import DataError
from co2learn.geometry import Sample, project_to_ball
from co2learn.harness import ExperimentConfig, _run_seed, run_experiment
from co2learn.losses import (
    LossSpec, batch_losses, batch_mean_grad, batch_mean_losses, check_sample, grad_buffers,
    grad_loss, loss,
)
from co2learn.meta import MetaWeights, combine, update_weights
from co2learn.offline import projected_gradient
from co2learn.online import OnlineExpertState, ogd_step
from co2learn.pool import INIT_POLICIES, STRATEGIES, ExpertPool
from co2learn.rng import _BLOCK, CounterRng, substream
from co2learn.streams import (
    IntervalBuffer,
    StreamSpec,
    gen_synthetic,
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
    meta = MetaWeights(alpha=raw / raw.sum(), nu=draw(st.floats(0.0, 4.0)))
    t_pool = draw(st.integers(0, B - 1))
    x = in_ball(draw, dim, spec.D)
    return spec, B, experts, meta, t_pool, Sample(x=x, y=draw(st.sampled_from([-1, 1])))


@given(pool_states())
def test_step_matches_the_reference_chain(state):
    spec, B, experts, meta, t_pool, s = state
    K = len(experts)
    pool = ExpertPool(spec=spec, B=B, K_max=max(K, 2))
    pool.offline = list(experts[:-1])
    pool.online = OnlineExpertState(w=experts[-1].copy(), t=t_pool + 1)
    pool.G, pool.meta = K, meta

    rec = pool.process_labeled(s)

    losses = batch_losses(s.x, experts, s.y, spec)
    w_t = combine(meta, list(experts))
    after = update_weights(meta, losses)
    online = ogd_step(OnlineExpertState(w=experts[-1], t=t_pool + 1),
                      grad_loss(experts[-1], s, spec), spec)
    np.testing.assert_allclose(rec.w, w_t, rtol=0, atol=1e-12)
    assert abs(rec.loss_meta - float(batch_losses(w_t, s.x, s.y, spec))) <= 1e-12
    np.testing.assert_allclose(rec.losses_per_expert, losses, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(rec.alpha_before, meta.alpha)
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
        assume(abs(norm - (spec.D + 1e-9)) > 1e-12 * spec.D)  # clear of the boundary
        in_rule = norm <= spec.D + 1e-9 and label_ok
    accepted = accepts(x, y, spec)
    assert accepted == in_rule
    assert accepts(np.zeros(spec.dim), y, spec) == label_ok  # the label rule on its own

    # a two-expert pool part-way through an interval
    pool = ExpertPool(spec=spec, B=8, K_max=3)
    pool.offline = [np.full(spec.dim, 0.5 / math.sqrt(spec.dim))]
    pool.G, pool.meta = 2, MetaWeights.fresh(2, 8)
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


def coherent_output(pool):
    """The pool's output recomputed from the state it reports, or None if
    that state has a different number of experts and weights; in that case
    ``current_output`` must raise too."""
    try:
        want = pool.meta.alpha @ np.vstack(pool.offline + [pool.online.w])
    except ValueError:
        with pytest.raises(ValueError):
            pool.current_output()
        return None
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
            experts = in_ball(draw, dim, spec.R, n=K)
            raw = draw(arrays(np.float64, K, elements=st.floats(1e-3, 1.0)))
            values = {
                "offline": list(experts[:-1]),
                "online": OnlineExpertState(w=experts[-1].copy(), t=draw(st.integers(1, 50))),
                "meta": MetaWeights(alpha=raw / raw.sum(), nu=draw(st.floats(0.0, 4.0))),
            }
            for name in draw(st.permutations(list(values))):
                setattr(pool, name, values[name])
                want = coherent_output(pool)
            pool.G, pool.t, taken = K, 0, []
        elif op == "step" and pool.t == B:
            X = np.array([s.x for s in taken])
            y = np.array([s.y for s in taken])
            pool.rollover(IntervalBuffer(X=X, y=y, interval_index=pool.G))
            taken = []
            want = coherent_output(pool)
        elif op == "step":
            s = Sample(x=in_ball(draw, dim, spec.D), y=draw(st.sampled_from([-1, 1])))
            rec = pool.process_labeled(s)
            assert rec.w.tobytes() == want.tobytes()
            taken.append(s)
            want = coherent_output(pool)
        else:
            q = draw(vectors(dim, 3.0))
            if draw(st.booleans()):
                q = q.tolist()
            value = float(np.dot(want, q))
            assert pool.predict_unlabeled(q) == (1 if value >= 0 else -1)
            assert coherent_output(pool).tobytes() == want.tobytes()


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
    pool.offline = list(experts[:-1])
    pool.online = OnlineExpertState(w=experts[-1].copy(), t=1)
    raw = data.draw(arrays(np.float64, K, elements=st.floats(1e-3, 1.0)))
    alpha = raw / raw.sum()
    pool.G, pool.t, pool.meta = K, len(X), MetaWeights(alpha=alpha, nu=1.0)
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


# The property above stops at 500 items; the proxy draws shuffle 10*B labels
# (2,000 at the desk shape, 20,000 at dim 200, B 2000).
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
        # interval g's samples come from substream g alone, the proxy's from
        # substream 2**32 + g
        X, y = sample_from_means(buf.class_means, spec.B, spec.D,
                                 substream(spec.seed, buf.interval_index))
        np.testing.assert_array_equal(buf.X, X)
        np.testing.assert_array_equal(buf.y, y)
    # and a run that fits the proxy every interval sees the same samples
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
    # R <= D, which the config requires, and D R <= 10, below the products at
    # which an ERM solve on a separable interval can run out of iterations
    R = R_share * min(D, 10.0 / D)
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
    R = draw(st.floats(0.01, 1.0)) * min(D, 10.0 / D)
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
