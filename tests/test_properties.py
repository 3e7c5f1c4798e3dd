"""Property tests for the invariants the per-sample step no longer re-checks.

The step path trusts what it computes: ``update_weights`` does not re-check
that its losses lie in [0, 1] or that the new weights are on the simplex,
``MetaWeights`` and ``OnlineExpertState`` do not validate themselves, and
``ogd_step`` does not re-check the iterate's ball. These tests show that the
code keeps each of those invariants for every input in its domain, that the
pool's fused step and the gemv batch gradient equal the per-sample reference
functions, that the loss is self-bounding, and that the two stream parsers,
where outside text enters, fail only with the documented errors.
"""

import math

import numpy as np
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import arrays

from co2learn.errors import DataError
from co2learn.geometry import Sample, project_to_ball
from co2learn.losses import LossSpec, batch_losses, batch_mean_grad, grad_loss, loss
from co2learn.meta import MetaWeights, combine, update_weights
from co2learn.online import OnlineExpertState, init_online, ogd_step
from co2learn.pool import ExpertPool
from co2learn.streams import load_stream, parse_libsvm


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
    return spec.constants, grads


@given(ogd_runs())
def test_ogd_iterate_stays_in_ball_for_any_gradient(run):
    constants, grads = run
    state = init_online("cold", constants)
    for grad in grads:
        state = ogd_step(state, grad)
        assert np.linalg.norm(state.w) <= constants.R * (1.0 + 1e-12)
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
    """A spec, an arbitrary pool state and a sample in the loss's domain."""
    dim, K = draw(st.integers(1, 30)), draw(st.integers(1, 8))
    spec = LossSpec.create(D=draw(st.floats(0.1, 5.0)), R=draw(st.floats(0.1, 5.0)), dim=dim)
    B = draw(st.integers(1, 400))
    experts = in_ball(draw, dim, spec.constants.R, n=K)
    raw = draw(arrays(np.float64, K, elements=st.floats(1e-3, 1.0)))
    meta = MetaWeights(alpha=raw / raw.sum(), nu=draw(st.floats(0.0, 4.0)), K=K)
    t_pool, t_ogd = draw(st.integers(0, B - 1)), draw(st.integers(1, 10 * B))
    x = in_ball(draw, dim, spec.constants.D)
    return spec, B, experts, meta, t_pool, t_ogd, Sample(x=x, y=draw(st.sampled_from([-1, 1])))


@given(pool_states())
def test_step_matches_the_reference_chain(state):
    spec, B, experts, meta, t_pool, t_ogd, s = state
    K = len(experts)
    pool = ExpertPool(spec=spec, B=B, K_max=max(K, 2))
    pool.offline = list(experts[:-1])
    pool.online = OnlineExpertState(w=experts[-1].copy(), t=t_ogd, constants=spec.constants)
    pool.G, pool.t, pool.meta = K, t_pool, meta

    rec = pool.process_labeled(s)

    losses = batch_losses(s.x, experts, s.y, spec)
    w_t = combine(meta, list(experts))
    after = update_weights(meta, losses)
    online = ogd_step(OnlineExpertState(w=experts[-1], t=t_ogd, constants=spec.constants),
                      grad_loss(experts[-1], s, spec))
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
def batches(draw):
    dim, n = draw(st.integers(1, 30)), draw(st.integers(1, 50))
    spec = LossSpec.create(D=draw(st.floats(0.1, 5.0)), R=draw(st.floats(0.1, 5.0)), dim=dim)
    X = in_ball(draw, dim, spec.constants.D, n=n)
    y = np.array(draw(st.lists(st.sampled_from([-1, 1]), min_size=n, max_size=n)))
    return spec, in_ball(draw, dim, spec.constants.R), X, y


@given(batches())
def test_batch_mean_grad_is_the_row_mean_of_grad_loss(batch):
    spec, w, X, y = batch
    rows = [grad_loss(w, Sample(x=x, y=int(label)), spec) for x, label in zip(X, y)]
    np.testing.assert_allclose(batch_mean_grad(w, X, y, spec), np.mean(rows, axis=0),
                               rtol=0, atol=1e-12)


@given(batches())
def test_gradient_is_self_bounding(batch):
    spec, w, X, y = batch
    beta = spec.constants.beta
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
STREAM_TEXT = st.one_of(
    st.text(alphabet=st.characters(max_codepoint=127), max_size=200),
    records([["1", "2", "x"], ["1", "2"], ["1", "-1", "0", "5"]],
            ["0.5", "-0.25", "nan", "inf", "1e400", "x", ""], ","),
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


@given(STREAM_TEXT)
def test_load_stream_returns_intervals_or_a_data_error(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz_stream.csv"
    path.write_text(text)
    try:
        intervals = load_stream(str(path))
    except DataError:
        return
    for buf in intervals:
        assert np.all(np.isin(buf.y, (-1, 1))) and np.all(np.isfinite(buf.X))
