"""Property tests for the invariants the per-sample step no longer re-checks.

The step path trusts what it computes: ``update_weights`` does not re-check
that its losses lie in [0, 1] or that the new weights are on the simplex,
``MetaWeights`` and ``OnlineExpertState`` do not validate themselves, and
``ogd_step`` does not re-check the iterate's ball. These tests show that the
code keeps each of those invariants for every input in its domain, and that
the two stream parsers, where outside text enters, fail only with the
documented errors.
"""

import math

import numpy as np
from hypothesis import example, given, strategies as st
from hypothesis.extra.numpy import arrays

from co2learn.errors import DataError
from co2learn.geometry import project_to_ball
from co2learn.losses import LossSpec
from co2learn.meta import MetaWeights, update_weights
from co2learn.online import init_online, ogd_step
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
