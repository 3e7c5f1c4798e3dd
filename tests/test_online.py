import math

import numpy as np
import pytest

from co2learn.geometry import ProblemConstants, Sample
from co2learn.harness import erm_oracle
from co2learn.losses import LossSpec, batch_losses, grad_loss
from co2learn.online import OnlineExpertState, eta, init_online, ogd_step
from co2learn.streams import StreamSpec, gen_synthetic

UNIT = ProblemConstants(D=1.0, R=1.0, beta=1.0, dim=2)


class TestEta:
    def test_first_step(self):
        assert eta(1, UNIT) == 1.0

    def test_hand_value(self):
        c = ProblemConstants(D=1.0, R=1.0, beta=4.0, dim=2)
        assert eta(25, c) == pytest.approx(0.1, rel=1e-15)

    def test_strictly_decreasing(self):
        values = [eta(t, UNIT) for t in range(1, 200)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            eta(0, UNIT)


class TestOgdStep:
    def test_zero_gradient(self):
        state = OnlineExpertState(w=np.array([0.1, 0.2]), t=3, constants=UNIT)
        out = ogd_step(state, np.zeros(2))
        np.testing.assert_array_equal(out.w, state.w)
        assert out.t == 4

    def test_hand_step(self):
        state = OnlineExpertState(w=np.zeros(2), t=1, constants=UNIT)
        out = ogd_step(state, np.array([1.0, 0.0]))
        np.testing.assert_allclose(out.w, [-1.0, 0.0], rtol=1e-15)

    def test_projection_on_exit(self):
        state = OnlineExpertState(w=np.array([0.9, 0.0]), t=1, constants=UNIT)
        out = ogd_step(state, np.array([-5.0, 0.0]))
        assert np.linalg.norm(out.w) == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        state = OnlineExpertState(w=np.zeros(2), t=1, constants=UNIT)
        with pytest.raises(ValueError):
            ogd_step(state, np.zeros(3))

    def test_ball_containment_along_run(self):
        rng = np.random.default_rng(0)
        state = init_online("cold", UNIT)
        for _ in range(300):
            state = ogd_step(state, rng.normal(size=2))
            assert np.linalg.norm(state.w) <= 1.0 + 1e-12


class TestInitOnline:
    def test_cold(self):
        state = init_online("cold", UNIT)
        np.testing.assert_array_equal(state.w, np.zeros(2))
        assert state.t == 1

    def test_warm(self):
        prev = np.array([0.3, 0.4])
        state = init_online("warm", UNIT, previous=prev)
        np.testing.assert_array_equal(state.w, prev)
        assert state.t == 1

    def test_warm_requires_previous(self):
        with pytest.raises(ValueError):
            init_online("warm", UNIT)

    def test_warm_rejects_out_of_ball(self):
        with pytest.raises(ValueError):
            init_online("warm", UNIT, previous=np.array([1.2, 0.9]))

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            init_online("hot", UNIT)


class TestOgdRegretBound:
    def test_regret_within_bound_on_stream_interval(self):
        spec = LossSpec.create(D=1.0, R=1.0, dim=2)
        buf = gen_synthetic(StreamSpec(G=1, B=150, dim=2, seed=99))[0]
        state = init_online("cold", spec.constants)
        total = 0.0
        for i in range(buf.n):
            s = Sample(x=buf.X[i], y=int(buf.y[i]))
            total += batch_losses(state.w, buf.X[i:i + 1], buf.y[i:i + 1], spec)[0]
            state = ogd_step(state, grad_loss(state.w, s, spec))
        w_hat = erm_oracle(buf.X, buf.y, spec)
        regret = total - float(batch_losses(w_hat, buf.X, buf.y, spec).sum())
        bound = 6.0 * 1.0 * math.sqrt(buf.n * spec.constants.beta)
        assert regret <= bound + 1e-6
