import math

import numpy as np
import pytest

from co2learn.geometry import Sample
from co2learn.offline import erm_oracle
from co2learn.losses import LossSpec, batch_losses, grad_loss
from co2learn.online import OnlineExpertState, eta, ogd_step
from co2learn.streams import StreamSpec, gen_synthetic

UNIT = LossSpec.create(D=1.0, R=1.0, dim=2)
ETA_1 = 2.0 * math.sqrt(math.log(1.0 + math.e))  # D / sqrt(beta) with beta = 1 / (4 C)


class TestEta:
    def test_first_step(self):
        assert eta(1, UNIT) == pytest.approx(ETA_1, rel=1e-15)

    def test_hand_value(self):
        assert eta(25, UNIT) == pytest.approx(ETA_1 / 5, rel=1e-15)

    def test_strictly_decreasing(self):
        values = [eta(t, UNIT) for t in range(1, 200)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            eta(0, UNIT)


class TestOgdStep:
    def test_zero_gradient(self):
        state = OnlineExpertState(w=np.array([0.1, 0.2]), t=3)
        out = ogd_step(state, np.zeros(2), UNIT)
        np.testing.assert_array_equal(out.w, state.w)
        assert out.t == 4

    def test_hand_step(self):
        state = OnlineExpertState(w=np.zeros(2), t=1)
        out = ogd_step(state, np.array([0.1, 0.0]), UNIT)
        np.testing.assert_allclose(out.w, [-0.1 * ETA_1, 0.0], rtol=1e-15)

    def test_projection_on_exit(self):
        state = OnlineExpertState(w=np.array([0.9, 0.0]), t=1)
        out = ogd_step(state, np.array([-5.0, 0.0]), UNIT)
        assert np.linalg.norm(out.w) == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        state = OnlineExpertState(w=np.zeros(2), t=1)
        with pytest.raises(ValueError):
            ogd_step(state, np.zeros(3), UNIT)

    def test_ball_containment_along_run(self):
        rng = np.random.default_rng(0)
        state = OnlineExpertState(w=np.zeros(2), t=1)
        for _ in range(300):
            state = ogd_step(state, rng.normal(size=2), UNIT)
            assert np.linalg.norm(state.w) <= 1.0 + 1e-12


class TestOgdRegretBound:
    def test_regret_within_bound_on_stream_interval(self):
        spec = LossSpec.create(D=1.0, R=1.0, dim=2)
        buf = gen_synthetic(StreamSpec(G=1, B=150, dim=2, seed=99))[0]
        state = OnlineExpertState(w=np.zeros(spec.dim), t=1)
        total = 0.0
        for i in range(buf.n):
            s = Sample(x=buf.X[i], y=int(buf.y[i]))
            total += batch_losses(state.w, buf.X[i:i + 1], buf.y[i:i + 1], spec)[0]
            state = ogd_step(state, grad_loss(state.w, s, spec), spec)
        w_hat = erm_oracle(buf.X, buf.y, spec)
        regret = total - float(batch_losses(w_hat, buf.X, buf.y, spec).sum())
        bound = 6.0 * 1.0 * math.sqrt(buf.n * spec.beta)
        assert regret <= bound + 1e-6
