import numpy as np
import pytest

from co2learn.losses import LossSpec, batch_mean_loss
from co2learn.offline import (
    Anchor,
    gamma_lower_bound,
    objective,
    omega,
    projected_gradient,
    train_offline,
)
from co2learn.streams import IntervalBuffer, StreamSpec, gen_synthetic

from oracles import grid_min_objective


@pytest.fixture(scope="module")
def spec():
    return LossSpec.create(D=1.0, R=1.0, dim=2)


def small_interval(seed=0, B=4):
    buf = gen_synthetic(StreamSpec(G=1, B=B, dim=2, seed=seed))[0]
    return buf


class TestOmega:
    def test_zero_at_anchor(self):
        a = Anchor(v=np.array([0.2, -0.1]), weighted_loss=0.5)
        assert omega(a.v, a) == 0.0

    def test_extremal_attains_cap(self):
        a = Anchor(v=np.array([-1.0, 0.0]), weighted_loss=0.5)
        assert omega(np.array([1.0, 0.0]), a) == pytest.approx(4.0, rel=1e-15)

    def test_hand_value(self):
        a = Anchor(v=np.zeros(2), weighted_loss=0.5)
        assert omega(np.array([0.5, 0.0]), a) == pytest.approx(0.25, rel=1e-15)

    def test_cap_over_random_ball_points(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(size=(2000, 2, 2))
        pts /= np.maximum(1.0, np.linalg.norm(pts, axis=2, keepdims=True))
        for w, v in pts:
            assert omega(w, Anchor(v=v, weighted_loss=0.0)) <= 4.0 + 1e-12


class TestGammaRule:
    def test_zero_loss(self):
        assert gamma_lower_bound(Anchor(v=np.zeros(2), weighted_loss=0.0), 1.0) == 0.0

    def test_hand_values(self):
        assert gamma_lower_bound(
            Anchor(v=np.zeros(2), weighted_loss=0.35), 1.0
        ) == pytest.approx(0.0875, rel=1e-15)
        assert gamma_lower_bound(
            Anchor(v=np.zeros(2), weighted_loss=1.0), 0.5
        ) == pytest.approx(1.0, rel=1e-15)

    def test_trainer_gamma_respects_floor(self, spec):
        buf = small_interval(seed=5)
        a = Anchor(v=np.zeros(2), weighted_loss=0.9)
        assert train_offline(buf, a, spec, 0.1, 1e-8).gamma == pytest.approx(max(0.9 / 4, 0.1))
        low = Anchor(v=np.zeros(2), weighted_loss=0.0)
        assert train_offline(buf, low, spec, 0.1, 1e-8).gamma == 0.1


class TestTrainOffline:
    def test_huge_gamma_pins_to_anchor(self, spec):
        buf = small_interval(seed=2, B=6)
        a = Anchor(v=np.array([0.1, 0.2]), weighted_loss=0.5)
        res = train_offline(buf, a, spec, 1e6, 1e-8)
        assert np.linalg.norm(res.w - a.v) <= 1e-3

    def test_matches_grid_search(self, spec):
        buf = small_interval(seed=3, B=4)
        a = Anchor(v=np.array([-0.2, 0.3]), weighted_loss=0.4)
        res = train_offline(buf, a, spec, 1.0, 1e-10)
        _, grid_best = grid_min_objective(
            buf.X, buf.y, spec.C, gamma=1.0, anchor=a.v
        )
        assert np.linalg.norm(res.w - grid_best) <= 2e-3

    def test_monotone_descent_from_anchor(self, spec):
        buf = small_interval(seed=4, B=8)
        a = Anchor(v=np.array([0.4, -0.5]), weighted_loss=0.6)
        res = train_offline(buf, a, spec, 0.1, 1e-8)
        assert objective(res.w, buf, a, res.gamma, spec) <= objective(
            a.v, buf, a, res.gamma, spec
        ) + 1e-15

    def test_gamma_below_floor_rejected(self, spec):
        # a gamma_floor below the admissible bound WL / (4 R^2) is never trained with
        buf = small_interval(seed=5)
        a = Anchor(v=np.zeros(2), weighted_loss=0.8)  # bound 0.2
        assert train_offline(buf, a, spec, 0.1, 1e-8).gamma == 0.2

    def test_empty_interval_rejected(self, spec):
        empty = IntervalBuffer(X=np.zeros((0, 2)), y=np.zeros(0), interval_index=1)
        a = Anchor(v=np.zeros(2), weighted_loss=0.0)
        with pytest.raises(ValueError):
            train_offline(empty, a, spec, 0.5, 1e-8)

    def test_solver_certificate(self, spec):
        buf = small_interval(seed=6, B=50)
        a = Anchor(v=np.array([0.0, 0.1]), weighted_loss=0.55)
        res = train_offline(buf, a, spec, 0.1, 1e-8)
        assert res.converged
        assert res.grad_map_norm <= 1e-8
        assert np.linalg.norm(res.w) <= 1.0 + 1e-12

    def test_anchor_distance_inequality(self, spec):
        # trained expert stays within weighted_loss/gamma of the anchor (squared)
        for seed in range(5):
            buf = small_interval(seed=seed + 10, B=60)
            v = np.array([0.3, -0.2])
            wl = float(batch_mean_loss(v, buf.X, buf.y, spec))
            a = Anchor(v=v, weighted_loss=wl)
            res = train_offline(buf, a, spec, 0.1, 1e-8)
            assert omega(res.w, a) <= wl / res.gamma + 10 * 1e-8


class TestProjectedGradient:
    def test_each_solve_returns_an_iterate_of_its_own(self, spec):
        buf = small_interval(B=20)
        anchor = np.array([0.3, -0.2])
        solves = [  # converged after several steps, converged at once, stopped by the cap
            projected_gradient(buf.X, buf.y, spec, tol=1e-9, max_iters=1000),
            projected_gradient(buf.X, buf.y, spec, gamma=0.1, anchor=anchor, tol=1.0,
                               max_iters=5),
            projected_gradient(buf.X, buf.y, spec, tol=1e-9, max_iters=2),
            projected_gradient(buf.X, buf.y, spec, tol=1e-9, max_iters=3),
        ]
        assert [(s[2], s[3]) for s in solves[1:]] == [(0, True), (2, False), (3, False)]
        iterates = [s[0] for s in solves] + [anchor]
        for i, u in enumerate(iterates):
            for v in iterates[i + 1:]:
                assert not np.shares_memory(u, v)
        assert anchor.tolist() == [0.3, -0.2] and solves[1][0].tolist() == [0.3, -0.2]


class TestObjectiveShape:
    def test_strong_convexity_probe(self, spec):
        buf = small_interval(seed=20, B=10)
        a = Anchor(v=np.array([0.1, 0.1]), weighted_loss=0.5)
        gamma = 0.7
        rng = np.random.default_rng(21)
        for _ in range(200):
            w1, w2 = rng.normal(size=(2, 2)) * 0.5
            lam = rng.uniform()
            mid = lam * w1 + (1 - lam) * w2
            lhs = objective(mid, buf, a, gamma, spec)
            rhs = (
                lam * objective(w1, buf, a, gamma, spec)
                + (1 - lam) * objective(w2, buf, a, gamma, spec)
                - 0.5 * gamma * lam * (1 - lam) * float(np.sum((w1 - w2) ** 2))
            )
            assert lhs <= rhs + 1e-9


class TestAnchorType:
    def test_weighted_loss_range(self):
        with pytest.raises(ValueError):
            Anchor(v=np.zeros(2), weighted_loss=1.5)
        with pytest.raises(ValueError):
            Anchor(v=np.zeros(2), weighted_loss=-0.1)
