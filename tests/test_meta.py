import math

import numpy as np
import pytest

from co2learn.meta import MetaWeights, combine, init_weights, step_size_nu, update_weights


class TestInitWeights:
    def test_single_expert(self):
        np.testing.assert_array_equal(init_weights(1), [1.0])

    def test_two_experts(self):
        np.testing.assert_allclose(init_weights(2), [0.25, 0.75], rtol=1e-15)

    def test_three_experts(self):
        np.testing.assert_allclose(init_weights(3), [1 / 9, 2 / 9, 2 / 3], rtol=1e-14)

    def test_five_experts(self):
        np.testing.assert_allclose(init_weights(5), [0.04, 0.06, 0.1, 0.2, 0.6], rtol=1e-14)

    @pytest.mark.parametrize("K", [1, 2, 3, 4, 5, 10, 50])
    def test_simplex_and_ascending(self, K):
        alpha = init_weights(K)
        assert abs(alpha.sum() - 1.0) <= 1e-12
        assert np.all(alpha > 0)
        assert np.all(np.diff(alpha) >= 0)
        # the lowest-priority slot always starts at 1/K^2
        assert alpha[0] == pytest.approx(1.0 / K**2, rel=1e-12)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            init_weights(0)


class TestStepSize:
    def test_single_expert_is_zero(self):
        assert step_size_nu(1, 7) == 0.0

    def test_hand_values(self):
        assert step_size_nu(2, 100) == pytest.approx(4 * math.sqrt(math.log(2) / 100), rel=1e-15)
        assert step_size_nu(3, 300) == pytest.approx(4 * math.sqrt(math.log(3) / 300), rel=1e-15)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            step_size_nu(0, 10)
        with pytest.raises(ValueError):
            step_size_nu(2, 0)


class TestCombine:
    def test_single_expert_identity(self):
        mw = MetaWeights.fresh(1, 10)
        w = np.array([0.3, -0.4])
        np.testing.assert_array_equal(combine(mw, [w]), w)

    def test_even_mix(self):
        mw = MetaWeights(alpha=np.array([0.5, 0.5]), nu=0.1)
        out = combine(mw, [np.array([1.0, 0.0]), np.array([0.0, 1.0])])
        np.testing.assert_allclose(out, [0.5, 0.5], rtol=1e-15)

    def test_identical_experts(self):
        mw = MetaWeights.fresh(4, 100)
        w = np.array([0.2, 0.1])
        np.testing.assert_allclose(combine(mw, [w] * 4), w, rtol=1e-15)

    def test_stays_in_ball(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            K = int(rng.integers(1, 6))
            experts = rng.normal(size=(K, 3))
            experts /= np.maximum(1.0, np.linalg.norm(experts, axis=1, keepdims=True))
            mw = MetaWeights.fresh(K, 50)
            assert np.linalg.norm(combine(mw, list(experts))) <= 1.0 + 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            combine(MetaWeights.fresh(2, 10), [np.zeros(2)])


class TestUpdateWeights:
    def test_equal_losses_unchanged(self):
        mw = MetaWeights.fresh(3, 100)
        out = update_weights(mw, np.array([0.4, 0.4, 0.4]))
        np.testing.assert_allclose(out.alpha, mw.alpha, rtol=1e-15)

    def test_hand_value(self):
        mw = MetaWeights(alpha=np.array([0.5, 0.5]), nu=1.0)
        out = update_weights(mw, np.array([0.0, 1.0]))
        e1 = math.exp(-1)
        np.testing.assert_allclose(out.alpha, [1 / (1 + e1), e1 / (1 + e1)], rtol=1e-14)

    def test_zero_nu_is_noop(self):
        mw = MetaWeights(alpha=np.array([0.3, 0.7]), nu=0.0)
        out = update_weights(mw, np.array([0.0, 1.0]))
        np.testing.assert_allclose(out.alpha, mw.alpha, rtol=1e-15)

    def test_simplex_preserved_under_long_runs(self):
        rng = np.random.default_rng(3)
        mw = MetaWeights.fresh(5, 400)
        for _ in range(400):
            mw = update_weights(mw, rng.uniform(0, 1, 5))
            assert abs(mw.alpha.sum() - 1.0) <= 1e-12
            assert np.all(mw.alpha > 0)

    def test_order_response(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            mw = MetaWeights(alpha=rng.dirichlet(np.ones(3)), nu=0.5)
            losses = np.array([0.1, 0.9, 0.5])
            out = update_weights(mw, losses)
            # expert 0 beat expert 1, so their weight ratio must rise
            assert out.alpha[0] / out.alpha[1] > mw.alpha[0] / mw.alpha[1]


class TestMetaRegretBound:
    """Weighted cumulative loss trails the best expert by at most
    sqrt(T ln K), for any loss sequence in [0, 1]."""

    def _weighted_regret(self, mw, loss_rows):
        cum = np.zeros(mw.K)
        weighted = 0.0
        for row in loss_rows:
            weighted += float(mw.alpha @ row)
            cum += row
            mw = update_weights(mw, row)
        return weighted - cum.min()

    @pytest.mark.parametrize("K,T,seed", [(2, 100, 0), (3, 250, 1), (5, 400, 2)])
    def test_random_sequences(self, K, T, seed):
        rng = np.random.default_rng(seed)
        mw = MetaWeights.fresh(K, T)
        regret = self._weighted_regret(mw, rng.uniform(0, 1, (T, K)))
        assert regret <= math.sqrt(T * math.log(K)) + 1e-6

    @pytest.mark.parametrize("K,T", [(2, 100), (5, 200), (5, 1000)])
    def test_adversarial_hurt_the_leader(self, K, T):
        mw = MetaWeights.fresh(K, T)
        cum = np.zeros(K)
        weighted = 0.0
        for _ in range(T):
            row = np.zeros(K)
            row[int(np.argmax(mw.alpha))] = 1.0
            weighted += float(mw.alpha @ row)
            cum += row
            mw = update_weights(mw, row)
        assert weighted - cum.min() <= math.sqrt(T * math.log(K)) + 1e-6

    def test_single_expert_degenerates(self):
        mw = MetaWeights.fresh(1, 50)
        rng = np.random.default_rng(9)
        regret = self._weighted_regret(mw, rng.uniform(0, 1, (50, 1)))
        assert regret <= 1e-6

