import math

import numpy as np
import pytest

from co2learn.geometry import Sample
from co2learn.losses import LossSpec, batch_losses, grad_loss
from co2learn.meta import MetaWeights
from co2learn.online import OnlineExpertState, init_online, ogd_step
from co2learn.pool import ExpertPool, effective_K
from co2learn.streams import StreamSpec, gen_synthetic


@pytest.fixture(scope="module")
def spec():
    return LossSpec.create(D=1.0, R=1.0, dim=2)


def make_interval(seed, B):
    return gen_synthetic(StreamSpec(G=1, B=B, dim=2, seed=seed))[0]


class TestEffectiveK:
    def test_single_interval(self):
        assert effective_K(1, 5) == 1

    def test_at_capacity(self):
        assert effective_K(5, 5) == 5

    def test_saturation(self):
        assert effective_K(100, 5) == 5

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            effective_K(0, 5)
        with pytest.raises(ValueError):
            effective_K(3, 1)


class TestSingleExpertDegeneracy:
    def test_pool_equals_bare_ogd(self, spec):
        buf = make_interval(seed=31, B=120)
        pool = ExpertPool(spec=spec, B=120, K_max=5)
        ogd = init_online("cold", spec.constants)
        for i in range(buf.n):
            s = Sample(x=buf.X[i], y=int(buf.y[i]))
            rec = pool.process_labeled(s)
            np.testing.assert_array_equal(rec.w, ogd.w)
            assert rec.alpha_after[0] == 1.0
            ogd = ogd_step(ogd, grad_loss(ogd.w, s, spec))


class TestScriptedStep:
    def test_two_expert_step_matches_hand_computation(self, spec):
        B = 50
        pool = ExpertPool(spec=spec, B=B, K_max=5)
        # inject a two-expert state as after one rollover
        w_off = np.array([0.3, 0.0])
        w_on = np.array([0.0, 0.2])
        pool.offline = [w_off.copy()]
        pool.G = 2
        pool.meta = MetaWeights.fresh(2, B)
        pool.online = OnlineExpertState(w=w_on.copy(), t=3, constants=spec.constants)
        s = Sample(x=np.array([0.6, -0.5]), y=1)

        rec = pool.process_labeled(s)

        # scripted recomputation of the same step
        alpha = np.array([0.25, 0.75])
        nu = 4 * math.sqrt(math.log(2) / B)
        w_t = alpha[0] * w_off + alpha[1] * w_on
        l_off = math.log(1 + math.exp(-np.dot(w_off, s.x))) / spec.C
        l_on = math.log(1 + math.exp(-np.dot(w_on, s.x))) / spec.C
        scaled = alpha * np.exp(-nu * np.array([l_off, l_on]))
        alpha_next = scaled / scaled.sum()
        sig = 1 / (1 + math.exp(np.dot(w_on, s.x)))
        grad = -sig / spec.C * s.x
        step = 1.0 / math.sqrt(spec.constants.beta * 3)
        w_on_next = w_on - step * grad
        if np.linalg.norm(w_on_next) > 1:
            w_on_next = w_on_next / np.linalg.norm(w_on_next)

        np.testing.assert_allclose(rec.w, w_t, rtol=1e-14)
        np.testing.assert_allclose(rec.losses_per_expert, [l_off, l_on], rtol=1e-12)
        np.testing.assert_allclose(rec.alpha_before, alpha, rtol=1e-14)
        np.testing.assert_allclose(rec.alpha_after, alpha_next, rtol=1e-12)
        np.testing.assert_allclose(pool.online.w, w_on_next, rtol=1e-12)
        assert pool.online.t == 4

    def test_identical_experts_keep_init_weights(self, spec):
        B = 30
        pool = ExpertPool(spec=spec, B=B, K_max=5)
        w = np.array([0.1, -0.2])
        pool.offline = [w.copy(), w.copy()]
        pool.G = 3
        pool.meta = MetaWeights.fresh(3, B)
        pool.online = OnlineExpertState(w=w.copy(), t=1, constants=spec.constants)
        rec = pool.process_labeled(Sample(x=np.array([0.5, 0.5]), y=-1))
        np.testing.assert_allclose(rec.w, w, rtol=1e-14)
        np.testing.assert_allclose(rec.alpha_after, rec.alpha_before, rtol=1e-14)


class TestPredictUnlabeled:
    def test_signs_and_tiebreak(self, spec):
        pool = ExpertPool(spec=spec, B=10, K_max=5)
        pool.online = OnlineExpertState(w=np.array([1.0, 0.0]), t=1, constants=spec.constants)
        assert pool.predict_unlabeled(np.array([2.0, 0.0])) == 1
        assert pool.predict_unlabeled(np.array([-2.0, 0.0])) == -1
        assert pool.predict_unlabeled(np.array([0.0, 3.0])) == 1  # orthogonal -> +1

    def test_does_not_consume_labeled_slot(self, spec):
        pool = ExpertPool(spec=spec, B=10, K_max=5)
        before = pool.t
        pool.predict_unlabeled(np.array([0.3, 0.3]))
        assert pool.t == before


class TestLifecycleGuards:
    def test_process_beyond_horizon_rejected(self, spec):
        buf = make_interval(seed=33, B=5)
        pool = ExpertPool(spec=spec, B=5, K_max=3)
        for i in range(5):
            pool.process_labeled(Sample(x=buf.X[i], y=int(buf.y[i])))
        with pytest.raises(RuntimeError):
            pool.process_labeled(Sample(x=buf.X[0], y=int(buf.y[0])))

    def test_rollover_needs_full_interval(self, spec):
        buf = make_interval(seed=34, B=5)
        pool = ExpertPool(spec=spec, B=5, K_max=3)
        pool.process_labeled(Sample(x=buf.X[0], y=int(buf.y[0])))
        with pytest.raises(RuntimeError):
            pool.rollover(buf)


def run_interval(pool, buf):
    records = []
    for i in range(buf.n):
        records.append(pool.process_labeled(Sample(x=buf.X[i], y=int(buf.y[i]))))
    return records


class TestRollover:
    def _grown_pool(self, spec, strategy, G, B=40, K_max=4, seed=50):
        stream = gen_synthetic(StreamSpec(G=G, B=B, dim=2, seed=seed))
        pool = ExpertPool(spec=spec, B=B, K_max=K_max, strategy=strategy)
        rolls = []
        for buf in stream[:-1]:
            run_interval(pool, buf)
            rolls.append(pool.rollover(buf))
        return pool, rolls, stream

    def test_growth_below_capacity(self, spec):
        pool, rolls, _ = self._grown_pool(spec, "fifo", G=3, K_max=5)
        assert [r.K for r in rolls] == [2, 3]
        assert rolls[0].evicted is None and rolls[1].evicted is None
        assert pool.K == 3 and len(pool.offline) == 2

    def test_fifo_evicts_oldest(self, spec):
        pool, _, stream = self._grown_pool(spec, "fifo", G=4, K_max=3)
        # two rollovers fit (K_max-1 = 2 slots); the third evicts the first
        first_expert = pool.offline[0].copy()
        run_interval(pool, stream[-1])
        roll = pool.rollover(stream[-1])
        assert roll.evicted is not None
        np.testing.assert_array_equal(roll.evicted, first_expert)
        # newest expert has the highest index
        np.testing.assert_array_equal(pool.offline[-1], roll.result.w)

    def test_weight_strategy_orders_by_final_weights(self, spec):
        pool, _, stream = self._grown_pool(spec, "weight", G=4, K_max=4)
        run_interval(pool, stream[-1])
        alpha = pool.meta.alpha.copy()
        offline_before = [w.copy() for w in pool.offline]
        roll = pool.rollover(stream[-1])
        order = np.argsort(alpha[: len(offline_before)], kind="stable")
        expected = [offline_before[i] for i in order] + [roll.result.w]
        expected = expected[len(expected) - (roll.K - 1):]
        for got, want in zip(pool.offline, expected):
            np.testing.assert_array_equal(got, want)

    def test_meta_reset_and_k_accounting(self, spec):
        pool, rolls, _ = self._grown_pool(spec, "weight", G=5, K_max=3)
        assert pool.meta.K == effective_K(pool.G, pool.K_max) == pool.K
        assert pool.t == 0
        assert len(pool.offline) == pool.K - 1
        np.testing.assert_allclose(pool.meta.alpha.sum(), 1.0, atol=1e-12)

    def test_anchor_weighted_loss_consistent(self, spec):
        B = 40
        stream = gen_synthetic(StreamSpec(G=2, B=B, dim=2, seed=60))
        pool = ExpertPool(spec=spec, B=B, K_max=3)
        run_interval(pool, stream[0])
        advice = pool.offline + [pool.online.w]
        alpha = pool.meta.alpha.copy()
        risks = [float(np.mean(batch_losses(w, stream[0].X, stream[0].y, spec))) for w in advice]
        roll = pool.rollover(stream[0])
        assert roll.anchor.weighted_loss == pytest.approx(float(alpha @ risks), rel=1e-12)
        np.testing.assert_allclose(
            roll.anchor.v, sum(a * w for a, w in zip(alpha, advice)), rtol=1e-14
        )

    def test_warm_policy_inherits_final_iterate(self, spec):
        B = 30
        stream = gen_synthetic(StreamSpec(G=2, B=B, dim=2, seed=61))
        pool = ExpertPool(spec=spec, B=B, K_max=3, init_policy="warm")
        run_interval(pool, stream[0])
        final_w = pool.online.w.copy()
        pool.rollover(stream[0])
        np.testing.assert_array_equal(pool.online.w, final_w)
        assert pool.online.t == 1


class TestDeterminism:
    def test_bit_identical_records(self, spec):
        stream = gen_synthetic(StreamSpec(G=3, B=25, dim=2, seed=70))

        def run():
            pool = ExpertPool(spec=spec, B=25, K_max=3)
            out = []
            for buf in stream:
                out.extend(run_interval(pool, buf))
                if buf.interval_index < 3:
                    pool.rollover(buf)
            return out

        a, b = run(), run()
        for ra, rb in zip(a, b):
            np.testing.assert_array_equal(ra.w, rb.w)
            np.testing.assert_array_equal(ra.alpha_after, rb.alpha_after)
            assert ra.loss_meta == rb.loss_meta


class TestEmittedOutputInvariants:
    def test_ball_containment_and_loss_range(self, spec):
        stream = gen_synthetic(StreamSpec(G=4, B=50, dim=2, seed=80))
        pool = ExpertPool(spec=spec, B=50, K_max=3)
        for buf in stream:
            for rec in run_interval(pool, buf):
                assert np.linalg.norm(rec.w) <= 1.0 + 1e-12
                assert 0.0 <= rec.loss_meta <= 1.0
                assert np.all(rec.losses_per_expert >= 0)
                assert np.all(rec.losses_per_expert <= 1.0)
            if buf.interval_index < 4:
                pool.rollover(buf)
