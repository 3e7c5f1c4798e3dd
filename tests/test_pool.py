import dataclasses
import math

import numpy as np
import pytest

from co2learn.errors import ConfigError
from co2learn.geometry import Sample, project_to_ball
from co2learn.losses import LossSpec, batch_losses, grad_loss
from co2learn.meta import MetaWeights, step_size_nu
from co2learn.online import OnlineExpertState, ogd_step
from co2learn import pool as pool_module
from co2learn.pool import ExpertPool
from co2learn.streams import IntervalBuffer, StreamSpec, gen_synthetic, generate


@pytest.fixture(scope="module")
def spec():
    return LossSpec.create(D=1.0, R=1.0, dim=2)


def make_interval(seed, B):
    return gen_synthetic(StreamSpec(G=1, B=B, dim=2, seed=seed))[0]


class TestSingleExpertDegeneracy:
    def test_pool_equals_bare_ogd(self, spec):
        buf = make_interval(seed=31, B=120)
        pool = ExpertPool(spec=spec, B=120, K_max=5)
        ogd = OnlineExpertState(w=np.zeros(spec.dim), t=1)
        for i in range(buf.n):
            s = Sample(x=buf.X[i], y=int(buf.y[i]))
            w_t = pool.current_output()
            rec = pool.process_labeled(s)
            np.testing.assert_array_equal(w_t, ogd.w)
            assert rec.alpha_after[0] == 1.0
            ogd = ogd_step(ogd, grad_loss(ogd.w, s, spec), spec)


class TestScriptedStep:
    def test_two_expert_step_matches_hand_computation(self, spec):
        B = 50
        pool = ExpertPool(spec=spec, B=B, K_max=5)
        # a two-expert state as after one rollover, two samples into the interval
        w_off = np.array([0.3, 0.0])
        w_on = np.array([0.0, 0.2])
        meta = MetaWeights.fresh(2, B)
        pool.set_state([w_off, w_on], meta.alpha, t=2)
        s = Sample(x=np.array([0.6, -0.5]), y=1)

        w_out, alpha_t = pool.current_output(), pool.meta.alpha
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
        step = 1.0 / math.sqrt(spec.beta * 3)
        w_on_next = w_on - step * grad
        if np.linalg.norm(w_on_next) > 1:
            w_on_next = w_on_next / np.linalg.norm(w_on_next)

        np.testing.assert_allclose(w_out, w_t, rtol=1e-14)
        np.testing.assert_allclose(rec.losses_per_expert, [l_off, l_on], rtol=1e-12)
        np.testing.assert_allclose(alpha_t, alpha, rtol=1e-14)
        np.testing.assert_allclose(rec.alpha_after, alpha_next, rtol=1e-12)
        np.testing.assert_allclose(pool.online.w, w_on_next, rtol=1e-12)
        assert pool.online.t == 4

    def test_identical_experts_keep_init_weights(self, spec):
        B = 30
        pool = ExpertPool(spec=spec, B=B, K_max=5)
        w = np.array([0.1, -0.2])
        meta = MetaWeights.fresh(3, B)
        pool.set_state([w, w, w], meta.alpha)
        w_t, alpha_t = pool.current_output(), pool.meta.alpha
        rec = pool.process_labeled(Sample(x=np.array([0.5, 0.5]), y=-1))
        np.testing.assert_allclose(w_t, w, rtol=1e-14)
        np.testing.assert_allclose(rec.alpha_after, alpha_t, rtol=1e-14)


class TestStepRecord:
    def test_a_record_holds_what_the_step_computed(self):
        assert pool_module.StepRecord._fields == (
            "loss_meta", "losses_per_expert", "alpha_after")

    def test_a_wide_interval_s_records_hold_under_1_mb(self, traced):
        # B 2000 at dim 200: a record holding the step's 200-float output
        # would make the list about 4 MB; the pool keeps that output as state
        B, dim = 2000, 200
        buf = gen_synthetic(StreamSpec(G=1, B=B, dim=dim, seed=0))[0]
        pool = ExpertPool(spec=LossSpec.create(D=1.0, R=1.0, dim=dim), B=B, K_max=5)
        samples = buf.samples
        _, held, recs = traced(lambda: [pool.process_labeled(s) for s in samples])
        assert len(recs) == B and held < 1_000_000


class TestPredictUnlabeled:
    def test_signs_and_tiebreak(self, spec):
        pool = ExpertPool(spec=spec, B=10, K_max=5)
        pool.set_state([[1.0, 0.0]], [1.0])
        assert pool.predict_unlabeled(np.array([2.0, 0.0])) == 1
        assert pool.predict_unlabeled(np.array([-2.0, 0.0])) == -1
        assert pool.predict_unlabeled(np.array([0.0, 3.0])) == 1  # orthogonal -> +1

    def test_accepts_a_list(self, spec):
        pool = ExpertPool(spec=spec, B=10, K_max=5)
        pool.set_state([[0.6, -0.6]], [1.0])
        assert pool.predict_unlabeled([0.2, 0.5]) == -1
        assert pool.predict_unlabeled([1, 0]) == 1

    @pytest.mark.parametrize("x", [np.zeros(3), np.zeros(1), np.zeros((2, 1)), [0.1, 0.2, 0.3]])
    def test_dimension_mismatch_raises(self, spec, x):
        pool = ExpertPool(spec=spec, B=10, K_max=5)
        with pytest.raises(ValueError, match="dimension mismatch"):
            pool.predict_unlabeled(x)

    @pytest.mark.parametrize("x", [
        [np.nan, 0.0], [np.inf, 0.0], [0.0, -np.inf], [np.inf, -np.inf],
        [1.7e308, 1.7e308],  # finite entries whose score overflows
    ])
    def test_non_finite_score_raises(self, spec, x):
        pool = ExpertPool(spec=spec, B=10, K_max=5)
        with pytest.raises(ValueError, match="not finite"):
            pool.predict_unlabeled(np.array([np.nan, 0.0]))  # against the zero output
        pool.set_state([[0.6, 0.8]], [1.0])
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="not finite"):
            pool.predict_unlabeled(np.array(x))

    def test_current_output_is_a_copy(self, spec):
        pool = ExpertPool(spec=spec, B=10, K_max=5)
        pool.set_state([[1.0, 0.0]], [1.0])
        pool.current_output()[:] = -1.0
        np.testing.assert_array_equal(pool.current_output(), [1.0, 0.0])
        assert pool.predict_unlabeled(np.array([1.0, 0.0])) == 1

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

    @pytest.mark.parametrize("setting", [
        dict(gamma_floor=float("inf")),
        dict(gamma_floor=-1.0),
        dict(gamma_floor=float("nan")),
        dict(gamma_floor=0.0),  # gamma would be 0 on an anchor with WL = 0
    ])
    def test_bad_solver_settings_rejected_when_built(self, spec, setting):
        with pytest.raises(ValueError, match=next(iter(setting))):
            ExpertPool(spec=spec, B=5, K_max=3, **setting)

    @pytest.mark.parametrize("name", ["B", "K_max"])
    @pytest.mark.parametrize("value", [2.5, True, 0])
    def test_non_integer_or_small_sizes_rejected_when_built(self, spec, name, value):
        # B=2.5 would take three samples and then never reach a rollover
        sizes = {"B": 5, "K_max": 3, name: value}
        with pytest.raises(ConfigError, match=f"{name} must be an integer"):
            ExpertPool(spec=spec, **sizes)

    @pytest.mark.parametrize("x,y", [
        ([0.1, 0.2, 0.3], 1), ([[0.1, 0.2]], 1), ([np.nan, 0.0], 1), ([np.inf, 0.0], -1),
        ([7.0, 0.0], 1), ([0.1, 0.2], 0),
    ], ids=["dim_3", "row", "nan", "inf", "norm_7", "label_0"])
    def test_bad_sample_rejected_with_one_line_and_no_state_change(self, spec, x, y):
        buf = make_interval(seed=35, B=5)
        pool = ExpertPool(spec=spec, B=5, K_max=3)
        pool.process_labeled(Sample(buf.X[0], int(buf.y[0])))
        t, alpha, w, output = pool.t, pool.meta.alpha.copy(), pool.online, pool.current_output()
        with pytest.raises(ValueError) as exc:
            pool.process_labeled(Sample(x, y))
        assert "\n" not in str(exc.value)
        assert pool.t == t and pool.online.t == w.t
        np.testing.assert_array_equal(pool.meta.alpha, alpha)
        np.testing.assert_array_equal(pool.online.w, w.w)
        np.testing.assert_array_equal(pool.current_output(), output)

    def test_bad_step_index_raises_with_no_state_change(self, spec):
        # a step index below 0 has no OGD step size; set_state rejects it whole
        pool = ExpertPool(spec=spec, B=5, K_max=3)
        meta = MetaWeights.fresh(2, 5)
        pool.set_state([[0.3, 0.0], [0.0, 0.2]], meta.alpha, t=1)
        output = pool.current_output()
        with pytest.raises(ValueError, match="t must be an integer >= 0 and <= 5, got -1"):
            pool.set_state([[0.1, 0.0], [0.0, 0.1]], [0.5, 0.5], t=-1)
        assert (pool.t, pool.G, pool.meta.nu) == (1, 2, meta.nu)
        np.testing.assert_array_equal(pool.meta.alpha, [0.25, 0.75])
        np.testing.assert_array_equal(np.vstack(pool.offline), [[0.3, 0.0]])
        np.testing.assert_array_equal(pool.online.w, [0.0, 0.2])
        np.testing.assert_array_equal(pool.current_output(), output)

    def test_rollover_needs_full_interval(self, spec):
        buf = make_interval(seed=34, B=5)
        pool = ExpertPool(spec=spec, B=5, K_max=3)
        pool.process_labeled(Sample(x=buf.X[0], y=int(buf.y[0])))
        with pytest.raises(RuntimeError):
            pool.rollover(buf)


class TestSetState:
    @pytest.mark.parametrize("name", ["offline", "online", "meta", "G", "t"])
    def test_the_views_cannot_be_assigned(self, spec, name):
        pool = ExpertPool(spec=spec, B=5, K_max=3)
        with pytest.raises(AttributeError):
            setattr(pool, name, getattr(pool, name))

    @pytest.mark.parametrize("state,message", [
        # what `pool.offline = [w]` alone gave: G = 2 wants two experts, one is given
        (dict(experts=[[0.3, 0.0]], alpha=[0.25, 0.75], G=2), "need 1 <= K = min"),
        (dict(experts=[[0.3, 0.0], [np.nan, 0.0]], alpha=[0.25, 0.75]), "got nan"),
        (dict(experts=[[0.3, 0.0], [3.0, 4.0]], alpha=[0.25, 0.75]), "got 5.0"),
        (dict(experts=[[0.3, 0.0], [0.0, 0.2]], alpha=[2.0, 3.0]), "summing to 1"),
    ], ids=["K_mismatch", "nan", "norm_5", "alpha_sum"])
    def test_a_bad_state_is_rejected_in_one_line(self, spec, state, message):
        # each of these was accepted when the state had a setter per part;
        # test_properties checks every rule of set_state on drawn states
        pool = ExpertPool(spec=spec, B=5, K_max=3)
        with pytest.raises(ValueError, match=message) as exc:
            pool.set_state(**state)
        assert "\n" not in str(exc.value)
        assert (pool.K, pool.t) == (1, 0)

    def test_the_state_is_copied_and_steps_from_where_it_was_set(self, spec):
        pool = ExpertPool(spec=spec, B=5, K_max=3, strategy="fifo")
        experts, alpha = np.array([[0.3, 0.0], [0.1, 0.1], [0.0, 0.2]]), np.array([0.2, 0.3, 0.5])
        pool.set_state(experts, alpha, t=4, G=7)
        output = alpha @ experts
        experts[:], alpha[:] = 0.0, 1.0 / 3
        assert (pool.G, pool.K, pool.t, pool.online.t) == (7, 3, 4, 5)
        assert pool.meta.nu == step_size_nu(3, 5)  # nu is derived, never set
        np.testing.assert_array_equal(pool.meta.alpha, [0.2, 0.3, 0.5])
        np.testing.assert_allclose(output, [0.09, 0.13], rtol=1e-15)
        assert pool.current_output().tobytes() == output.tobytes()
        buf = make_interval(seed=36, B=5)
        pool.process_labeled(Sample(buf.X[0], int(buf.y[0])))
        roll = pool.rollover(buf)
        assert (roll.g_completed, roll.K, pool.G, pool.t) == (7, 3, 8, 0)
        np.testing.assert_array_equal(roll.evicted, [0.3, 0.0])


class TestReadsAreReadOnly:
    READS = {
        "offline": lambda pool, rec: pool.offline[0],
        "meta.alpha": lambda pool, rec: pool.meta.alpha,
        "alpha_after": lambda pool, rec: rec.alpha_after,
    }

    @pytest.mark.parametrize("name", READS)
    def test_writing_through_a_read_raises_and_changes_nothing(self, spec, name):
        # the twin takes no write, so a write that reached the state would show
        stream = gen_synthetic(StreamSpec(G=2, B=5, dim=2, seed=37))
        pool, twin = (ExpertPool(spec=spec, B=5, K_max=3) for _ in range(2))

        def first_steps(p):
            run_interval(p, stream[0])
            p.rollover(stream[0])
            return p.process_labeled(Sample(stream[1].X[0], int(stream[1].y[0])))

        rec, _ = first_steps(pool), first_steps(twin)
        with pytest.raises(ValueError, match="read-only"):
            self.READS[name](pool, rec)[:] = [2.0, -1.0]
        np.testing.assert_array_equal(pool.current_output(), twin.current_output())
        x = stream[1].X[1]
        assert pool.predict_unlabeled(x) == twin.predict_unlabeled(x)
        s = Sample(x, int(stream[1].y[1]))
        for got, want in zip(pool.process_labeled(s), twin.process_labeled(s)):
            np.testing.assert_array_equal(got, want)


def run_interval(pool, buf):
    records = []
    for i in range(buf.n):
        records.append(pool.process_labeled(Sample(x=buf.X[i], y=int(buf.y[i]))))
    return records


def run_interval_outputs(pool, buf):
    """Each step's output w_t, read from the pool before the step, with its record."""
    steps = []
    for i in range(buf.n):
        w_t = pool.current_output()
        steps.append((w_t, pool.process_labeled(Sample(x=buf.X[i], y=int(buf.y[i])))))
    return steps


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

    @pytest.mark.parametrize("init_policy", ["cold", "warm"])
    @pytest.mark.parametrize("strategy", ["fifo", "weight"])
    def test_rollover_ranks_evicts_and_restarts(self, spec, strategy, init_policy):
        B, K_max = 40, 4
        # the last rollover evicts, and by weight it also reorders the survivors
        stream = gen_synthetic(StreamSpec(G=4, B=B, dim=2, seed=52))
        pool = ExpertPool(spec=spec, B=B, K_max=K_max, strategy=strategy,
                          init_policy=init_policy)
        reordered = evictions = 0
        for buf in stream:
            for x, y in zip(buf.X, buf.y.tolist()):
                pool.process_labeled(Sample(x, y))
                assert pool.online.t == pool.t + 1
            offline = [w.copy() for w in pool.offline]
            alpha, online = pool.meta.alpha.copy(), pool.online.w.copy()
            roll = pool.rollover(buf)

            order = np.arange(len(offline))
            if strategy == "weight":
                order = np.argsort(alpha[:len(offline)], kind="stable")
                reordered += not np.array_equal(order, np.arange(len(offline)))
            ranked = [offline[i] for i in order]
            if len(offline) == K_max - 1:  # full: the lowest priority goes
                np.testing.assert_array_equal(roll.evicted, ranked[0])
                ranked = ranked[1:]
                evictions += 1
            else:
                assert roll.evicted is None
            np.testing.assert_array_equal(np.vstack(pool.offline),
                                          np.vstack([*ranked, roll.result.w]))
            restart = online if init_policy == "warm" else np.zeros(2)
            np.testing.assert_array_equal(pool.online.w, restart)
            assert pool.online.t == 1 and pool.t == 0
        assert evictions == 1 and reordered == (strategy == "weight")

    def test_meta_reset_and_k_accounting(self, spec):
        pool, rolls, _ = self._grown_pool(spec, "weight", G=5, K_max=3)
        assert pool.meta.K == min(pool.G, pool.K_max) == pool.K
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

    @pytest.mark.parametrize("R", [1.0, 1e7])
    def test_the_anchor_is_the_output_before_the_rollover_projected(self, R):
        # two intervals in, so the output mixes two experts; the edge state's
        # weights sum to 1 + 9e-10, so its output lies past the ball
        B = 30
        big = LossSpec.create(D=R, R=R, dim=2)
        stream = gen_synthetic(StreamSpec(G=3, B=B, dim=2, D=R, seed=61))
        pool = ExpertPool(spec=big, B=B, K_max=3)
        for buf in stream[:2]:
            run_interval(pool, buf)
            output = pool.current_output()
            roll = pool.rollover(buf)
            assert roll.anchor.v.tobytes() == project_to_ball(output, R).tobytes()
        edge = np.array([0.0, R])
        pool.set_state([edge, edge, edge], [0.5, 0.25, 0.25 + 9e-10], t=B, G=3)
        output = pool.current_output()
        roll = pool.rollover(stream[2])
        assert np.linalg.norm(output) > R * (1 + 1e-12)
        assert roll.anchor.v.tobytes() == project_to_ball(output, R).tobytes()

    @pytest.mark.parametrize("bad", ["norm_7", "nan", "dim_3", "rows"])
    def test_completed_interval_outside_the_domain_rejected_first(self, spec, bad):
        B = 20
        stream = gen_synthetic(StreamSpec(G=2, B=B, dim=2, seed=62))
        pool = ExpertPool(spec=spec, B=B, K_max=3)
        run_interval(pool, stream[0])
        pool.rollover(stream[0])
        run_interval(pool, stream[1])
        X, y = stream[1].X.copy(), stream[1].y
        if bad == "norm_7":
            X[3] = [7.0, 0.0]
        elif bad == "nan":
            X[3, 1] = np.nan
        elif bad == "dim_3":
            X = np.hstack([X, np.zeros((B, 1))])
        else:
            X, y = X[1:], y[1:]
        before = (pool.G, pool.t, np.vstack(pool.offline), pool.online, pool.meta.alpha.copy())
        with pytest.raises(ValueError, match="must have shape|is not <= D|exactly B") as exc:
            pool.rollover(IntervalBuffer(X=X, y=y, interval_index=2))
        assert "\n" not in str(exc.value)
        G, t, offline, online, alpha = before
        assert (pool.G, pool.t, pool.online.t) == (G, t, online.t)
        np.testing.assert_array_equal(np.vstack(pool.offline), offline)
        np.testing.assert_array_equal(pool.online.w, online.w)
        np.testing.assert_array_equal(pool.meta.alpha, alpha)
        pool.rollover(stream[1])  # the interval as it was still rolls over
        assert pool.G == G + 1

    def test_a_trained_expert_outside_the_ball_is_refused_with_no_state_change(
            self, spec, monkeypatch):
        # set_state's ball check, the rollover's commit, refuses the expert
        B = 5
        buf = make_interval(seed=38, B=B)
        pool = ExpertPool(spec=spec, B=B, K_max=3)
        run_interval(pool, buf)
        real = pool_module.train_offline
        monkeypatch.setattr(pool_module, "train_offline", lambda *args: dataclasses.replace(
            real(*args), w=np.array([3.0, 4.0])))
        experts = np.vstack(pool.offline + [pool.online.w])
        alpha, output = pool.meta.alpha.copy(), pool.current_output()
        with pytest.raises(ValueError, match="R=1.0, got 5.0") as exc:
            pool.rollover(buf)
        assert "\n" not in str(exc.value)
        assert (pool.G, pool.t, pool.K) == (1, B, 1)
        np.testing.assert_array_equal(np.vstack(pool.offline + [pool.online.w]), experts)
        np.testing.assert_array_equal(pool.meta.alpha, alpha)
        np.testing.assert_array_equal(pool.current_output(), output)

    def test_a_warm_rollover_at_large_R_accepts_experts_the_projection_leaves_alone(self):
        # at R = 1e7 one ulp is 1.9e-9, so an absolute slack of 1e-9 on the
        # ball check refused rows the projection counts as inside
        R, B = 1e7, 5
        big = LossSpec.create(D=R, R=R, dim=2)
        online = np.array([0.0, R * (1 + 5e-13)])
        assert project_to_ball(online, R).tobytes() == online.tobytes()
        pool = ExpertPool(spec=big, B=B, K_max=3, init_policy="warm")
        pool.set_state([online], [1.0], t=B)
        roll = pool.rollover(make_interval(seed=38, B=B))
        assert (roll.K, pool.G, pool.t) == (2, 2, 0)
        assert np.linalg.norm(roll.result.w) > R + 1e-9  # the trained expert is on the edge too
        np.testing.assert_array_equal(pool.online.w, online)

    @pytest.mark.parametrize("R", [1.0, 10.0, 1e7])
    def test_a_rollover_takes_every_state_set_state_takes(self, R):
        # alpha may sum to 1 + 1e-9, so alpha @ A can lie 1e-9 relative past
        # the R-ball and the weighted risk past 1 where every risk is 1
        big = LossSpec.create(D=R, R=R, dim=2)
        edge = np.array([0.0, R])
        pool = ExpertPool(spec=big, B=1, K_max=3)
        pool.set_state([edge, edge], [0.5, 0.5 + 9e-10], t=1)
        worst = IntervalBuffer(X=np.array([[0.0, -R]]), y=np.array([1]), interval_index=0)
        roll = pool.rollover(worst)
        assert roll.anchor.weighted_loss == 1.0
        assert np.linalg.norm(roll.anchor.v) <= R * (1 + 1e-12)
        assert (pool.G, pool.K) == (3, 3)

    def test_the_pool_takes_every_row_the_stream_conditioned_at_large_D(self):
        # one ulp of D = 1e12 is 1.2e-4, so a conditioned row can sit an ulp
        # past D, and an absolute slack of 1e-9 refused it mid-interval
        B = 50
        big = LossSpec.create(D=1e12, R=1e-12, dim=3)
        stream = generate(StreamSpec(G=2, B=B, dim=3, seed=0, D=1e12, drift_std=1e13))
        pool = ExpertPool(spec=big, B=B, K_max=3)
        for g, buf in enumerate(stream):
            if g:
                pool.rollover(stream[g - 1])
            for s in buf.samples:
                pool.process_labeled(s)
        assert (pool.G, pool.t) == (2, B)
        assert max(np.linalg.norm(buf.X, axis=1).max() for buf in stream) > 1e12

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
                out.extend(run_interval_outputs(pool, buf))
                if buf.interval_index < 3:
                    pool.rollover(buf)
            return out

        a, b = run(), run()
        for (wa, ra), (wb, rb) in zip(a, b):
            np.testing.assert_array_equal(wa, wb)
            np.testing.assert_array_equal(ra.alpha_after, rb.alpha_after)
            assert ra.loss_meta == rb.loss_meta


class TestEmittedOutputInvariants:
    def test_ball_containment_and_loss_range(self, spec):
        stream = gen_synthetic(StreamSpec(G=4, B=50, dim=2, seed=80))
        pool = ExpertPool(spec=spec, B=50, K_max=3)
        for buf in stream:
            for w_t, rec in run_interval_outputs(pool, buf):
                assert np.linalg.norm(w_t) <= 1.0 + 1e-12
                assert 0.0 <= rec.loss_meta <= 1.0
                assert np.all(rec.losses_per_expert >= 0)
                assert np.all(rec.losses_per_expert <= 1.0)
            if buf.interval_index < 4:
                pool.rollover(buf)
