import json
import os
from dataclasses import replace as dc_replace

import numpy as np
import pytest

from co2learn import harness, streams
from co2learn.errors import ConfigError, ConvergenceError
from co2learn.harness import (
    ExperimentConfig,
    _run_seed,
    emit_reports,
    run_experiment,
)
from co2learn.losses import LossSpec, batch_mean_loss, grad_loss, loss
from co2learn.offline import erm_oracle, omega
from co2learn.population import population_nodes
from co2learn.online import OnlineExpertState, ogd_step
from co2learn.pool import ExpertPool
from co2learn.rng import _BLOCK, CounterRng
from co2learn.streams import IntervalBuffer, StreamSpec, gen_synthetic

from oracles import grid_min_objective, reference_normals

# columns of SeedRun.steps; steps.csv puts seed, g, t in front of them
LOSS_CO2, LOSS_OGD, REGRET_CO2, REGRET_OGD, ALPHA = 0, 1, 2, 3, 4


def read_steps_csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


@pytest.fixture(scope="module")
def spec():
    return LossSpec.create(D=1.0, R=1.0, dim=2)


@pytest.fixture(scope="module")
def small_report():
    config = ExperimentConfig(
        stream=StreamSpec(G=4, B=60, dim=2, seed=0), seeds=(1, 2), wstar_proxy=False
    )
    return run_experiment(config)


class TestErmOracle:
    def test_single_sample_matches_grid(self, spec):
        X = np.array([[0.8, -0.4]])
        y = np.array([1])
        w = erm_oracle(X, y, spec)
        grid_best, _ = grid_min_objective(X, y, spec.C)
        assert batch_mean_loss(w, X, y, spec) <= grid_best + 1e-4

    def test_separable_pair_sits_on_boundary(self, spec):
        X = np.array([[0.9, 0.1], [-0.85, 0.05]])
        y = np.array([1, -1])
        w = erm_oracle(X, y, spec)
        assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-6)
        grid_best, _ = grid_min_objective(X, y, spec.C)
        assert batch_mean_loss(w, X, y, spec) <= grid_best + 1e-4

    def test_flip_symmetry(self, spec):
        # dataset closed under x -> -x (labels kept) makes the empirical
        # risk an even function of w, so the optimum and its negation tie
        rng = np.random.default_rng(42)
        X = rng.normal(size=(12, 2)) * 0.4
        y = rng.choice([-1, 1], 12)
        Xs = np.vstack([X, -X])
        ys = np.concatenate([y, y])
        w = erm_oracle(Xs, ys, spec)
        assert batch_mean_loss(w, Xs, ys, spec) == pytest.approx(
            batch_mean_loss(-w, Xs, ys, spec), rel=1e-9
        )

    def test_empty_rejected(self, spec):
        with pytest.raises(ValueError):
            erm_oracle(np.zeros((0, 2)), np.zeros(0), spec)

    def test_deterministic(self, spec):
        buf = gen_synthetic(StreamSpec(G=1, B=50, dim=2, seed=5))[0]
        np.testing.assert_array_equal(erm_oracle(buf.X, buf.y, spec),
                                      erm_oracle(buf.X, buf.y, spec))


class TestRunExperiment:
    def test_single_interval_degenerates_to_ogd(self):
        # with one interval the pool has a single (online) expert, so the
        # coupled losses equal the whole-stream OGD baseline's exactly
        config = ExperimentConfig(
            stream=StreamSpec(G=1, B=80, dim=2, seed=3), seeds=(9,),
            K_max=2, wstar_proxy=False,
        )
        steps = run_experiment(config).runs[0].steps
        np.testing.assert_array_equal(steps[:, LOSS_CO2], steps[:, LOSS_OGD])
        np.testing.assert_array_equal(steps[:, REGRET_CO2], steps[:, REGRET_OGD])

    def test_regret_identity_recomputed_from_rows(self, small_report):
        B = small_report.config.stream.B
        for run in small_report.runs:
            for m in run.intervals:
                assert m.regret_me + m.regret_ke == pytest.approx(m.regret_co2, abs=1e-9)
                # cumulative column at the interval's last row equals the
                # interval regret computed from the summaries
                last = run.steps[m.g * B - 1]
                assert last[REGRET_CO2] == pytest.approx(m.regret_co2, abs=1e-9)

    def test_baseline_consumes_identical_sequence(self, small_report):
        # first step of interval 1: baseline starts at w=0, same as the pool
        run = small_report.runs[0]
        first = run.steps[0]
        assert first[LOSS_CO2] == first[LOSS_OGD]

    @pytest.mark.parametrize("strategy,init_policy", [("weight", "cold"), ("fifo", "warm")])
    def test_the_step_table_is_the_pools_step_records_and_a_whole_stream_ogd(
            self, strategy, init_policy):
        # K_max 3 < G, so early rows are zero-padded and later rollovers evict
        G, B, K_max = 5, 40, 3
        config = ExperimentConfig(stream=StreamSpec(G=G, B=B), seeds=(3,), K_max=K_max,
                                  strategy=strategy, init_policy=init_policy, wstar_proxy=False)
        intervals = gen_synthetic(config.stream)
        run, spec = _run_seed(config, 3, intervals), config.loss_spec
        pool = ExpertPool(spec=spec, B=B, K_max=K_max, strategy=strategy, init_policy=init_policy)
        ogd, loss_ogd = OnlineExpertState(w=np.zeros(spec.dim), t=1), []
        for buf, m in zip(intervals, run.intervals):
            rows = run.steps[(buf.interval_index - 1) * B: buf.interval_index * B]
            befores, recs = [], []  # the weights each step used: meta.alpha read before it
            for s in buf.samples:
                befores.append(pool.meta.alpha)
                recs.append(pool.process_labeled(s))
            assert rows[:, LOSS_CO2].tolist() == [rec.loss_meta for rec in recs]
            alphas = np.zeros((B, K_max))
            alphas[:, :pool.K] = [rec.alpha_after for rec in recs]
            assert rows[:, ALPHA:].tobytes() == alphas.tobytes()
            weighted = np.array([a.dot(rec.losses_per_expert) for a, rec in zip(befores, recs)])
            best = np.array([rec.losses_per_expert for rec in recs]).sum(axis=0).min()
            assert m.regret_me_weighted == weighted.sum() - best
            for s in buf.samples:
                loss_ogd.append(loss(ogd.w, s, spec))
                ogd = ogd_step(ogd, grad_loss(ogd.w, s, spec), spec)
            if buf.interval_index < G:
                pool.rollover(buf)
        np.testing.assert_allclose(run.steps[:, LOSS_OGD], loss_ogd, rtol=0, atol=1e-12)

    def test_bounds_hold_per_interval(self, small_report):
        for run in small_report.runs:
            for m in run.intervals:
                assert m.regret_me_weighted <= m.meta_bound + 1e-6
                assert m.regret_oe <= m.ogd_bound + 1e-6
                assert m.regret_co2 <= m.co2_bound_general + 1e-6
                assert m.regret_co2 <= m.co2_bound_worst + 1e-6
                assert m.regret_ke <= m.regret_oe + 1e-12

    def test_anchor_distance_cap_holds_per_rollover(self, small_report):
        for run in small_report.runs:
            for r in run.rollovers:
                assert r.omega_new <= r.anchor_cap
                assert r.converged

    def test_wstar_proxy_fields(self):
        config = ExperimentConfig(
            stream=StreamSpec(G=2, B=40, dim=2, seed=4), seeds=(5,), wstar_proxy=True
        )
        report = run_experiment(config)
        m = report.runs[0].intervals[0]
        assert m.regret_co2_vs_wstar is not None
        r = report.runs[0].rollovers[0]
        assert r.gap_measured is not None and r.gap_bound is not None

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(stream=StreamSpec(G=1, B=10, dim=2, seed=0), seeds=())
        with pytest.raises(ConfigError):
            ExperimentConfig(stream=StreamSpec(G=1, B=10, dim=2, seed=0), seeds=(1,), K_max=1)

    def test_the_stream_seed_is_the_first_of_the_seeds(self, tmp_path):
        config = ExperimentConfig(stream=StreamSpec(G=2, B=20, seed=7), seeds=(1, 2),
                                  wstar_proxy=False)
        assert config.stream.seed == config.seeds[0] == 1
        assert dc_replace(config, seeds=(4,)).stream.seed == 4
        emit_reports(run_experiment(config), str(tmp_path))
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["config"]["stream"]["seed"] == 1

    def test_regret_columns_consistent_with_losses(self, small_report, spec):
        # the cumulative regret columns must difference back to the
        # per-step losses minus the interval comparator's losses
        from co2learn.losses import batch_losses

        config = small_report.config
        B = config.stream.B
        run = small_report.runs[0]
        stream = gen_synthetic(dc_replace(config.stream, seed=run.seed))
        for buf in stream:
            w_hat = erm_oracle(buf.X, buf.y, spec)
            comparator = batch_losses(w_hat, buf.X, buf.y, spec)
            g = buf.interval_index
            rows = run.steps[(g - 1) * B: g * B]
            increments = np.diff(rows[:, REGRET_CO2], prepend=0.0)
            np.testing.assert_allclose(increments, rows[:, LOSS_CO2] - comparator,
                                       rtol=0, atol=1e-12)

    def test_warm_init_policy_runs(self):
        config = ExperimentConfig(
            stream=StreamSpec(G=3, B=30, dim=2, seed=8), seeds=(2,),
            init_policy="warm", wstar_proxy=False,
        )
        report = run_experiment(config)
        assert len(report.runs[0].intervals) == 3

    # Known limits, pinned so that they stay visible (the CLI exits 3 on them).
    # With gamma = 0 the ERM solve has no strong convexity, and its projected
    # gradient runs out of its 200,000 iterations where the objective is nearly
    # flat: at D = R = 10 the loss of a separable interval is nearly linear; at
    # D = 3, R = 0.208 (D R = 0.63) sixteen rows on one axis, split 10/6, but
    # the last moved 3e-8 off it, leave a nearly flat direction. ROADMAP.md
    # item 10's solver must change both rows.
    @pytest.mark.parametrize("X, y, D, R, settings", [
        (np.tile([[10.0, 0.0], [-10.0, 0.0]], (10, 1)), np.tile([1, -1], 10), 10.0, 10.0, {}),
        (np.vstack([np.tile([3.0, 0.0], (15, 1)), [[3.0, 3e-8]]]),
         np.repeat([-1, 1], [10, 6]), 3.0, 0.208, {"K_max": 2, "strategy": "fifo"}),
    ], ids=["separable_large_D_R", "nearly_flat_small_D_R"])
    def test_nearly_flat_interval_runs_out_of_erm_iterations(self, X, y, D, R, settings):
        config = ExperimentConfig(stream=StreamSpec(G=1, B=len(X), dim=2, D=D), seeds=(0,),
                                  R=R, **settings)
        interval = IntervalBuffer(X=X, y=y, interval_index=1)
        with pytest.raises(ConvergenceError, match="within 200000 iterations"):
            _run_seed(config, 0, [interval])

    @pytest.mark.parametrize("stream", [
        StreamSpec(G=2, B=10),  # too few: the last interval would be all-zero rows
        StreamSpec(G=4, B=10),
        StreamSpec(G=3, B=12),
        StreamSpec(G=3, B=10, dim=3),
        "out of order",
    ], ids=["too_few", "too_many", "other_B", "other_dim", "out_of_order"])
    def test_an_interval_set_that_does_not_fit_the_config_fails_before_any_step(
            self, stream, monkeypatch):
        config = ExperimentConfig(stream=StreamSpec(G=3, B=10), seeds=(0,))
        if stream == "out of order":
            first, second, third = gen_synthetic(config.stream)
            intervals = [first, third, second]
        else:
            intervals = gen_synthetic(stream)

        def no_step(*args):
            raise AssertionError("the run took a step")

        monkeypatch.setattr(ExpertPool, "process_labeled", no_step)
        with pytest.raises(ValueError) as caught:
            _run_seed(config, 0, intervals)
        assert "\n" not in str(caught.value)


class TestStreamedRun:
    """``run_experiment`` hands each seed ``streams.intervals``, which draws an
    interval when the run reaches it; the run equals one over the listed
    stream, and holds one interval at a time."""

    @staticmethod
    def libsvm_input(tmp_path, n, dim):
        rng = np.random.default_rng(dim)
        path = tmp_path / "data.libsvm"
        path.write_text("".join(f"{rng.choice([-1, 1])} " + " ".join(
            f"{j}:{v:.6f}" for j, v in enumerate(row, start=1)) + "\n"
            for row in rng.uniform(-1, 1, size=(n, dim))))
        return str(path)

    @pytest.mark.parametrize("mode", ["synthetic", "libsvm_noised"])
    def test_the_streamed_run_equals_the_listed_one(self, tmp_path, mode):
        G, B, dim = 4, 30, 3
        stream = StreamSpec(G=G, B=B, dim=dim, mode=mode)
        path = self.libsvm_input(tmp_path, G * B + 7, dim) if mode == "libsvm_noised" else None
        config = ExperimentConfig(stream=stream, seeds=(6,), K_max=3, input_path=path)
        samples = harness.load_input_samples(config)
        streamed = _run_seed(config, 6, streams.intervals(config.stream, samples))
        listed = _run_seed(config, 6, streams.generate(config.stream, samples))
        assert streamed.steps.tobytes() == listed.steps.tobytes()
        assert streamed.intervals == listed.intervals
        assert streamed.rollovers == listed.rollovers
        assert streamed.bound_report == listed.bound_report

    @pytest.mark.parametrize("misfit", ["other_B", "one_too_many"])
    def test_a_misfit_interval_fails_before_its_first_step(self, monkeypatch, misfit):
        config = ExperimentConfig(stream=StreamSpec(G=3, B=10), seeds=(0,), wstar_proxy=False)
        good = gen_synthetic(config.stream)
        if misfit == "other_B":  # the second interval has 12 rows
            other_B = gen_synthetic(dc_replace(config.stream, B=12))[1]
            intervals, steps_before = [good[0], other_B, good[2]], 10
        else:  # a fourth interval after the three the run needs
            intervals, steps_before = good + [dc_replace(good[0], interval_index=4)], 30
        steps = []
        original = ExpertPool.process_labeled

        def counting(pool, sample):
            steps.append(sample)
            return original(pool, sample)

        monkeypatch.setattr(ExpertPool, "process_labeled", counting)
        with pytest.raises(ValueError) as caught:
            _run_seed(config, 0, iter(intervals))
        assert "\n" not in str(caught.value)
        assert len(steps) == steps_before

    def test_memory_does_not_grow_with_G(self, traced):
        # one interval is 64 rows of 257 values (131 KiB) and the step table
        # 64 G rows of 6, so the whole stream outweighs the table at every G
        def peak(G):
            config = ExperimentConfig(stream=StreamSpec(G=G, B=64, dim=256), seeds=(0,),
                                      K_max=2, wstar_proxy=False)
            return traced(lambda: run_experiment(config))[0]

        assert peak(24) <= 1.25 * peak(3)

    def test_wstar_adds_next_to_nothing_to_a_wide_seed_s_peak(self, traced):
        # one interval is 2000 rows of 200 values (3.2 MB); the 10*B-row
        # sample a w* proxy once drew beside it added about 32 MB
        def peak(wstar):
            config = ExperimentConfig(stream=StreamSpec(G=3, B=2000, dim=200), seeds=(0,),
                                      wstar_proxy=wstar)
            return traced(lambda: run_experiment(config))[0]

        assert peak(True) <= 1.1 * peak(False)


class TestCheckMemory:
    # G*B = 1000 rows at dim 2 and K_max 5: a run holds one interval of 100
    # rows of 3 values and a step table of 1000 rows of 9 per seed; generate
    # and bounds count the 1000-row stream
    STREAM = StreamSpec(G=10, B=100)

    @staticmethod
    def physical_memory(monkeypatch, nbytes):
        pages, real = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": nbytes // 4096}, os.sysconf
        monkeypatch.setattr(harness.os, "sysconf", lambda name: pages.get(name) or real(name))

    def test_every_seeds_step_table_is_counted(self, monkeypatch):
        self.physical_memory(monkeypatch, 200 * 1024)  # 1 seed needs 98 400 bytes, 8 need 602 400
        harness.check_memory(ExperimentConfig(stream=self.STREAM, seeds=(0,)))
        with pytest.raises(MemoryError) as caught:
            harness.check_memory(ExperimentConfig(stream=self.STREAM, seeds=tuple(range(8))))
        assert "\n" not in str(caught.value)

    def test_w_star_is_not_counted(self, monkeypatch):
        self.physical_memory(monkeypatch, 76 * 1024)  # 74 400 bytes, w* on or off
        for wstar in (True, False):
            harness.check_memory(ExperimentConfig(stream=self.STREAM, seeds=(0,),
                                                  wstar_proxy=wstar))
        self.physical_memory(monkeypatch, 72 * 1024)
        for wstar in (True, False):
            with pytest.raises(MemoryError, match="^one interval, 100 rows of 3 float64 values, "):
                harness.check_memory(ExperimentConfig(stream=self.STREAM, seeds=(0,),
                                                      wstar_proxy=wstar))

    def test_a_run_counts_one_interval_where_the_stream_would_not_fit(self, monkeypatch):
        # at dim 1000 the stream is 8 008 000 bytes, one interval 800 800, and
        # the run 872 800 with its step table
        self.physical_memory(monkeypatch, 1024 * 1024)
        config = ExperimentConfig(stream=dc_replace(self.STREAM, dim=1000), seeds=(0,),
                                  wstar_proxy=False)
        harness.check_memory(config, run=True)
        with pytest.raises(MemoryError, match="^the stream, G\\*B = 1000 rows of 1001 float64 "
                                              "values drawn one interval at a time, needs "):
            harness.check_memory(config, run=False)


class TestEmitReports:
    def test_files_and_row_counts(self, small_report, tmp_path):
        paths = emit_reports(small_report, str(tmp_path))
        rows = read_steps_csv(paths["steps"])
        config = small_report.config
        assert len(rows) == len(config.seeds) * config.stream.G * config.stream.B
        with open(paths["steps"]) as fh:
            header = fh.readline().strip()
        assert header == (
            "seed,g,t,loss_co2,loss_ogd,regret_co2,regret_ogd,"
            + ",".join(f"alpha_{k}" for k in range(1, config.K_max + 1))
        )
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["aggregate"]["final_interval"] == config.stream.G
        bounds = json.loads((tmp_path / "bounds.json").read_text())
        assert set(bounds) == {str(s) for s in config.seeds}

    def test_roundtrip_exact(self, small_report, tmp_path):
        paths = emit_reports(small_report, str(tmp_path))
        G, B = small_report.config.stream.G, small_report.config.stream.B
        g, t = np.divmod(np.arange(G * B), B)
        want = np.vstack([
            np.column_stack([np.full(G * B, run.seed), g + 1, t + 1, run.steps])
            for run in small_report.runs
        ])
        np.testing.assert_array_equal(read_steps_csv(paths["steps"]), want)

    def test_empty_rejected(self, small_report):
        empty = small_report.__class__(config=small_report.config, runs=[], aggregate={})
        with pytest.raises(ValueError):
            emit_reports(empty, "/tmp/nowhere")

    def test_alpha_padding_is_zero_beyond_live_experts(self, small_report, tmp_path):
        paths = emit_reports(small_report, str(tmp_path))
        rows = read_steps_csv(paths["steps"])
        g1 = rows[(rows[:, 1] == 1) & (rows[:, 0] == small_report.config.seeds[0])]
        alpha = g1[:, 3 + ALPHA:]
        assert len(g1) == small_report.config.stream.B
        assert np.all(alpha[:, 1:] == 0.0)  # K=1 in interval 1
        assert np.all(alpha[:, 0] == 1.0)


def test_reports_do_not_depend_on_the_draw_blocks(tmp_path, monkeypatch):
    """At dim 60 each interval draw spans two blocks; the reports, w*'s
    metrics with them, equal those of whole-array draws byte for byte."""
    stream = StreamSpec(G=3, B=300, dim=60, seed=5)
    assert stream.B * stream.dim > _BLOCK
    config = ExperimentConfig(stream=stream, seeds=(5, 6))
    blocked = emit_reports(run_experiment(config), str(tmp_path / "blocked"))
    monkeypatch.setattr(CounterRng, "normals", reference_normals)
    whole = emit_reports(run_experiment(config), str(tmp_path / "whole"))
    for name in ("steps", "summary", "bounds"):
        with open(blocked[name], "rb") as a, open(whole[name], "rb") as b:
            assert a.read() == b.read(), name


class TestWstarNodeSets:
    """w* comes from one node set per interval, shared by the interval's
    metrics and its rollover's, and fitted by the harness's ``erm_oracle`` in
    each: S(3G - 1) fits in a run, as when a drawn 10*B-row proxy stood in
    for w*, and no proxy draw."""

    @staticmethod
    def counted(monkeypatch):
        counts = {"draws": 0, "node sets": 0, "fits": 0}

        def wrap(name, key):
            original = getattr(harness, name)

            def counting(*args, **kwargs):
                counts[key] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(harness, name, counting)
        wrap("fresh_proxy_samples", "draws")
        wrap("population_nodes", "node sets")
        wrap("erm_oracle", "fits")
        return counts

    def test_one_node_set_per_interval(self, monkeypatch):
        G, seeds = 4, (3, 4)
        counts = self.counted(monkeypatch)
        run_experiment(ExperimentConfig(stream=StreamSpec(G=G, B=30, dim=2), seeds=seeds))
        assert counts == {"draws": 0, "node sets": len(seeds) * G,
                          "fits": len(seeds) * (3 * G - 1)}

    def test_none_without_w_star(self, monkeypatch):
        counts = self.counted(monkeypatch)
        config = ExperimentConfig(stream=StreamSpec(G=3, B=30, dim=2), seeds=(1,),
                                  wstar_proxy=False)
        run_experiment(config)
        assert counts == {"draws": 0, "node sets": 0, "fits": 3}

    def test_none_in_libsvm_mode(self, monkeypatch, tmp_path):
        rng = np.random.default_rng(9)
        lines = [f"{rng.choice([-1, 1])} 1:{a:.6f} 2:{b:.6f}"
                 for a, b in rng.uniform(-1, 1, size=(120, 2))]
        path = tmp_path / "data.libsvm"
        path.write_text("\n".join(lines) + "\n")
        counts = self.counted(monkeypatch)
        stream = StreamSpec(G=3, B=30, dim=2, mode="libsvm_noised")
        run_experiment(ExperimentConfig(stream=stream, seeds=(1,), input_path=str(path)))
        assert counts == {"draws": 0, "node sets": 0, "fits": 3}

    def test_each_rollover_uses_its_own_intervals_node_set(self, monkeypatch, spec):
        rolls = []
        original = ExpertPool.rollover

        def recording(pool, completed):
            rolls.append(original(pool, completed))
            return rolls[-1]
        monkeypatch.setattr(ExpertPool, "rollover", recording)
        stream = StreamSpec(G=4, B=30, dim=2, seed=8)
        config = ExperimentConfig(stream=stream, seeds=(8,))
        rollovers = run_experiment(config).runs[0].rollovers
        g = 2
        roll, metrics = rolls[g - 1], rollovers[g - 1]
        assert roll.g_completed == metrics.g_completed == g
        nodes = population_nodes(gen_synthetic(stream)[g - 1].class_means, spec)
        w_star = nodes.basis @ erm_oracle(nodes.X, nodes.y, nodes.spec, weights=nodes.weights)
        assert metrics.omega_star == omega(w_star, roll.anchor)
        assert metrics.gap_measured == float(np.linalg.norm(roll.result.w - w_star))
