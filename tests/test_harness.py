import json

import numpy as np
import pytest

from co2learn.errors import ConfigError
from co2learn.harness import (
    ExperimentConfig,
    emit_reports,
    erm_oracle,
    parse_steps_csv,
    run_experiment,
)
from co2learn.losses import LossSpec, batch_mean_loss
from co2learn.streams import StreamSpec, gen_synthetic

from oracles import grid_min_objective


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
        report = run_experiment(config)
        for row in report.runs[0].steps:
            assert row.loss_co2 == row.loss_ogd
            assert row.regret_co2 == row.regret_ogd

    def test_regret_identity_recomputed_from_rows(self, small_report):
        for run in small_report.runs:
            for m in run.intervals:
                assert m.regret_me + m.regret_ke == pytest.approx(m.regret_co2, abs=1e-9)
                # cumulative column at the interval's last row equals the
                # interval regret computed from the summaries
                last = [r for r in run.steps if r.g == m.g][-1]
                assert last.regret_co2 == pytest.approx(m.regret_co2, abs=1e-9)

    def test_baseline_consumes_identical_sequence(self, small_report):
        # first step of interval 1: baseline starts at w=0, same as the pool
        run = small_report.runs[0]
        first = run.steps[0]
        assert first.loss_co2 == first.loss_ogd

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

    def test_regret_columns_consistent_with_losses(self, small_report, spec):
        # the cumulative regret columns must difference back to the
        # per-step losses minus the interval comparator's losses
        from dataclasses import replace as dc_replace

        from co2learn.losses import batch_losses

        config = small_report.config
        run = small_report.runs[0]
        stream = gen_synthetic(dc_replace(config.stream, seed=run.seed))
        for buf in stream:
            w_hat = erm_oracle(buf.X, buf.y, spec, tol=config.erm_tol)
            comparator = batch_losses(w_hat, buf.X, buf.y, spec)
            rows = [r for r in run.steps if r.g == buf.interval_index]
            prev = 0.0
            for r, c in zip(rows, comparator):
                assert r.regret_co2 - prev == pytest.approx(r.loss_co2 - c, abs=1e-12)
                prev = r.regret_co2

    def test_warm_init_policy_runs(self):
        config = ExperimentConfig(
            stream=StreamSpec(G=3, B=30, dim=2, seed=8), seeds=(2,),
            init_policy="warm", wstar_proxy=False,
        )
        report = run_experiment(config)
        assert len(report.runs[0].intervals) == 3


class TestEmitReports:
    def test_files_and_row_counts(self, small_report, tmp_path):
        paths = emit_reports(small_report, str(tmp_path))
        rows = parse_steps_csv(paths["steps"])
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
        rows = parse_steps_csv(paths["steps"])
        flat = [r for run in small_report.runs for r in run.steps]
        assert len(rows) == len(flat)
        for got, want in zip(rows, flat):
            assert (got.seed, got.g, got.t) == (want.seed, want.g, want.t)
            assert got.loss_co2 == want.loss_co2
            assert got.loss_ogd == want.loss_ogd
            assert got.regret_co2 == want.regret_co2
            assert got.regret_ogd == want.regret_ogd
            np.testing.assert_array_equal(got.alpha, want.alpha)

    def test_empty_rejected(self, small_report):
        empty = small_report.__class__(config=small_report.config, runs=[], aggregate={})
        with pytest.raises(ValueError):
            emit_reports(empty, "/tmp/nowhere")

    def test_alpha_padding_is_zero_beyond_live_experts(self, small_report, tmp_path):
        paths = emit_reports(small_report, str(tmp_path))
        rows = parse_steps_csv(paths["steps"])
        g1 = [r for r in rows if r.g == 1 and r.seed == small_report.config.seeds[0]]
        assert all(np.all(r.alpha[1:] == 0.0) for r in g1)  # K=1 in interval 1
        assert all(r.alpha[0] == 1.0 for r in g1)
