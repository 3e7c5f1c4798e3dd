"""Golden outputs of the desk-shape experiment, pinned before any refactor
that may move floating-point results.

Shape: synthetic stream, G 15, B 200, dim 2, K_max 5, seeds 0, 1, 2, all
other settings at their defaults (weight eviction, cold start, w* on).
Floats are compared at 1e-12 absolute; rollover iteration counts and each
interval's ``k_condition_holds`` exactly. Each seed's eight ``bounds.json``
calculator values are pinned too. The offline iterates come from driving
ExpertPool directly on seed 0's stream.

The stored values live in ``golden_desk.json`` next to this file; running

    PYTHONPATH=src python tests/test_golden.py

adds the values the file lacks, from the current code, and keeps every
stored one (see ``golden.py``). To re-anchor them all, delete the file
first; do that only for a change that is meant to move the outputs, and say
so where the change is described.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from co2learn import ExperimentConfig, ExpertPool, LossSpec, StreamSpec, run_experiment
from co2learn.streams import generate

from golden import load_stored, merge_missing

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_desk.json")
ATOL = 1e-12
SEEDS = (0, 1, 2)
INTERVAL_FIELDS = ("regret_co2", "regret_ogd", "erm_objective", "regret_co2_vs_wstar")
ROLLOVER_FIELDS = ("omega_new", "grad_map_norm", "gap_measured")
BOUND_NAMES = ("meta_regret_bound", "ogd_regret_bound", "co2_regret_bound_general",
               "co2_regret_bound_worst", "k_condition_log_rhs", "transfer_gap_bound",
               "rademacher_bound", "excess_risk_bound")


def _config() -> ExperimentConfig:
    return ExperimentConfig(stream=StreamSpec(G=15, B=200, dim=2, seed=SEEDS[0]),
                            seeds=SEEDS, K_max=5)


def current_outputs() -> dict:
    config = _config()
    report = run_experiment(config)
    per_seed = {}
    for run in report.runs:
        per_seed[str(run.seed)] = {
            "intervals": {f: [getattr(m, f) for m in run.intervals]
                          for f in INTERVAL_FIELDS + ("k_condition_holds",)},
            "rollovers": {f: [getattr(r, f) for r in run.rollovers]
                          for f in ROLLOVER_FIELDS + ("iterations",)},
            "bounds": {name: run.bound_report[name] for name in BOUND_NAMES},
        }

    spec = LossSpec.create(D=config.stream.D, R=config.R, dim=config.stream.dim)
    pool = ExpertPool(spec=spec, B=config.stream.B, K_max=config.K_max,
                      strategy=config.strategy, init_policy=config.init_policy,
                      gamma_floor=config.gamma_floor)
    stream = generate(config.stream)
    offline_w = []
    for buf in stream[:-1]:
        for s in buf.samples:
            pool.process_labeled(s)
        offline_w.append([float(v) for v in pool.rollover(buf).result.w])
    return {"per_seed": per_seed, "seed0_offline_w": offline_w}


@pytest.fixture(scope="module")
def outputs():
    return current_outputs()


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", INTERVAL_FIELDS)
def test_interval_metrics_match(outputs, golden, seed, name):
    got = outputs["per_seed"][str(seed)]["intervals"][name]
    want = golden["per_seed"][str(seed)]["intervals"][name]
    assert len(got) == len(want) == 15
    np.testing.assert_allclose(got, want, rtol=0, atol=ATOL)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", ROLLOVER_FIELDS)
def test_rollover_metrics_match(outputs, golden, seed, name):
    got = outputs["per_seed"][str(seed)]["rollovers"][name]
    want = golden["per_seed"][str(seed)]["rollovers"][name]
    assert len(got) == len(want) == 14
    np.testing.assert_allclose(got, want, rtol=0, atol=ATOL)


@pytest.mark.parametrize("seed", SEEDS)
def test_rollover_iterations_match_exactly(outputs, golden, seed):
    got = outputs["per_seed"][str(seed)]["rollovers"]["iterations"]
    assert got == golden["per_seed"][str(seed)]["rollovers"]["iterations"]


@pytest.mark.parametrize("seed", SEEDS)
def test_k_condition_verdicts_match_exactly(outputs, golden, seed):
    got = outputs["per_seed"][str(seed)]["intervals"]["k_condition_holds"]
    assert got == golden["per_seed"][str(seed)]["intervals"]["k_condition_holds"]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", BOUND_NAMES)
def test_bound_report_matches(outputs, golden, seed, name):
    got = outputs["per_seed"][str(seed)]["bounds"][name]
    want = golden["per_seed"][str(seed)]["bounds"][name]
    np.testing.assert_allclose(got, want, rtol=0, atol=ATOL)


def test_seed0_offline_iterates_match(outputs, golden):
    got = np.array(outputs["seed0_offline_w"])
    want = np.array(golden["seed0_offline_w"])
    assert got.shape == want.shape == (14, 2)
    np.testing.assert_allclose(got, want, rtol=0, atol=ATOL)


def test_another_blas_kernel_keeps_every_golden_value(golden):
    # byte-identical reports hold on one host and one BLAS kernel; OpenBLAS's
    # Prescott kernel moves last bits, each value within ATOL, no count or verdict
    here = os.path.dirname(os.path.abspath(__file__))
    path = [os.path.join(here, os.pardir, "src"), here, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott", PYTHONPATH=os.pathsep.join(path))
    code = "import json, test_golden; print(json.dumps(test_golden.current_outputs()))"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    got = json.loads(done.stdout)
    for seed in SEEDS:
        for name in INTERVAL_FIELDS:
            test_interval_metrics_match(got, golden, seed, name)
        for name in ROLLOVER_FIELDS:
            test_rollover_metrics_match(got, golden, seed, name)
        for name in BOUND_NAMES:
            test_bound_report_matches(got, golden, seed, name)
        test_rollover_iterations_match_exactly(got, golden, seed)
        test_k_condition_verdicts_match_exactly(got, golden, seed)
    test_seed0_offline_iterates_match(got, golden)


def write_golden(path: str, data: dict) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


def test_regeneration_keeps_stored_values_and_adds_missing_ones(outputs, golden, tmp_path):
    stored = json.loads(json.dumps(golden))
    seed0 = stored["per_seed"]["0"]
    seed0["bounds"]["excess_risk_bound"] += 1.0  # a stale value is kept, not re-anchored
    del seed0["intervals"]["k_condition_holds"]  # a missing one is added
    path = tmp_path / "golden_desk.json"
    write_golden(path, stored)
    write_golden(path, merge_missing(load_stored(path), outputs))
    regenerated = load_stored(path)
    assert regenerated["per_seed"]["0"]["bounds"] == seed0["bounds"]
    assert (regenerated["per_seed"]["0"]["intervals"]["k_condition_holds"]
            == outputs["per_seed"]["0"]["intervals"]["k_condition_holds"])
    del regenerated["per_seed"]["0"]["intervals"]["k_condition_holds"]
    assert regenerated == stored


if __name__ == "__main__":
    write_golden(GOLDEN_PATH, merge_missing(load_stored(GOLDEN_PATH), current_outputs()))
    print(f"wrote {GOLDEN_PATH}")
