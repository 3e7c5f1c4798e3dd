"""Golden outputs of the desk-shape experiment, pinned before any refactor
that may move floating-point results.

Shape: synthetic stream, G 15, B 200, dim 2, K_max 5, seeds 0, 1, 2, all
other settings at their defaults (weight eviction, cold start, w* proxy on).
Floats are compared at 1e-12 absolute, rollover iteration counts exactly.
The offline iterates come from driving ExpertPool directly on seed 0's
stream.

The stored values live in ``golden_desk.json`` next to this file; running

    PYTHONPATH=src python tests/test_golden.py

rewrites it from the current code. Do that only for a change that is meant
to move the outputs, and say so where the change is described.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from co2learn import ExperimentConfig, ExpertPool, LossSpec, StreamSpec, run_experiment
from co2learn.streams import generate

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_desk.json")
ATOL = 1e-12
SEEDS = (0, 1, 2)
INTERVAL_FIELDS = ("regret_co2", "regret_ogd", "erm_objective", "regret_co2_vs_wstar")
ROLLOVER_FIELDS = ("omega_new", "grad_map_norm", "gap_measured")


def _config() -> ExperimentConfig:
    return ExperimentConfig(stream=StreamSpec(G=15, B=200, dim=2, seed=SEEDS[0]),
                            seeds=SEEDS, K_max=5)


def current_outputs() -> dict:
    config = _config()
    report = run_experiment(config)
    per_seed = {}
    for run in report.runs:
        per_seed[str(run.seed)] = {
            "intervals": {f: [getattr(m, f) for m in run.intervals] for f in INTERVAL_FIELDS},
            "rollovers": {f: [getattr(r, f) for r in run.rollovers]
                          for f in ROLLOVER_FIELDS + ("iterations",)},
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


def test_seed0_offline_iterates_match(outputs, golden):
    got = np.array(outputs["seed0_offline_w"])
    want = np.array(golden["seed0_offline_w"])
    assert got.shape == want.shape == (14, 2)
    np.testing.assert_allclose(got, want, rtol=0, atol=ATOL)


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(current_outputs(), fh, indent=1)
        fh.write("\n")
    print(f"wrote {GOLDEN_PATH}")
