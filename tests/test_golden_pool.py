"""Golden outputs of the pool driven as a live learner, pinned before any
change to the per-sample step.

Shape: a ``libsvm_noised`` stream of 12 intervals x B 50 at dim 20, made
from a seeded dense matrix; a ``fifo``/``warm`` pool with K_max 8; after
each labeled sample, 4 predictions on fixed held-out points; a rollover at
the end of every interval. Per step the golden holds ``loss_meta``,
``losses_per_expert`` and ``alpha_after``; per interval the rollover's
iteration count; at the end the experts. Floats are compared at 1e-12
absolute, iteration counts and predictions exactly. A prediction whose
stored value |<w, q>| is at most 1e-12 is not compared, since its sign is
rounding.

The stored values live in ``golden_pool.json`` next to this file; running

    PYTHONPATH=src python tests/test_golden_pool.py

adds the values the file lacks, from the current code, and keeps every
stored one (see ``golden.py``). To re-anchor them all, delete the file
first; do that only for a change that is meant to move the outputs, and say
so where the change is described.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from co2learn import ExpertPool, LossSpec, StreamSpec
from co2learn.geometry import Sample
from co2learn.streams import generate

from golden import load_stored, merge_missing

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_pool.json")
ATOL = 1e-12
G, B, DIM, K_MAX, QUERIES_PER_STEP = 12, 50, 20, 8, 4


def _inputs():
    rng = np.random.default_rng(20)
    n = G * B + B
    X = 0.3 * rng.normal(size=(n, DIM)) * (rng.random((n, DIM)) < 0.4)
    w_true = rng.normal(size=DIM)
    y = np.where(X @ w_true >= 0, 1, -1) * np.where(rng.random(n) < 0.1, -1, 1)
    samples = [Sample(x=x, y=label) for x, label in zip(X, y.tolist())]
    stream = generate(StreamSpec(G=G, B=B, dim=DIM, seed=7, mode="libsvm_noised"), samples)
    Q = rng.normal(size=(QUERIES_PER_STEP, DIM))
    queries = Q / np.maximum(np.linalg.norm(Q, axis=1, keepdims=True), 1.0)
    return stream, list(queries)


def current_outputs() -> dict:
    stream, queries = _inputs()
    spec = LossSpec.create(D=1.0, R=1.0, dim=DIM)
    pool = ExpertPool(spec=spec, B=B, K_max=K_MAX, strategy="fifo", init_policy="warm")
    intervals = []
    for buf in stream:
        steps = {"loss_meta": [], "losses_per_expert": [], "alpha_after": [],
                 "predictions": [], "prediction_values": []}
        for s in buf.samples:
            rec = pool.process_labeled(s)
            steps["loss_meta"].append(rec.loss_meta)
            steps["losses_per_expert"].append(rec.losses_per_expert.tolist())
            steps["alpha_after"].append(rec.alpha_after.tolist())
            w = pool.meta.alpha @ np.vstack(pool.offline + [pool.online.w])
            for q in queries:
                steps["predictions"].append(pool.predict_unlabeled(q))
                steps["prediction_values"].append(float(np.dot(w, q)))
        steps["rollover_iterations"] = pool.rollover(buf).result.iterations
        intervals.append(steps)
    experts = [w.tolist() for w in pool.offline + [pool.online.w]]
    return {"intervals": intervals, "final_experts": experts}


def write_golden(path: str, data: dict) -> None:
    """One line per interval, so a diff of the file shows which moved."""
    lines = ",\n".join(json.dumps(steps) for steps in data["intervals"])
    with open(path, "w") as fh:
        fh.write('{"intervals": [\n' + lines + "\n],\n")
        fh.write('"final_experts": ' + json.dumps(data["final_experts"]) + "}\n")


@pytest.fixture(scope="module")
def outputs():
    return current_outputs()


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", ("loss_meta", "losses_per_expert", "alpha_after"))
def test_step_floats_match(outputs, golden, name):
    assert len(outputs["intervals"]) == len(golden["intervals"]) == G
    for g, (got, want) in enumerate(zip(outputs["intervals"], golden["intervals"]), start=1):
        assert len(got[name]) == len(want[name]) == B
        for t, (a, b) in enumerate(zip(got[name], want[name]), start=1):
            np.testing.assert_allclose(a, b, rtol=0, atol=ATOL, err_msg=f"g={g} t={t}")


def test_predictions_match_exactly(outputs, golden):
    compared = 0
    for g, (got, want) in enumerate(zip(outputs["intervals"], golden["intervals"]), start=1):
        assert len(got["predictions"]) == len(want["predictions"]) == B * QUERIES_PER_STEP
        for i, (p, q, value) in enumerate(zip(got["predictions"], want["predictions"],
                                              want["prediction_values"])):
            if abs(value) > ATOL:
                assert p == q, f"g={g} step={i // QUERIES_PER_STEP + 1} query={i % QUERIES_PER_STEP}"
                compared += 1
    assert compared > 0.9 * G * B * QUERIES_PER_STEP


def test_rollover_iterations_match_exactly(outputs, golden):
    got = [steps["rollover_iterations"] for steps in outputs["intervals"]]
    assert got == [steps["rollover_iterations"] for steps in golden["intervals"]]


def test_final_experts_match(outputs, golden):
    got, want = np.array(outputs["final_experts"]), np.array(golden["final_experts"])
    assert got.shape == want.shape == (K_MAX, DIM)
    np.testing.assert_allclose(got, want, rtol=0, atol=ATOL)


def test_regeneration_keeps_stored_values_and_adds_missing_ones(outputs, golden, tmp_path):
    stored = json.loads(json.dumps(golden))
    stored["intervals"][2]["loss_meta"][0] += 1.0  # a stale value is kept, not re-anchored
    del stored["intervals"][4]["rollover_iterations"]  # a missing one is added
    path = tmp_path / "golden_pool.json"
    write_golden(path, stored)
    write_golden(path, merge_missing(load_stored(path), outputs))
    regenerated = load_stored(path)
    assert regenerated["intervals"][2]["loss_meta"] == stored["intervals"][2]["loss_meta"]
    assert (regenerated["intervals"][4].pop("rollover_iterations")
            == outputs["intervals"][4]["rollover_iterations"])
    assert regenerated == stored


if __name__ == "__main__":
    write_golden(GOLDEN_PATH, merge_missing(load_stored(GOLDEN_PATH), current_outputs()))
    print(f"wrote {GOLDEN_PATH}")
