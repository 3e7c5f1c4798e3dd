"""The grid oracle's branch and bound against its full enumeration."""

import numpy as np
import pytest

from co2learn.losses import LossSpec
from co2learn.offline import Anchor, gamma_lower_bound

from oracles import grid_min_objective, grid_min_objective_exhaustive, grid_objective


@pytest.mark.parametrize("seed, regularized", [(0, False), (1, False), (2, True)])
def test_branch_and_bound_equals_full_enumeration(seed, regularized):
    spec = LossSpec.create(D=1.0, R=1.0, dim=2)
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(8, 2))
    X /= np.maximum(1.0, np.linalg.norm(X, axis=1, keepdims=True))
    y = rng.choice([-1, 1], len(X))
    pull = {}
    if regularized:
        v = rng.normal(size=2)
        v *= rng.uniform(0, 1) / np.linalg.norm(v)
        anchor = Anchor(v=v, weighted_loss=float(rng.uniform(0.2, 0.8)))
        pull = {"gamma": gamma_lower_bound(anchor, 1.0) + 0.5, "anchor": v}
    best, point = grid_min_objective(X, y, spec.C, **pull)
    reference, _ = grid_min_objective_exhaustive(X, y, spec.C, **pull)
    assert abs(best - reference) <= 1e-12
    assert abs(grid_objective(point[None], X, y, spec.C, **pull)[0] - best) <= 1e-12
