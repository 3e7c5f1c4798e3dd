"""The population optimum w* of a synthetic interval, by quadrature.

``population.population_nodes`` integrates an interval's distribution on a
few thousand weighted nodes in the plane of its class means. The tests hold:

- the weighted solve to its meaning (a weight is a row's share of the mean);
- the nodes to convergence: at twice every node count, w* moves by at most
  1e-12 over dim {1, 2, 3, 5, 20, 200}, |mu| from 0.3 to 40 and D in
  {0.3, 1, 10};
- the nodes to the distribution: the node set's risk lies within 4 standard
  errors of a Monte Carlo on ``streams.fresh_proxy_samples``;
- the radial table (a ray's mass is ``c(theta) + Phi(beta)``, with Phi
  tabulated once per (dim, D)) to a direct ``_log_integral`` of Phi's
  integrand, within 1e-13 of max(1, |Phi|), at betas inside and far
  outside the range a run uses; to its order: a node set is the same bit
  for bit whatever the tables held before; and to its size at far means.

Tier-1 runs the sweep's w* check on 12 of its 90 cases, at D 0.3 and 1,
chosen so that every dim and every |mu| appears; at D = 10 a solve can take
a second (the oracle's projected gradient is slow where the loss is nearly
linear), so there Tier-1 holds the risk and its gradient instead, at points
of the plane. Running

    PYTHONPATH=src python tests/test_population.py

checks all 90 and prints, per case, the build time of its node set (the
first case of each (dim, D) builds its table's cells too), the largest
relative error of the radial table over betas up to twice |mu|, and the
move of w*; then the largest move.
"""

from __future__ import annotations

import itertools
import sys
import time

import numpy as np
import pytest

from co2learn.losses import LossSpec, batch_losses
from co2learn.offline import erm_oracle
from co2learn.population import _INNER, _log_integral, _radial, population_nodes
from co2learn.streams import IntervalBuffer, StreamSpec, fresh_proxy_samples

DIMS = (1, 2, 3, 5, 20, 200)
NORMS = (0.3, 1.0, 3.0, 10.0, 40.0)
RADII = (0.3, 1.0, 10.0)
SWEEP = list(itertools.product(DIMS, NORMS, RADII))
STRATIFIED = [(dim, NORMS[(2 * i + j) % len(NORMS)], D)
              for i, dim in enumerate(DIMS) for j, D in enumerate(RADII[:2])]


def class_means(dim, norm, seed):
    """Two random means, the +1 row of norm ``norm`` and the -1 row of 0.5 to
    1.5 times it, so the classes differ in shape."""
    rng = np.random.default_rng(seed)
    means = rng.normal(size=(2, dim))
    scale = np.array([[norm], [norm * rng.uniform(0.5, 1.5)]])
    return means * scale / np.linalg.norm(means, axis=1, keepdims=True)


def w_star(means, spec, refine=1):
    nodes = population_nodes(means, spec, refine=refine)
    return nodes.basis @ erm_oracle(nodes.X, nodes.y, nodes.spec, weights=nodes.weights)


class TestWeightedSolve:
    def test_uniform_weights_are_the_plain_mean(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(50, 3)) * 0.4
        y = np.where(rng.random(50) < 0.5, 1, -1)
        spec = LossSpec(D=1.0, R=1.0, dim=3)
        np.testing.assert_allclose(erm_oracle(X, y, spec, weights=np.full(50, 1 / 50)),
                                   erm_oracle(X, y, spec), rtol=0, atol=1e-15)

    def test_a_weight_is_a_row_s_share(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(20, 2)) * 0.4
        y = np.where(rng.random(20) < 0.5, 1, -1)
        counts = rng.integers(1, 4, size=20)
        spec = LossSpec(D=1.0, R=1.0, dim=2)
        repeated = erm_oracle(np.repeat(X, counts, axis=0), np.repeat(y, counts), spec)
        weighted = erm_oracle(X, y, spec, weights=counts / counts.sum())
        np.testing.assert_allclose(weighted, repeated, rtol=0, atol=1e-13)


class TestNodeSet:
    @pytest.mark.parametrize("dim", DIMS)
    def test_weights_are_probabilities_on_the_disk(self, dim):
        spec = LossSpec(D=1.0, R=1.0, dim=dim)
        nodes = population_nodes(class_means(dim, 1.0, dim), spec)
        r = min(dim, 2)
        assert nodes.basis.shape == (dim, r) and nodes.X.shape[1] == r
        np.testing.assert_allclose(nodes.basis.T @ nodes.basis, np.eye(r), atol=1e-15)
        assert np.all(nodes.weights > 0)
        for label in (1, -1):
            assert abs(nodes.weights[nodes.y == label].sum() - 0.5) <= 1e-15
        assert np.all(np.linalg.norm(nodes.X, axis=1) <= spec.D * (1 + 1e-15))
        assert (nodes.spec.D, nodes.spec.R, nodes.spec.dim) == (spec.D, spec.R, r)
        assert (nodes.spec.C, nodes.spec.beta) == (spec.C, spec.beta)

    def test_the_plane_holds_both_means(self):
        means = class_means(7, 2.0, 3)
        nodes = population_nodes(means, LossSpec(D=1.0, R=1.0, dim=7))
        np.testing.assert_allclose(nodes.basis @ (nodes.basis.T @ means.T), means.T, atol=1e-14)

    @pytest.mark.parametrize("means", [
        [[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]],  # collinear
        [[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]],  # one mean at the origin
        [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
        [[1e200, 0.0, 0.0], [0.0, -1e200, 0.0]],  # near the end of the float range
    ], ids=["collinear", "one_at_origin", "both_at_origin", "huge"])
    def test_degenerate_means_give_a_node_set(self, means):
        spec, means = LossSpec(D=1.0, R=1.0, dim=3), np.array(means)
        nodes = population_nodes(means, spec)
        unit = means / max(1.0, np.abs(means).max())
        np.testing.assert_allclose(nodes.basis @ (nodes.basis.T @ unit.T), unit.T, atol=1e-14)
        assert np.isfinite(w_star(means, spec)).all()

    def test_equal_means_give_equal_nodes(self):
        spec = LossSpec(D=1.0, R=1.0, dim=5)
        a, b = (population_nodes(class_means(5, 2.0, 4), spec) for _ in range(2))
        for name in ("basis", "X", "y", "weights"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


def move(dim, norm, D):
    means = class_means(dim, norm, seed=int(100 * norm) + dim)
    spec = LossSpec(D=D, R=1.0, dim=dim)
    return float(np.abs(w_star(means, spec) - w_star(means, spec, refine=2)).max())


@pytest.mark.parametrize("dim,norm,D", STRATIFIED)
def test_w_star_moves_by_at_most_1e12_at_twice_every_node_count(dim, norm, D):
    assert move(dim, norm, D) <= 1e-12


@pytest.mark.parametrize("dim,norm", [(dim, NORMS[i % len(NORMS)]) for i, dim in enumerate(DIMS)])
def test_at_d_10_the_risk_and_its_gradient_move_by_at_most_1e13(dim, norm):
    means = class_means(dim, norm, seed=int(100 * norm) + dim)
    spec = LossSpec(D=10.0, R=1.0, dim=dim)
    coarse, fine = (population_nodes(means, spec, refine=refine) for refine in (1, 2))
    np.testing.assert_array_equal(coarse.basis, fine.basis)
    C = spec.C
    for v in np.random.default_rng(dim).normal(size=(4, coarse.X.shape[1])):
        v /= max(1.0, np.linalg.norm(v))
        risk, grad = [], []
        for nodes in (coarse, fine):
            z = nodes.y * (nodes.X @ v)
            risk.append(nodes.weights @ batch_losses(v, nodes.X, nodes.y, nodes.spec))
            grad.append(-(nodes.weights * nodes.y / (1 + np.exp(z)) / C) @ nodes.X)
        assert abs(risk[0] - risk[1]) <= 1e-13  # sums of up to 30,000 terms
        np.testing.assert_allclose(grad[0], grad[1], rtol=0, atol=1e-13)


@pytest.mark.parametrize("dim,D,norm,n", [
    (1, 1.0, 0.8, 400_000), (2, 1.0, 1.2, 400_000), (3, 1.0, 1.5, 200_000),
    (5, 0.3, 1.0, 200_000), (20, 10.0, 5.0, 50_000), (200, 1.0, 14.0, 5_000),
])
def test_the_node_risk_is_a_monte_carlo_s_within_4_standard_errors(dim, D, norm, n):
    spec = LossSpec(D=D, R=1.0, dim=dim)
    means = class_means(dim, norm, seed=dim)
    nodes = population_nodes(means, spec)
    buf = IntervalBuffer(X=np.zeros((1, dim)), y=np.ones(1), interval_index=1,
                         class_means=means)
    X, y = fresh_proxy_samples(StreamSpec(G=1, B=n, dim=dim, D=D, seed=dim), buf, n)
    rng = np.random.default_rng(dim)
    planar = [nodes.basis.T @ w_star(means, spec)]
    planar += [v / max(1.0, np.linalg.norm(v)) for v in rng.normal(size=(2, nodes.X.shape[1]))]
    for v in planar:
        sample = batch_losses(nodes.basis @ v, X, y, spec)
        risk = float(nodes.weights @ batch_losses(v, nodes.X, nodes.y, nodes.spec))
        assert abs(risk - sample.mean()) <= 4 * sample.std() / np.sqrt(n)


def log_phi_direct(dim, D, beta):
    """Phi(beta) = log of the integral of r^(dim - 1) exp(-r^2/2 + beta r)
    over r > D: one ``_log_integral`` on its window from [D, inf), at ten
    times the table's node count."""
    p = dim - 1
    peak = (beta + np.sqrt(beta * beta + 4 * p)) / 2
    return _log_integral(lambda r, b: p * np.log(r) - r * r / 2 + b * r,
                         lambda r, b: p / r - r + b, D, np.inf, peak, 10 * _INNER, beta)


def radial_error(dim, D, beta):
    """The largest |Phi_table - Phi_direct| / max(1, |Phi_direct|) at these
    betas. The table leaves out beta^2/2 from beta = -1 up."""
    table = _radial(dim - 1, D, _INNER)(beta) + np.where(beta >= -1, beta * beta / 2, 0.0)
    direct = log_phi_direct(dim, D, beta)
    return float((np.abs(table - direct) / np.maximum(1.0, np.abs(direct))).max())


class TestRadialTable:
    @pytest.mark.parametrize("D", RADII)
    @pytest.mark.parametrize("dim", (3, 5, 20, 200))
    def test_phi_is_a_direct_integral_s_within_1e13(self, dim, D):
        rng = np.random.default_rng(dim)
        inside = rng.uniform(-60.0, 60.0, 300)  # a run's betas lie within |mu|
        outside = rng.uniform(-2e4, 2e4, 300) * rng.choice([1e-2, 1.0], 300)
        assert radial_error(dim, D, np.concatenate([inside, outside])) <= 1e-13

    def test_a_node_set_does_not_depend_on_what_the_tables_held(self):
        cases = [(class_means(dim, norm, 7), LossSpec(D=D, R=1.0, dim=dim))
                 for dim, norm, D in [(3, 0.5, 1.0), (3, 4.0, 1.0), (3, 300.0, 1.0),
                                      (20, 40.0, 0.3), (200, 14.0, 1.0)]]

        def build(order, before=()):
            _radial.cache_clear()
            for dim, D, betas in before:
                _radial(dim - 1, D, _INNER)(np.array(betas))
            return {i: population_nodes(*cases[i]) for i in order}

        first = build(range(len(cases)))
        others = [(5, 10.0, [-1e3, 1e3]), (200, 0.3, [5.0]), (3, 1.0, [-7e3, 9e3]),
                  (20, 0.3, [-3.0])]  # other tables, and these tables elsewhere
        for nodes in (build(range(len(cases)), others), build(reversed(range(len(cases))))):
            for i, a in first.items():
                for name in ("basis", "X", "y", "weights"):
                    assert getattr(a, name).tobytes() == getattr(nodes[i], name).tobytes()

    def test_a_table_holds_at_most_64_pieces_at_means_up_to_1e4(self):
        _radial.cache_clear()
        for dim in (3, 20, 200):
            for norm in (1.0, 1e2, 1e4):
                population_nodes(class_means(dim, norm, 9), LossSpec(D=1.0, R=1.0, dim=dim))
            # 29 cells hold |beta| up to 2^14; each could split into 2^10 pieces
            assert len(_radial(dim - 1, 1.0, _INNER).lo) <= 64

    def test_a_mean_near_the_far_limit_builds_its_cells_without_a_warning(self):
        # at |beta| near 1e8 a peak's denominator, root + beta, rounds to 0
        # in the branch a cell does not take
        nodes = population_nodes(class_means(3, 1e8, 9), LossSpec(D=1.0, R=1.0, dim=3))
        assert np.isfinite(nodes.weights).all()


if __name__ == "__main__":
    moves = []
    for dim, norm, D in SWEEP:
        spec = LossSpec(D=D, R=1.0, dim=dim)
        start = time.perf_counter()
        population_nodes(class_means(dim, norm, seed=int(100 * norm) + dim), spec)
        build = time.perf_counter() - start
        error = (f"{radial_error(dim, D, np.linspace(-2 * norm, 2 * norm, 401)):.1e}"
                 if dim >= 3 else "  -    ")
        moves.append(move(dim, norm, D))
        print(f"dim {dim:3d} |mu| {norm:4g} D {D:4g}: build {1e3 * build:6.2f} ms, "
              f"table {error}, w* moves {moves[-1]:.1e}", flush=True)
    print(f"{len(SWEEP)} cases: w* moves by at most {max(moves):.2e} at twice every node count")
    sys.exit(0 if max(moves) <= 1e-12 else 1)
