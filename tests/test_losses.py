import math

import numpy as np
import pytest

from co2learn.geometry import Sample
from co2learn.losses import (
    LossSpec,
    batch_losses,
    batch_mean_grad,
    batch_mean_loss,
    check_sample,
    grad_loss,
    loss,
    sigmoid,
    softplus,
)


@pytest.fixture(scope="module")
def spec():
    return LossSpec.create(D=1.0, R=1.0, dim=2)


def random_pairs(spec, n, seed=0):
    """Random in-ball hypotheses and in-ball samples."""
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(n, spec.dim))
    w *= (spec.R * rng.uniform(0, 1, n) ** 0.5 / np.linalg.norm(w, axis=1))[:, None]
    x = rng.normal(size=(n, spec.dim))
    x *= (spec.D * rng.uniform(0, 1, n) ** 0.5 / np.linalg.norm(x, axis=1))[:, None]
    y = rng.choice([-1, 1], n)
    return w, x, y


class TestSpec:
    def test_normalizer_and_beta(self, spec):
        C = math.log(1 + math.e)
        assert spec.C == pytest.approx(C, rel=1e-12)
        assert spec.beta == pytest.approx(1.0 / (4 * C), rel=1e-12)

    def test_inconsistent_spec_rejected(self):
        # C and beta are derived from D and R, never supplied
        for derived in [dict(C=2.0), dict(beta=0.5)]:
            with pytest.raises(TypeError):
                LossSpec(D=1.0, R=1.0, dim=2, **derived)

    def test_bad_bounds_rejected(self):
        LossSpec.create(D=1.0, R=2.0, dim=3)
        for bad in [
            dict(D=0.0),
            dict(R=-1.0),
            dict(R=float("nan")),
            dict(D=1e200),  # D^2 overflows, so beta is infinite
            dict(D=1e-200, R=1e-200),  # D^2 underflows, so beta is 0
            dict(dim=0),
            dict(dim=2.5),
            dict(dim=2.0),
            dict(dim=True),
        ]:
            with pytest.raises(ValueError):
                LossSpec.create(**(dict(D=1.0, R=1.0, dim=2) | bad))


# Samples outside the loss's domain, each rejected by the one sample rule.
BAD_SAMPLES = {
    "nan": ([np.nan, 0.0], 1),
    "inf": ([0.0, -np.inf], 1),
    "overflow": ([1e200, 1e200], 1),  # finite entries whose squared norm is inf
    "norm_7": ([7.0, 0.0], -1),
    "dim_3": ([0.1, 0.1, 0.1], 1),
    "row": ([[0.1, 0.1]], 1),
    "scalar": (0.1, 1),
    "label_0": ([0.0, 0.0], 0),
    "label_2": ([0.0, 0.0], 2),
}


class TestCheckSample:
    def test_returns_x_as_a_float_vector(self, spec):
        x = np.array([0.6, -0.8])
        assert check_sample(x, -1, spec) is x
        out = check_sample([0, 1], 1, spec)
        assert out.dtype == np.float64 and out.shape == (2,)

    @pytest.mark.parametrize("x,y", BAD_SAMPLES.values(), ids=BAD_SAMPLES.keys())
    def test_rejected_with_one_line(self, spec, x, y):
        with pytest.raises(ValueError) as exc:
            check_sample(x, y, spec)
        assert "\n" not in str(exc.value)

    @pytest.mark.parametrize("x,y", [BAD_SAMPLES["nan"], BAD_SAMPLES["label_0"]],
                             ids=["nan", "label_0"])
    def test_loss_and_grad_loss_reject(self, spec, x, y):
        with pytest.raises(ValueError):
            loss(np.zeros(2), Sample(x=x, y=y), spec)
        with pytest.raises(ValueError):
            grad_loss(np.zeros(2), Sample(x=x, y=y), spec)

    def test_norm_slack_is_absolute(self, spec):
        check_sample([1.0 + 5e-10, 0.0], 1, spec)
        with pytest.raises(ValueError, match="is not <= D"):
            check_sample([1.0 + 2e-9, 0.0], 1, spec)


class TestLoss:
    def test_value_at_zero(self, spec):
        s = Sample(x=np.array([0.7, -0.3]), y=1)
        expected = math.log(2) / spec.C  # 0.5278058342...
        assert loss(np.zeros(2), s, spec) == pytest.approx(expected, rel=1e-12)

    def test_value_at_full_margin(self, spec):
        # y <w, x> = D R = 1
        s = Sample(x=np.array([1.0, 0.0]), y=1)
        got = loss(np.array([1.0, 0.0]), s, spec)
        assert got == pytest.approx(math.log(1 + math.exp(-1)) / spec.C, rel=1e-12)

    def test_sign_symmetry(self, spec):
        w, x, _ = random_pairs(spec, 200, seed=3)
        for wi, xi in zip(w, x):
            lhs = loss(wi, Sample(x=xi, y=1), spec)
            rhs = loss(-wi, Sample(x=xi, y=-1), spec)
            assert lhs == pytest.approx(rhs, abs=1e-15)

    def test_range(self, spec):
        w, x, y = random_pairs(spec, 2000, seed=4)
        z = y * np.einsum("ij,ij->i", w, x)
        values = softplus(-z) / spec.C
        assert np.all(values >= 0) and np.all(values <= 1)

    def test_domain_errors(self, spec):
        big = np.array([2.0, 0.0])
        with pytest.raises(ValueError):
            loss(big, Sample(x=np.array([0.1, 0.0]), y=1), spec)
        with pytest.raises(ValueError):
            loss(np.zeros(2), Sample(x=big, y=1), spec)

    def test_convexity_probe(self, spec):
        rng = np.random.default_rng(8)
        w, x, y = random_pairs(spec, 300, seed=9)
        w2, _, _ = random_pairs(spec, 300, seed=10)
        for wi, wj, xi, yi in zip(w, w2, x, y):
            lam = rng.uniform()
            s = Sample(x=xi, y=int(yi))
            mixed = loss(lam * wi + (1 - lam) * wj, s, spec)
            assert mixed <= lam * loss(wi, s, spec) + (1 - lam) * loss(wj, s, spec) + 1e-9


class TestGrad:
    def test_value_at_zero(self, spec):
        s = Sample(x=np.array([1.0, 0.0]), y=1)
        expected = np.array([-0.5 / spec.C, 0.0])
        np.testing.assert_allclose(grad_loss(np.zeros(2), s, spec), expected, rtol=1e-12)

    def test_zero_feature(self, spec):
        s = Sample(x=np.zeros(2), y=-1)
        np.testing.assert_array_equal(grad_loss(np.array([0.1, 0.1]), s, spec), np.zeros(2))

    def test_finite_difference_agreement(self, spec):
        w, x, y = random_pairs(spec, 100, seed=12)
        h = 1e-6
        for wi, xi, yi in zip(w, x, y):
            s = Sample(x=xi, y=int(yi))
            g = grad_loss(wi, s, spec)
            fd = np.empty_like(g)
            for d in range(len(wi)):
                e = np.zeros_like(wi)
                e[d] = h
                # evaluate the formula directly; the perturbed point may
                # poke just outside the ball, which the formula tolerates
                zp = s.y * float(np.dot(wi + e, xi))
                zm = s.y * float(np.dot(wi - e, xi))
                fd[d] = (softplus(-zp) - softplus(-zm)) / (2 * h * spec.C)
            assert np.linalg.norm(fd - g) <= 1e-5 * max(np.linalg.norm(g), 1e-12)

    def test_self_bounding(self, spec):
        w, x, y = random_pairs(spec, 2000, seed=13)
        beta = spec.beta
        for wi, xi, yi in zip(w, x, y):
            s = Sample(x=xi, y=int(yi))
            gn2 = float(np.dot(grad_loss(wi, s, spec), grad_loss(wi, s, spec)))
            assert gn2 <= 4 * beta * loss(wi, s, spec) + 1e-9
            assert math.sqrt(gn2) <= 2 * math.sqrt(beta) + 1e-9

    def test_smoothness_probe(self, spec):
        w, x, y = random_pairs(spec, 300, seed=14)
        w2, _, _ = random_pairs(spec, 300, seed=15)
        beta = spec.beta
        for wi, wj, xi, yi in zip(w, w2, x, y):
            s = Sample(x=xi, y=int(yi))
            diff = np.linalg.norm(grad_loss(wi, s, spec) - grad_loss(wj, s, spec))
            assert diff <= beta * np.linalg.norm(wi - wj) + 1e-9


class TestEmpiricalRisk:
    """The empirical risk is the batch mean loss."""

    def test_single_sample(self, spec):
        s = Sample(x=np.array([0.5, 0.1]), y=-1)
        w = np.array([0.2, -0.3])
        assert batch_mean_loss(w, s.x[None], np.array([s.y]), spec) == loss(w, s, spec)

    def test_duplication_invariance(self, spec):
        x, y = np.array([[0.5, 0.1]]), np.array([1])
        w = np.array([0.2, -0.3])
        assert batch_mean_loss(w, np.repeat(x, 5, axis=0), np.repeat(y, 5), spec) == \
            pytest.approx(batch_mean_loss(w, x, y, spec), rel=1e-15)

    def test_mean_of_two_known_losses(self):
        # choose margins whose normalized losses are exactly 0.2 and 0.4
        spec = LossSpec.create(D=2.0, R=1.0, dim=2)
        z1 = -math.log(math.expm1(0.2 * spec.C))
        z2 = -math.log(math.expm1(0.4 * spec.C))
        w = np.array([1.0, 0.0])
        samples = [Sample(x=np.array([z, 0.0]), y=1) for z in (z1, z2)]
        assert loss(w, samples[0], spec) == pytest.approx(0.2, rel=1e-12)
        assert loss(w, samples[1], spec) == pytest.approx(0.4, rel=1e-12)
        X = np.array([s.x for s in samples])
        assert batch_mean_loss(w, X, np.array([1, 1]), spec) == pytest.approx(0.3, rel=1e-12)


class TestBatchHelpers:
    def test_batch_matches_scalar_path(self, spec):
        w, x, y = random_pairs(spec, 50, seed=16)
        wv = w[0]
        per = np.array([loss(wv, Sample(x=xi, y=int(yi)), spec) for xi, yi in zip(x, y)])
        np.testing.assert_allclose(batch_losses(wv, x, y, spec), per, rtol=1e-15)
        gs = np.mean(
            [grad_loss(wv, Sample(x=xi, y=int(yi)), spec) for xi, yi in zip(x, y)], axis=0
        )
        np.testing.assert_allclose(batch_mean_grad(wv, x, y, spec), gs, rtol=0, atol=1e-15)

    def test_sigmoid_softplus_stability(self):
        z = np.array([-800.0, -30.0, 0.0, 30.0, 800.0])
        assert np.all(np.isfinite(softplus(z)))
        assert np.all(np.isfinite(sigmoid(z)))
        assert softplus(np.array([800.0]))[0] == pytest.approx(800.0)
        assert sigmoid(np.array([0.0]))[0] == 0.5
