import numpy as np
import pytest

from co2learn.geometry import Sample, project_to_ball


class TestProjectToBall:
    def test_zero_fixed_point(self):
        np.testing.assert_array_equal(project_to_ball(np.zeros(2), 1.0), np.zeros(2))

    def test_inside_untouched(self):
        w = np.array([0.3, 0.4])
        np.testing.assert_array_equal(project_to_ball(w, 1.0), w)

    def test_rescales_outside(self):
        np.testing.assert_allclose(
            project_to_ball(np.array([3.0, 4.0]), 1.0), [0.6, 0.8], rtol=0, atol=1e-15
        )

    def test_result_norm_within_tolerance(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            w = rng.normal(size=4) * rng.uniform(0, 10)
            out = project_to_ball(w, 1.0)
            assert np.linalg.norm(out) <= 1.0 + 1e-12

    def test_idempotent_exactly(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            w = rng.normal(size=3) * rng.uniform(0, 5)
            once = project_to_ball(w, 1.0)
            twice = project_to_ball(once, 1.0)
            np.testing.assert_array_equal(once, twice)

    def test_non_expansive(self):
        rng = np.random.default_rng(6)
        for _ in range(500):
            u, v = rng.normal(size=(2, 3)) * 4
            lhs = np.linalg.norm(project_to_ball(u, 1.0) - project_to_ball(v, 1.0))
            assert lhs <= np.linalg.norm(u - v) + 1e-12

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            project_to_ball(np.array([np.nan, 1.0]), 1.0)
        with pytest.raises(ValueError):
            project_to_ball(np.array([np.inf, 1.0]), 1.0)
        # finite entries whose norm overflows
        with np.errstate(over="ignore"), pytest.raises(ValueError):
            project_to_ball(np.array([1e200, 1e200]), 1.0)

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            project_to_ball(np.ones(2), 0.0)


class TestTypes:
    def test_sample_validation(self):
        s = Sample(x=np.array([0.1, 0.2]), y=-1)
        assert s.x.dtype == np.float64
        with pytest.raises(ValueError):
            Sample(x=np.array([np.nan, 0.0]), y=1)
        with pytest.raises(ValueError):
            Sample(x=np.array([0.0, 0.0]), y=0)
