import math

import numpy as np
import pytest

from co2learn import ConfigError, bounds
from co2learn.bounds import (
    BoundInputs,
    bound_report,
    co2_regret_bounds,
    estimate_eigenvalues,
    excess_risk_bound,
    k_condition,
    meta_regret_bound,
    ogd_regret_bound,
    rademacher_bound,
    transfer_gap_bound,
)


class TestMetaRegretBound:
    def test_single_expert_zero(self):
        assert meta_regret_bound(100, 1) == 0.0

    def test_hand_value(self):
        assert meta_regret_bound(100, 2) == pytest.approx(8.325546111576978, rel=1e-12)

    def test_sqrt_T_scaling(self):
        assert meta_regret_bound(400, 2) == pytest.approx(2 * meta_regret_bound(100, 2), rel=1e-12)


class TestOgdRegretBound:
    def test_hand_values(self):
        assert ogd_regret_bound(100, 1.0, 1.0, 1.0) == pytest.approx(60.0, rel=1e-12)
        assert ogd_regret_bound(1, 1.0, 1.0, 4.0) == pytest.approx(12.0, rel=1e-12)
        assert ogd_regret_bound(100, 1.0, 2.0, 1.0) == pytest.approx(120.0, rel=1e-12)

    def test_linearity_in_D(self):
        assert ogd_regret_bound(100, 2.0, 1.0, 1.0) == pytest.approx(
            2 * ogd_regret_bound(100, 1.0, 1.0, 1.0), rel=1e-12
        )

    @pytest.mark.parametrize("D", [0.1, 0.3, 1.0, 7.0])
    @pytest.mark.parametrize("R_share", [1e-300, 0.01, 0.5, 0.999999, 1.0])
    def test_is_6_D_sqrt_T_beta_bit_for_bit_at_R_up_to_D(self, D, R_share):
        R = D * R_share  # exactly D at share 1
        for T, beta in [(1, 1.0), (200, 0.35), (20000, 2.5e3)]:
            assert ogd_regret_bound(T, D, R, beta) == 6.0 * D * math.sqrt(T * beta)

    @pytest.mark.parametrize("D,R", [(0.1, 1.0), (0.3, 0.31), (1.0, 2.0), (7.0, 70.0),
                                     (0.01, 100.0)])
    def test_is_zinkevich_s_general_form_above_D(self, D, R):
        T, beta = 200, 2.5
        assert ogd_regret_bound(T, D, R, beta) == pytest.approx(
            (2 * R * R / D + 4 * D) * math.sqrt(T * beta), rel=1e-15)
        assert ogd_regret_bound(T, D, R, beta) > 6.0 * D * math.sqrt(T * beta)

    def test_rejects_zero_T(self):
        with pytest.raises(ValueError):
            ogd_regret_bound(0, 1.0, 1.0, 1.0)


class TestCoupledRegretBounds:
    def test_hand_value(self):
        general, worst = co2_regret_bounds(100, 2, 1.0, 1.0, 1.0, 60.0)
        assert general == pytest.approx(68.32554611, rel=1e-9)
        assert worst == pytest.approx(68.32554611, rel=1e-9)

    def test_single_expert(self):
        general, worst = co2_regret_bounds(100, 1, 1.0, 1.0, 1.0, 0.0)
        assert general == 0.0
        assert worst == pytest.approx(60.0, rel=1e-12)

    def test_general_below_worst_when_ke_small(self):
        general, worst = co2_regret_bounds(200, 3, 1.0, 1.0, 0.5, 10.0)
        assert general <= worst


class TestKCondition:
    """k_condition returns the log of the right-hand side 2 exp(...)."""

    def test_boundary(self):
        T, D, beta = 100, 1.0, 1.0
        got = k_condition(T, D, 1.0, beta, 6 * D * math.sqrt(T * beta))
        assert got == pytest.approx(math.log(2.0), rel=1e-12)

    def test_hand_value(self):
        assert k_condition(100, 1.0, 1.0, 1.0, 50.0) == pytest.approx(math.log(2 * math.e),
                                                                       rel=1e-12)

    def test_monotone_in_regret(self):
        values = [k_condition(100, 1.0, 1.0, 1.0, r) for r in (0.0, 10.0, 30.0, 60.0)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestTransferGapBound:
    def test_hand_values(self):
        assert transfer_gap_bound(0.0, 1.0, 1.0, 0.0) == pytest.approx(math.sqrt(32), rel=1e-12)
        assert transfer_gap_bound(0.5, 1.0, 2.0, 0.4) == pytest.approx(
            math.sqrt(10.2), rel=1e-12
        )

    def test_vanishes_for_large_gamma(self):
        assert transfer_gap_bound(0.0, 1.0, 1e6, 0.0) < 6e-3
        assert transfer_gap_bound(0.0, 1.0, 1e6, 1.0) < 6e-3


class TestRademacherBound:
    def test_zero_eigenvalues(self):
        assert rademacher_bound(100, 1.0, 1.0, np.zeros(3)) == pytest.approx(
            math.sqrt(math.e) / 100, rel=1e-12
        )

    def test_hand_value(self):
        got = rademacher_bound(100, 1.0, 1.0, np.array([1.0, 0.0]))
        assert got == pytest.approx(0.0329744254, abs=1e-9)

    def test_linear_in_R(self):
        ev = np.array([0.7, 0.2])
        assert rademacher_bound(50, 1.0, 3.0, ev) == pytest.approx(
            3 * rademacher_bound(50, 1.0, 1.0, ev), rel=1e-12
        )

    def test_monotone_in_eigenvalues_and_bounds(self):
        base = rademacher_bound(100, 1.0, 1.0, np.array([0.5, 0.1]))
        assert rademacher_bound(100, 1.0, 1.0, np.array([0.6, 0.1])) >= base
        assert rademacher_bound(100, 1.5, 1.0, np.array([0.5, 0.1])) >= base
        assert rademacher_bound(100, 1.0, 1.5, np.array([0.5, 0.1])) >= base

    def test_rejects_increasing_list(self):
        with pytest.raises(ValueError):
            rademacher_bound(100, 1.0, 1.0, np.array([0.1, 0.5]))


def make_inputs(**overrides):
    base = dict(
        T=100, K=2, D=1.0, R=1.0, beta=1.0, gamma=1.0, delta=0.05,
        regret_KE=0.0, omega_star=0.0, weighted_loss=0.0,
        eigenvalues=np.array([1.0, 0.0]),
    )
    base.update(overrides)
    return BoundInputs(**base)


class TestBoundInputs:
    @pytest.mark.parametrize("bad", [
        dict(T=2.5),
        dict(K=True),
        dict(gamma=0.0),
        dict(regret_KE=float("inf")),
        dict(weighted_loss=1.5),
        dict(eigenvalues=np.array([1.0, float("nan")])),
        dict(eigenvalues=np.array([float("nan"), 0.0])),
        dict(gamma=1e-300),  # 32 beta / gamma^2 overflows
        dict(T=10**400),  # past the float range
        dict(D=10**400),
        dict(regret_KE=-10**400),
    ])
    def test_bad_input_rejected(self, bad):
        with pytest.raises(ConfigError):
            make_inputs(**bad)

    @pytest.mark.parametrize("overrides", [
        dict(gamma=1e150), dict(gamma=1e-150), dict(regret_KE=-7000.0),
        dict(gamma=1e200),  # gamma**2 would overflow; 32 beta / gamma / gamma is 0.0
        # each overflowed the K condition's 2 exp(...); its log form is finite
        dict(regret_KE=-7200.0),
        dict(D=200.0), dict(D=200.0, regret_KE=5.0), dict(D=200.0, regret_KE=-7200.0),
        dict(D=709.5 / 6.0),
    ])
    def test_every_calculator_returns_a_number_at_the_float_range_edges(self, overrides):
        inputs = make_inputs(**overrides)
        report = bound_report(inputs)
        assert all(math.isfinite(v) for k, v in report.items() if k != "inputs")
        assert report["k_condition_log_rhs"] == pytest.approx(
            math.log(2.0) + 6 * inputs.D - inputs.regret_KE / 10, rel=1e-12)

    @pytest.mark.parametrize("overrides,name", [
        (dict(T=10**308, K=10**300), "meta_regret_bound"),
        (dict(D=1e308), "ogd_regret_bound"),
        (dict(T=1, D=1e308 / 6, regret_KE=-1e308), "k_condition_log_rhs"),
        (dict(gamma=1e-300), "transfer_gap_bound"),
        (dict(T=1, R=1e308), "ogd_regret_bound"),  # 2 R^2 / D overflows first
        (dict(delta=5e-324), "excess_risk_bound"),  # log(16 / delta) overflows
        # numpy's overflow in the eigenvalue sum is an inf, not a warning
        (dict(D=1e154, eigenvalues=np.array([1e308, 1e308])), "rademacher_bound"),
    ])
    def test_the_first_calculator_past_the_float_range_is_named(self, overrides, name):
        with pytest.raises(ConfigError, match=f"^{name} must be a finite number, got (inf|nan) "
                                              f"at T="):
            make_inputs(**overrides)

    def test_negative_regret_accepted(self):
        assert make_inputs(regret_KE=-3.0).regret_KE == -3.0


class TestExcessRiskBound:
    def test_positive(self):
        assert excess_risk_bound(make_inputs()) > 0

    def test_monotone_in_confidence(self):
        loose = excess_risk_bound(make_inputs(delta=0.2))
        tight = excess_risk_bound(make_inputs(delta=0.01))
        assert tight > loose

    def test_matches_independent_term_evaluation(self):
        T, K, D, R, beta, delta = 100, 2, 1.0, 1.0, 1.0, 0.05
        ev = [1.0, 0.0]
        # scripted re-evaluation of the three summands
        t1 = (12 * beta * R * R + 4 * R * math.sqrt(beta)) * math.log(16 / delta) / T
        cap = math.sqrt(sum(min(T * D * D, math.e * lam) for lam in ev)) + D * math.sqrt(math.e)
        t2 = 28 * R * math.sqrt(beta) * math.log(64 * T) ** 1.5 / T * cap
        t3 = (
            (6 * R * math.sqrt(beta) + 2) * math.sqrt(math.log(16 / delta))
            + 4 * math.log(8 / delta)
            + math.sqrt(math.log(K))
            + 6 * D * math.sqrt(beta)
        ) / math.sqrt(T)
        got = excess_risk_bound(make_inputs())
        assert got == pytest.approx(t1 + t2 + t3, rel=1e-9)

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            make_inputs(delta=0.0)
        with pytest.raises(ValueError):
            make_inputs(delta=1.0)


class TestEachRateHasOneHome:
    """The bounds built on a rate call its calculator: raising one calculator
    by 1 moves each of them by what its formula implies, so a rate restated
    inline fails here."""

    @pytest.mark.parametrize("name,shifts", [
        # (k_condition, co2_regret_bounds(...).worst, excess_risk_bound)
        ("ogd_regret_bound", (1 / 10, 1.0, 1 / 100)),
        ("meta_regret_bound", (0.0, 1.0, 1 / 100)),
        ("rademacher_bound", (0.0, 0.0, 28 * 0.5 * math.log(6400) ** 1.5)),
    ])
    def test_raising_a_calculator_moves_the_bounds_built_on_it(self, monkeypatch, name, shifts):
        inputs = make_inputs(T=100, K=3, beta=0.25, regret_KE=2.0,
                             eigenvalues=np.array([0.6, 0.3]))

        def built_on_it():
            return (k_condition(100, 1.0, 1.0, 0.25, 2.0),
                    co2_regret_bounds(100, 3, 1.0, 1.0, 0.25, 2.0).worst,
                    excess_risk_bound(inputs))

        before = built_on_it()
        calculator = getattr(bounds, name)
        monkeypatch.setattr(bounds, name, lambda *args: calculator(*args) + 1.0)
        moved = [a - b for a, b in zip(built_on_it(), before)]
        assert moved == pytest.approx(shifts, rel=1e-9, abs=1e-12)


class TestEstimateEigenvalues:
    def test_rank_one(self):
        X = np.tile(np.array([1.0, 0.0]), (50, 1))
        np.testing.assert_allclose(estimate_eigenvalues(X), [1.0, 0.0], atol=1e-12)

    def test_isotropic_sphere(self):
        rng = np.random.default_rng(123)
        X = rng.normal(size=(10_000, 2))
        X /= np.linalg.norm(X, axis=1, keepdims=True)
        ev = estimate_eigenvalues(X)
        np.testing.assert_allclose(ev, [0.5, 0.5], atol=0.05)

    def test_trace_identity(self):
        rng = np.random.default_rng(124)
        X = rng.normal(size=(500, 3))
        ev = estimate_eigenvalues(X)
        assert ev.sum() == pytest.approx(float(np.mean(np.sum(X * X, axis=1))), rel=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            estimate_eigenvalues(np.zeros((0, 2)))


class TestBoundReport:
    def test_contains_all_calculators_and_echoes_inputs(self):
        report = bound_report(make_inputs(regret_KE=5.0))
        for key in (
            "meta_regret_bound", "ogd_regret_bound", "co2_regret_bound_general",
            "co2_regret_bound_worst", "k_condition_log_rhs", "transfer_gap_bound",
            "rademacher_bound", "excess_risk_bound",
        ):
            assert key in report and np.isfinite(report[key])
        assert report["inputs"]["regret_KE"] == 5.0
