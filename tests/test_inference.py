"""Plug-in covariance, intervals, efficiency comparison, and the test statistic."""

import numpy as np
import pytest
from scipy import stats

from apsgd import (
    Constraint,
    DegenerateTestError,
    EstimatorState,
    IdentificationError,
    LearningRate,
    LinearModel,
    MeanModel,
    RankDeficiencyError,
    asymptotic_covariance,
    confidence_interval,
    coordinate_report,
    efficiency_gap,
    local_power,
    pinv_truncated,
    specification_test,
    test_from_states,
)
from apsgd.simulate import PRESETS, draw, replicate_streams, replication_rng

from test_linalg import random_pd, random_projection


def dgp1_stream(n, seed=0):
    dgp = PRESETS["linear"].spec(0.0)
    rng = replication_rng(seed, 0, 0)
    return [draw(dgp, rng) for _ in range(n)]


def moment_state(constraint, theta_bar, s_hat, t=100):
    """A two-coordinate location state after ``t`` observations with
    ``g_hat = I`` and the given average and gradient outer product."""
    state = EstimatorState(MeanModel(2), constraint)
    state.t, state.g_hat = t, np.eye(2)
    state.theta_bar, state.s_hat = np.array(theta_bar), np.array(s_hat)
    return state


def cell(preset, include_unconstrained, R=5):
    """One seeded Monte Carlo cell of ``R`` replications as batched states."""
    return replicate_streams(
        PRESETS[preset].spec(0.0), PRESETS[preset].constraint(), LearningRate(), T=600,
        replications=R, base_seed=11, include_unconstrained=include_unconstrained,
    )


def mean_stream(n, seed=0):
    """Two-coordinate location data with covariance diag(1, 3)."""
    rng = replication_rng(seed, 1, 0)
    out = []
    for _ in range(n):
        w = rng.standard_normal(2)
        out.append(np.array([1.0, 1.0]) + w * np.array([1.0, np.sqrt(3.0)]))
    return out


class TestAsymptoticCovariance:
    def test_mean_unconstrained_equals_s_hat(self):
        # location curvature is the identity, so the sandwich collapses to s_hat
        state = EstimatorState(MeanModel(2), Constraint.unconstrained(2))
        state.run_stream(mean_stream(500))
        np.testing.assert_allclose(
            asymptotic_covariance(state), state.s_hat, atol=1e-12
        )

    def test_mean_constrained_structure(self):
        con = Constraint.from_equalities([[1.0, -1.0]], [0.0])
        state = EstimatorState(MeanModel(2), con)
        state.run_stream(mean_stream(500))
        P = con.P
        np.testing.assert_allclose(
            asymptotic_covariance(state), P @ state.s_hat @ P, atol=1e-10
        )

    def test_too_few_observations(self):
        state = EstimatorState(LinearModel(4), Constraint.unconstrained(4))
        state.run_stream(dgp1_stream(2))
        with pytest.raises(IdentificationError):
            asymptotic_covariance(state)

    def test_symmetric_psd(self):
        con = PRESETS["linear"].constraint()
        state = EstimatorState(LinearModel(4), con).run_stream(dgp1_stream(2000))
        cov = asymptotic_covariance(state)
        np.testing.assert_array_equal(cov, cov.T)
        assert np.all(np.linalg.eigvalsh(cov) >= -1e-10 * np.linalg.norm(cov, 2))


class TestConfidenceInterval:
    def test_half_width_vanishes_as_alpha_approaches_one(self):
        con = PRESETS["linear"].constraint()
        state = EstimatorState(LinearModel(4), con).run_stream(dgp1_stream(2000))
        lo, hi = confidence_interval(
            state, lambda th: th[0], lambda th: np.eye(4)[0], alpha=1.0 - 1e-12
        )
        assert hi - lo <= 1e-10

    def test_constraint_direction_has_zero_variance(self):
        """A functional aligned with a constraint row is estimated exactly."""
        con = PRESETS["linear"].constraint()
        state = EstimatorState(LinearModel(4), con).run_stream(dgp1_stream(3000))
        row = con.B[0]
        lo, hi = confidence_interval(
            state, lambda th: float(row @ th), lambda th: row, alpha=0.05
        )
        assert hi - lo <= 1e-10
        assert abs(0.5 * (lo + hi)) <= 1e-8
        # the mechanism: the truncated inverse annihilates the row space of B
        mid = pinv_truncated(con.P @ state.g_hat @ con.P, con.d)
        assert np.linalg.norm(con.B @ mid, 2) <= 1e-8 * np.linalg.norm(mid, 2)

    def test_interval_brackets_estimate(self):
        con = PRESETS["linear"].constraint()
        state = EstimatorState(LinearModel(4), con).run_stream(dgp1_stream(2000))
        report = coordinate_report(state, alpha=0.05)
        assert np.all(report.ci_lower <= report.theta_bar)
        assert np.all(report.theta_bar <= report.ci_upper)
        assert np.all(report.std_error >= 0.0)


class TestCoordinateReport:
    def test_pinned_coordinate_has_nan_p_value(self):
        con = Constraint.from_equalities([[1.0, 0.0]], [2.0])  # theta_1 pinned at 2
        state = EstimatorState(MeanModel(2), con)
        state.run_stream(mean_stream(300))
        report = coordinate_report(state, alpha=0.05)
        assert report.std_error[0] == 0.0
        assert np.isnan(report.p_value[0])
        assert report.theta_bar[0] == pytest.approx(2.0, abs=1e-10)
        assert report.std_error[1] > 0.0
        assert 0.0 <= report.p_value[1] <= 1.0

    def test_p_value_does_not_underflow(self):
        """z = 10 has two-sided p-value 1.5e-23, not 2 (1 - 1.0) = 0."""
        state = moment_state(Constraint.unconstrained(2), [1.0, 0.5], np.eye(2))
        report = coordinate_report(state)
        np.testing.assert_allclose(report.std_error, [0.1, 0.1], rtol=1e-15)
        np.testing.assert_allclose(report.p_value, 2.0 * stats.norm.sf([10.0, 5.0]), rtol=1e-9)
        assert report.p_value[0] > 1e-24

    def test_custom_names(self):
        state = EstimatorState(MeanModel(2), Constraint.unconstrained(2))
        state.run_stream(mean_stream(50))
        report = coordinate_report(state, names=["a", "b"])
        assert report.names == ("a", "b")


class TestSpecificationTest:
    def test_degenerate_when_no_effective_constraint(self):
        with pytest.raises(DegenerateTestError):
            specification_test(
                dgp1_stream(50), LinearModel(4), Constraint.unconstrained(4)
            )

    def test_statistic_zero_when_averages_coincide(self):
        """kappa is exactly 0 when the two averages agree."""
        con = Constraint.from_equalities([[1.0, -1.0]], [0.0])
        base = {
            "t": 100,
            "theta": [0.5, 0.5],
            "theta_bar": [0.5, 0.5],
            "g_hat": np.eye(2).tolist(),
            "s_hat": (2.0 * np.eye(2)).tolist(),
            "schedule": {"gamma": 1.0, "rho": 0.505},
        }
        rec_p = dict(
            base,
            constraint={
                "B": con.B.tolist(), "b": con.b.tolist(), "P": con.P.tolist(),
                "c": con.c.tolist(), "d": con.d,
            },
        )
        uncon = Constraint.unconstrained(2)
        rec_i = dict(
            base,
            constraint={
                "B": uncon.B.tolist(), "b": uncon.b.tolist(), "P": uncon.P.tolist(),
                "c": uncon.c.tolist(), "d": uncon.d,
            },
        )
        result = test_from_states(
            EstimatorState.from_record(rec_p, MeanModel(2)),
            EstimatorState.from_record(rec_i, MeanModel(2)),
        )
        assert result.kappa == 0.0
        assert not result.reject
        assert result.p_value == pytest.approx(1.0)

    def test_p_value_does_not_underflow(self):
        """kappa = 80 on one degree of freedom has upper tail 3.7e-19, not 1 - 1.0 = 0."""
        shift = np.sqrt(0.8)  # kappa = T shift^2 with T = 100
        con = Constraint.from_equalities([[1.0, -1.0]], [0.0])
        result = test_from_states(
            moment_state(con, [0.5, 0.5], 2.0 * np.eye(2)),
            moment_state(Constraint.unconstrained(2), [0.5 + shift, 0.5 - shift], 2.0 * np.eye(2)),
        )
        assert result.kappa == pytest.approx(80.0, rel=1e-12)
        assert result.p_value == pytest.approx(stats.chi2(1).sf(result.kappa), rel=1e-9)
        assert result.p_value > 1e-19

    def test_result_invariants_on_real_stream(self):
        con = PRESETS["linear"].constraint()
        result = specification_test(dgp1_stream(3000, seed=12), LinearModel(4), con)
        assert result.kappa >= 0.0
        assert result.df == 1
        assert 0.0 <= result.p_value <= 1.0
        from apsgd import chi2_quantile

        assert result.reject == (result.kappa > chi2_quantile(result.alpha, result.df))
        assert con.violation(result.theta_bar_constrained) <= 1e-8

    def test_weight_matrix_structure(self):
        """The weight matrix lives entirely in the orthogonal complement of P."""
        con = PRESETS["linear"].constraint()
        result = specification_test(dgp1_stream(2000, seed=13), LinearModel(4), con)
        W = result.weight_matrix
        assert np.linalg.norm(con.P @ W, 2) <= 1e-8 * np.linalg.norm(W, 2)
        w_inv = pinv_truncated(W, result.df)
        anti = np.eye(4) - con.P
        assert np.linalg.norm(w_inv - anti @ w_inv, 2) <= 1e-8 * np.linalg.norm(w_inv, 2)


class TestBatchedStates:
    """An ``(R, p)`` Monte Carlo cell gives each replication's results bit for bit."""

    @pytest.mark.parametrize("preset", ["linear", "logistic"])
    def test_covariance_and_report_equal_each_replication(self, preset):
        state, _ = cell(preset, include_unconstrained=False)
        cov = asymptotic_covariance(state)
        report = coordinate_report(state, alpha=0.1)
        assert cov.shape == (5, 4, 4) and report.p_value.shape == (5, 4)
        for k in range(5):
            single = coordinate_report(state[k], alpha=0.1)
            np.testing.assert_array_equal(cov[k], asymptotic_covariance(state[k]))
            for name in ("theta_bar", "std_error", "ci_lower", "ci_upper", "p_value", "covariance"):
                np.testing.assert_array_equal(getattr(report, name)[k], getattr(single, name))

    def test_paired_test_equals_each_replication(self):
        con, uncon = cell("linear", include_unconstrained=True)
        result = test_from_states(con, uncon)
        assert result.kappa.shape == result.reject.shape == (5,)
        for k in range(5):
            single = test_from_states(con[k], uncon[k])
            for name in ("kappa", "p_value", "reject", "weight_matrix", "theta_bar_constrained"):
                np.testing.assert_array_equal(getattr(result, name)[k], getattr(single, name))

    def test_failure_names_the_first_bad_replication(self):
        con, uncon = cell("linear", include_unconstrained=True)
        con.g_hat[[2, 4]] = 0.0
        with pytest.raises(IdentificationError, match=r"rank-deficient: matrix \(2,\): requested"):
            asymptotic_covariance(con)
        with pytest.raises(IdentificationError, match=r"rank-deficient: requested rank 3"):
            asymptotic_covariance(con[2])
        uncon.g_hat[3] = np.diag([1.0, 1.0, 1.0, 0.0])
        with pytest.raises(IdentificationError, match=r"^matrix \(3,\): unconstrained curvature"):
            test_from_states(cell("linear", True)[0], uncon)


class TestEfficiencyGap:
    def test_zero_when_unconstrained(self):
        rng = np.random.default_rng(31)
        G = random_pd(rng, 3)
        np.testing.assert_allclose(
            efficiency_gap(G, G, np.eye(3), 3), np.zeros((3, 3)), atol=1e-10
        )

    def test_indefinite_example(self):
        """Location model with unequal variances: the gap is not PSD."""
        sigma2 = 1.69
        S = np.diag([sigma2, 3.0 * sigma2])
        P = np.full((2, 2), 0.5)
        gap = efficiency_gap(np.eye(2), S, P, 1)
        expected = np.array([[0.0, -sigma2], [-sigma2, 2.0 * sigma2]])
        np.testing.assert_allclose(gap, expected, atol=1e-10)
        eigenvalues = np.linalg.eigvalsh(gap)
        assert eigenvalues[0] < -1e-6 and eigenvalues[-1] > 1e-6

    def test_identity_case_by_hand(self):
        P = np.full((2, 2), 0.5)
        gap = efficiency_gap(np.eye(2), np.eye(2), P, 1)
        np.testing.assert_allclose(gap, np.eye(2) - P, atol=1e-12)
        vals = np.linalg.eigvalsh(gap)
        assert vals[-1] == pytest.approx(1.0, abs=1e-10)
        assert abs(vals[0]) <= 1e-10

    def test_proportional_moments_give_psd_gap_of_fixed_rank(self):
        """With S = c G the gap is PSD with exactly p - d nonzero directions."""
        rng = np.random.default_rng(37)
        for _ in range(100):
            p = int(rng.integers(2, 7))
            d = int(rng.integers(0, p + 1))
            G = random_pd(rng, p)
            c = float(rng.uniform(0.2, 5.0))
            P = random_projection(rng, p, d)
            gap = efficiency_gap(G, c * G, P, d)
            v_i_norm = np.linalg.norm(c * np.linalg.inv(G), 2)
            vals = np.linalg.eigvalsh(gap)
            assert vals[0] >= -1e-8 * v_i_norm
            assert int(np.sum(vals > 1e-6 * v_i_norm)) == p - d

    def test_non_pd_rejected(self):
        with pytest.raises(IdentificationError):
            efficiency_gap(np.diag([1.0, 0.0]), np.eye(2), np.eye(2), 2)


class TestLocalPower:
    def test_null_gives_alpha(self):
        W = np.diag([0.0, 1.0])
        assert local_power(np.zeros(2), W, 1, alpha=0.05) == pytest.approx(0.05, abs=1e-10)

    def test_saturates_at_one(self):
        W = np.diag([0.0, 1.0])
        mu = np.array([0.0, 200.0])  # noncentrality 4e4
        assert local_power(mu, W, 1, alpha=0.05) >= 0.9999

    def test_textbook_80_percent_point(self):
        # noncentrality (z_{0.025} + z_{0.2})^2 = 7.849 gives 80% power at df 1
        W = np.diag([0.0, 1.0])
        mu = np.array([0.0, np.sqrt(7.849)])
        assert local_power(mu, W, 1, alpha=0.05) == pytest.approx(0.80, abs=0.01)

    def test_rank_mismatch(self):
        with pytest.raises(RankDeficiencyError):
            local_power(np.zeros(2), np.eye(2), 1)

    def test_invariant_to_feasible_representative(self):
        """Any vector with the same image under B yields the same power."""
        B = np.array([[0.0, 1.0, 1.0, 1.0]])
        con = Constraint.from_equalities(B, [0.0])
        W = 9.0 * (np.eye(4) - con.P)
        beta = 3.7
        mu0 = B.T @ np.linalg.solve(B @ B.T, [beta])
        mu0 = mu0.ravel()
        rng = np.random.default_rng(5)
        reference = local_power(mu0, W, 1)
        for _ in range(10):
            mu = mu0 + con.P @ rng.standard_normal(4)
            assert local_power(mu, W, 1) == pytest.approx(reference, abs=1e-10)


class TestNullCalibration:
    def test_ks_against_chi_square(self, null_cell):
        """Statistics under the true constraint look chi-square(1), 500 reps."""
        kappas = null_cell.kappa_samples[(50_000, 0.0)]
        assert kappas.shape[0] >= 500
        result = stats.kstest(kappas, stats.chi2(1).cdf)
        assert result.pvalue >= 0.01
