"""Plug-in covariance, intervals, efficiency comparison, and the test statistic."""

import numpy as np
import pytest
from scipy import stats

from apsgd import (
    Constraint,
    DegenerateTestError,
    DimensionError,
    DomainError,
    EstimatorState,
    IdentificationError,
    LearningRate,
    LinearModel,
    MeanModel,
    RankDeficiencyError,
    asymptotic_covariance,
    chi2_quantile,
    coordinate_report,
    efficiency_gap,
    local_power,
    spec_test_from_state,
    specification_test,
)
from apsgd.simulate import PRESETS, draw_block, replicate_streams, replication_rng

from test_linalg import random_pd


def reference_pinv(a):
    """numpy's pseudoinverse of a symmetric matrix, relative cutoff 1e-10: a
    reference independent of the constraint's bases."""
    return np.linalg.pinv(a, hermitian=True, rtol=1e-10)


def dgp1_stream(n, seed=0):
    """``n`` draws of the linear preset as a stream of one block."""
    return [draw_block(PRESETS["linear"].spec(0.0), replication_rng(seed, 0, 0), n)]


def moment_state(constraint, theta_bar, s_hat, t=100):
    """A two-coordinate location state after ``t`` observations with
    ``g_hat = I`` and the given average and gradient outer product."""
    state = EstimatorState(MeanModel(2), constraint)
    state.t, state.g_hat = t, np.eye(2)
    state.theta_bar, state.s_hat = np.array(theta_bar), np.array(s_hat)
    return state


def cell(preset, constraint, R=5):
    """One seeded Monte Carlo cell of ``R`` replications under ``constraint``
    as one batched state."""
    (state,) = replicate_streams(
        PRESETS[preset].spec(0.0), (constraint,), LearningRate(), T=600,
        replications=R, base_seed=11,
    )
    return state


def mean_stream(n, seed=0):
    """Two-coordinate location data with covariance diag(1, 3), as a stream
    of one block."""
    rng = replication_rng(seed, 1, 0)
    out = []
    for _ in range(n):
        w = rng.standard_normal(2)
        out.append(np.array([1.0, 1.0]) + w * np.array([1.0, np.sqrt(3.0)]))
    return [np.array(out)]


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

    def test_constraint_direction_has_zero_variance(self):
        """The pseudoinverse of the projected curvature annihilates the row
        space of B, so a functional along a constraint row has no plug-in
        variance, and the covariance is that pseudoinverse's sandwich."""
        con = PRESETS["linear"].constraint()
        state = EstimatorState(LinearModel(4), con).run_stream(dgp1_stream(3000))
        mid = reference_pinv(con.P @ state.g_hat @ con.P)
        assert np.linalg.norm(con.B @ mid, 2) <= 1e-8 * np.linalg.norm(mid, 2)
        cov = asymptotic_covariance(state)
        assert abs(con.B[0] @ cov @ con.B[0]) <= 1e-10 * np.linalg.norm(cov, 2)
        reference = mid @ state.s_hat @ mid
        np.testing.assert_allclose(cov, reference, rtol=0.0, atol=1e-12 * np.abs(cov).max())

    def test_symmetric_psd(self):
        con = PRESETS["linear"].constraint()
        state = EstimatorState(LinearModel(4), con).run_stream(dgp1_stream(2000))
        cov = asymptotic_covariance(state)
        np.testing.assert_array_equal(cov, cov.T)
        assert np.all(np.linalg.eigvalsh(cov) >= -1e-10 * np.linalg.norm(cov, 2))


class TestCoordinateReport:
    def test_interval_brackets_estimate(self):
        con = PRESETS["linear"].constraint()
        state = EstimatorState(LinearModel(4), con).run_stream(dgp1_stream(2000))
        report = coordinate_report(state, alpha=0.05)
        assert np.all(report.ci_lower <= report.theta_bar)
        assert np.all(report.theta_bar <= report.ci_upper)
        assert np.all(report.std_error >= 0.0)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, float("nan")])
    def test_alpha_outside_the_unit_interval_is_rejected(self, alpha):
        """``alpha = 1.5`` would give the quantile at 0.75, which is negative,
        and so intervals with their ends swapped."""
        state = EstimatorState(MeanModel(2), Constraint.unconstrained(2))
        state.run_stream(mean_stream(50))
        with pytest.raises(DomainError, match="alpha"):
            coordinate_report(state, alpha=alpha)

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

    def test_statistic_zero_when_the_free_average_is_feasible(self):
        """kappa is 0, up to the rounding of ``P``, when the unconstrained
        average satisfies the constraint, as the constrained average always
        does: their difference lies in the kernel of ``B``."""
        con = Constraint.from_equalities([[1.0, -1.0]], [0.0])
        free = moment_state(Constraint.unconstrained(2), [0.5, 0.5], 2.0 * np.eye(2))
        result = spec_test_from_state(free, con)
        assert 0.0 <= result.kappa <= 1e-28
        assert not result.reject
        assert result.p_value == pytest.approx(1.0)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, float("nan")])
    def test_alpha_outside_the_unit_interval_is_named(self, alpha):
        """A bad alpha is named as alpha, before the weight matrix is built."""
        con = Constraint.from_equalities([[1.0, -1.0]], [0.0])
        free = moment_state(Constraint.unconstrained(2), [0.5, 0.5], np.eye(2))
        message = rf"^alpha must lie strictly in \(0, 1\), got {alpha}$"
        with pytest.raises(DomainError, match=message):
            spec_test_from_state(free, con, alpha=alpha)

    @pytest.mark.parametrize(
        "state, error, message",
        [
            (
                moment_state(Constraint.from_equalities([[1.0, 1.0]], [0.0]), [0.5, -0.5], np.eye(2)),
                DomainError,
                r"^the test reads an unconstrained stream on R\^2, got one with 1 free",
            ),
            (
                EstimatorState(MeanModel(2), Constraint.unconstrained(2)),
                IdentificationError,
                "^the unconstrained stream has consumed no observations$",
            ),
        ],
        ids=["constrained_state", "empty_stream"],
    )
    def test_a_state_the_test_cannot_read_is_named(self, state, error, message):
        con = Constraint.from_equalities([[1.0, -1.0]], [0.0])
        with pytest.raises(error, match=message):
            spec_test_from_state(state, con)

    def test_p_value_does_not_underflow(self):
        """kappa = 80 on one degree of freedom has upper tail 3.7e-19, not 1 - 1.0 = 0."""
        shift = np.sqrt(0.8)  # kappa = T shift^2 with T = 100
        con = Constraint.from_equalities([[1.0, -1.0]], [0.0])
        result = spec_test_from_state(
            moment_state(Constraint.unconstrained(2), [0.5 + shift, 0.5 - shift], 2.0 * np.eye(2)),
            con,
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
        assert result.reject == (result.kappa > chi2_quantile(result.alpha, result.df))


def two_stream_kappa(blocks, model, constraint):
    """The paper's statistic from its definition: the constrained and the
    unconstrained averages, each from its own pass over ``blocks`` started
    at ``c``, compared under the weight built from the unconstrained moments."""
    free = Constraint.unconstrained(constraint.p)
    con_state, free_state = (
        EstimatorState(model, con, theta0=constraint.c).run_stream(blocks)
        for con in (constraint, free)
    )
    g_inv = np.linalg.inv(free_state.g_hat)
    anti = np.eye(constraint.p) - constraint.P
    weight = anti @ g_inv @ free_state.s_hat @ g_inv @ anti
    w_inv = reference_pinv(0.5 * (weight + weight.T))
    diff = con_state.theta_bar - free_state.theta_bar
    return con_state.t * diff @ w_inv @ diff


#: Constraints on the linear preset's four coefficients beyond its own.
LINEAR_SYSTEMS = {
    "df2": ([[0.0, 1.0, 1.0, 1.0], [2.0, 1.0, 0.0, 0.0]], [0.0, 0.0]),
    "redundant": ([[0.0, 1.0, 1.0, 1.0], [0.0, 2.0, 2.0, 2.0]], [0.0, 0.0]),
    "b_nonzero": ([[1.0, 0.0, 0.0, 0.0]], [1.5]),
}


class TestOneStreamKappa:
    """kappa from the unconstrained stream and the constraint equals the
    paper's two-stream definition: the constrained average's ``(I - P)``
    part is ``(I - P) c``."""

    @pytest.mark.parametrize("T", [600, 5000])
    @pytest.mark.parametrize(
        "preset, system",
        [("linear", None), ("logistic", None), ("logistic_shift", None),
         *(("linear", name) for name in LINEAR_SYSTEMS)],
        ids=["linear", "logistic", "logistic_shift", *LINEAR_SYSTEMS],
    )
    def test_matches_the_two_stream_definition(self, preset, system, T):
        dgp = PRESETS[preset].spec(0.05)
        if system is None:
            constraint = PRESETS[preset].constraint()
        else:
            constraint = Constraint.from_equalities(*LINEAR_SYSTEMS[system])
        blocks = [draw_block(dgp, replication_rng(31, 0, 0), T)]
        result = specification_test(blocks, dgp.model(), constraint)
        reference = two_stream_kappa(blocks, dgp.model(), constraint)
        assert result.df == 4 - constraint.d
        assert result.kappa == pytest.approx(reference, rel=1e-10, abs=0.0)
        assert result.reject == (reference > chi2_quantile(0.05, result.df))


class TestBatchedStates:
    """An ``(R, p)`` Monte Carlo cell gives each replication's results bit for bit."""

    @pytest.mark.parametrize("preset", ["linear", "logistic"])
    def test_covariance_and_report_equal_each_replication(self, preset):
        state = cell(preset, PRESETS[preset].constraint())
        cov = asymptotic_covariance(state)
        report = coordinate_report(state, alpha=0.1)
        assert cov.shape == (5, 4, 4) and report.p_value.shape == (5, 4)
        for k in range(5):
            single = coordinate_report(state[k], alpha=0.1)
            np.testing.assert_array_equal(cov[k], asymptotic_covariance(state[k]))
            for name in ("theta_bar", "std_error", "ci_lower", "ci_upper", "p_value", "covariance"):
                np.testing.assert_array_equal(getattr(report, name)[k], getattr(single, name))

    def test_spec_test_equals_each_replication(self):
        con = PRESETS["linear"].constraint()
        free = cell("linear", Constraint.unconstrained(4))
        result = spec_test_from_state(free, con)
        assert result.kappa.shape == result.reject.shape == (5,)
        for k in range(5):
            single = spec_test_from_state(free[k], con)
            for name in ("kappa", "p_value", "reject"):
                np.testing.assert_array_equal(getattr(result, name)[k], getattr(single, name))

    def test_failure_names_the_first_bad_replication(self):
        constraint = PRESETS["linear"].constraint()
        con = cell("linear", constraint)
        uncon = cell("linear", Constraint.unconstrained(4))
        con.g_hat[[2, 4]] = 0.0
        singular = "curvature average on the kernel of B is numerically singular"
        with pytest.raises(IdentificationError, match=rf"^matrix \(2,\): {singular}"):
            asymptotic_covariance(con)
        with pytest.raises(IdentificationError, match=rf"^{singular} \(smallest"):
            asymptotic_covariance(con[2])
        uncon.g_hat[3] = np.diag([1.0, 1.0, 1.0, 0.0])
        with pytest.raises(IdentificationError, match=r"^matrix \(3,\): unconstrained curvature"):
            spec_test_from_state(uncon, constraint)


class TestEfficiencyGap:
    def test_zero_when_unconstrained(self):
        rng = np.random.default_rng(31)
        G = random_pd(rng, 3)
        np.testing.assert_allclose(
            efficiency_gap(G, G, Constraint.unconstrained(3)), np.zeros((3, 3)), atol=1e-10
        )

    def test_indefinite_example(self):
        """Location model with unequal variances: the gap is not PSD."""
        sigma2 = 1.69
        S = np.diag([sigma2, 3.0 * sigma2])
        gap = efficiency_gap(np.eye(2), S, Constraint.from_equalities([[1.0, -1.0]], [0.0]))
        expected = np.array([[0.0, -sigma2], [-sigma2, 2.0 * sigma2]])
        np.testing.assert_allclose(gap, expected, atol=1e-10)
        eigenvalues = np.linalg.eigvalsh(gap)
        assert eigenvalues[0] < -1e-6 and eigenvalues[-1] > 1e-6

    def test_identity_case_by_hand(self):
        gap = efficiency_gap(np.eye(2), np.eye(2), Constraint.from_equalities([[1.0, -1.0]], [0.0]))
        np.testing.assert_allclose(gap, np.eye(2) - np.full((2, 2), 0.5), atol=1e-12)
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
            con = Constraint.from_equalities(rng.standard_normal((p - d, p)), np.zeros(p - d))
            assert con.d == d
            gap = efficiency_gap(G, c * G, con)
            v_i_norm = np.linalg.norm(c * np.linalg.inv(G), 2)
            vals = np.linalg.eigvalsh(gap)
            assert vals[0] >= -1e-8 * v_i_norm
            assert int(np.sum(vals > 1e-6 * v_i_norm)) == p - d

    def test_non_pd_rejected(self):
        with pytest.raises(IdentificationError):
            efficiency_gap(np.diag([1.0, 0.0]), np.eye(2), Constraint.unconstrained(2))


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


class TestDimensionErrors:
    """An argument on another R^p is a ``DimensionError`` naming both sizes."""

    def test_spec_test_from_state(self):
        free = moment_state(Constraint.unconstrained(2), [0.5, 0.5], np.eye(2))
        con = Constraint.from_equalities([[1.0, -1.0, 0.0]], [0.0])
        message = r"^constraint is on R\^3 but the unconstrained stream is on R\^2$"
        with pytest.raises(DimensionError, match=message):
            spec_test_from_state(free, con)

    def test_efficiency_gap(self):
        message = r"^constraint is on R\^4 but G has shape \(3, 3\) and S \(3, 3\)$"
        with pytest.raises(DimensionError, match=message):
            efficiency_gap(np.eye(3), np.eye(3), Constraint.unconstrained(4))

    def test_local_power(self):
        with pytest.raises(DimensionError, match=r"^mu has shape \(3,\) but W is 2 x 2$"):
            local_power(np.zeros(3), np.diag([0.0, 1.0]), 1)


class TestNullCalibration:
    def test_ks_against_chi_square(self, null_cell):
        """Statistics under the true constraint look chi-square(1), 500 reps."""
        kappas = null_cell.kappa_samples[(50_000, 0.0)]
        assert kappas.shape[0] >= 500
        result = stats.kstest(kappas, stats.chi2(1).cdf)
        assert result.pvalue >= 0.01
