"""Distribution functions against independent oracles.

Chi-square quantiles are checked against direct quadrature of the density,
the normal quantile against bisection of erf, and the noncentral CDF against
both a Monte Carlo oracle and frozen values.
"""

import math

import numpy as np
import pytest
from scipy import integrate, special

from apsgd import (
    DomainError,
    chi2_quantile,
    noncentral_chi2_cdf,
    normal_quantile,
)


def chi2_upper_tail_by_quadrature(x, df):
    """Oracle: integrate the chi-square density on [x, inf)."""
    def density(t):
        return t ** (df / 2.0 - 1.0) * math.exp(-t / 2.0) / (
            2.0 ** (df / 2.0) * math.gamma(df / 2.0)
        )
    tail, _ = integrate.quad(density, x, np.inf)
    return tail


def normal_upper_quantile_by_erf(alpha):
    """Oracle: bisection of the erf-based CDF."""
    def cdf(z):
        return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
    lo, hi = -10.0, 10.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < 1.0 - alpha:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestChi2Quantile:
    # frozen from the quadrature oracle above
    CASES = [
        (0.05, 1, 3.8415),
        (0.5, 2, 1.3863),  # exponential median, exactly 2 ln 2
        (0.05, 3, 7.8147),
    ]

    @pytest.mark.parametrize("alpha,df,expected", CASES)
    def test_frozen_values(self, alpha, df, expected):
        assert chi2_quantile(alpha, df) == pytest.approx(expected, abs=1e-3)

    @pytest.mark.parametrize("alpha,df,_", CASES)
    def test_against_quadrature(self, alpha, df, _):
        q = chi2_quantile(alpha, df)
        assert chi2_upper_tail_by_quadrature(q, df) == pytest.approx(alpha, abs=1e-8)

    def test_median_closed_form(self):
        assert chi2_quantile(0.5, 2) == pytest.approx(2.0 * math.log(2.0), abs=1e-10)

    def test_domain(self):
        with pytest.raises(DomainError):
            chi2_quantile(0.0, 1)
        with pytest.raises(DomainError):
            chi2_quantile(1.0, 1)
        with pytest.raises(DomainError):
            chi2_quantile(0.05, 0)


class TestNormalQuantile:
    def test_symmetry_point(self):
        assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-14)

    def test_two_sided_value(self):
        # oracle: erf bisection gives 1.959964...
        assert normal_quantile(0.025) == pytest.approx(1.95996, abs=1e-4)
        assert normal_quantile(0.025) == pytest.approx(
            normal_upper_quantile_by_erf(0.025), abs=1e-9
        )

    def test_antisymmetry(self):
        assert normal_quantile(0.975) == pytest.approx(-1.95996, abs=1e-4)
        assert normal_quantile(0.975) == pytest.approx(-normal_quantile(0.025), abs=1e-12)

    def test_roundtrip_accuracy(self):
        for alpha in (0.2, 0.05, 0.01, 1e-6, 0.9, 0.999):
            z = normal_quantile(alpha)
            assert abs(special.ndtr(z) - (1.0 - alpha)) <= 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            normal_quantile(0.0)
        with pytest.raises(DomainError):
            normal_quantile(1.5)


class TestNoncentralChi2:
    def test_zero_noncentrality_reduces_to_central(self):
        for x in (0.5, 2.0, 7.3):
            for df in (1, 2, 5):
                assert noncentral_chi2_cdf(x, df, 0.0) == pytest.approx(
                    special.chdtr(df, x), abs=1e-12
                )

    def test_zero_point(self):
        for df in (1, 3, 10):
            assert noncentral_chi2_cdf(0.0, df, 2.0) == 0.0

    def test_monte_carlo_oracle(self):
        """CDF at (5, df=2, nc=1) vs 1e6 draws of ||N(mu0, I_2)||^2, ||mu0||^2 = 1."""
        rng = np.random.default_rng(2024)
        mu0 = np.array([1.0, 0.0])
        draws = rng.standard_normal((1_000_000, 2)) + mu0
        stat = np.sum(draws * draws, axis=1)
        estimate = np.mean(stat <= 5.0)
        se = math.sqrt(estimate * (1.0 - estimate) / stat.shape[0])
        assert abs(noncentral_chi2_cdf(5.0, 2, 1.0) - estimate) <= 3.0 * se

    def test_against_scipy(self):
        from scipy.stats import ncx2

        for x, df, nc in [(5.0, 2, 1.0), (1.0, 1, 4.0), (20.0, 3, 10.0), (3.0, 6, 0.5)]:
            assert noncentral_chi2_cdf(x, df, nc) == pytest.approx(
                ncx2.cdf(x, df, nc), abs=1e-10
            )

    def test_quantile_consistency(self):
        """noncentral cdf at the central quantile recovers 1 - alpha."""
        for alpha in (0.01, 0.05, 0.5, 0.9):
            for df in (1, 2, 7):
                value = noncentral_chi2_cdf(chi2_quantile(alpha, df), df, 0.0)
                assert value == pytest.approx(1.0 - alpha, abs=1e-8)

    def test_domain(self):
        with pytest.raises(DomainError):
            noncentral_chi2_cdf(-1.0, 2, 1.0)
        with pytest.raises(DomainError):
            noncentral_chi2_cdf(1.0, 2, -0.5)
