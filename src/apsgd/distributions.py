"""Scalar distribution functions for intervals and test calibration.

Quantiles are upper-tail throughout: ``normal_quantile(0.025)`` is about
1.96, and ``chi2_quantile(alpha, df)`` satisfies ``Pr(X > q) = alpha``.
"""

from __future__ import annotations

import math

from scipy import special

from .exceptions import DomainError


def _check_prob(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"probability must lie strictly in (0, 1), got {alpha}")
    return alpha


def _check_df(df: int) -> int:
    if int(df) != df or df < 1:
        raise DomainError(f"degrees of freedom must be a positive integer, got {df}")
    return int(df)


def normal_quantile(alpha: float) -> float:
    """Upper-tail standard normal quantile: ``Pr(Z > result) = alpha``."""
    alpha = _check_prob(alpha)
    return float(-special.ndtri(alpha))


def chi2_quantile(alpha: float, df: int) -> float:
    """Upper-tail chi-square quantile: ``Pr(X > result) = alpha``."""
    alpha = _check_prob(alpha)
    df = _check_df(df)
    return float(special.chdtri(df, alpha))


def noncentral_chi2_cdf(x: float, df: int, noncentrality: float) -> float:
    """Noncentral chi-square CDF (``scipy.special.chndtr``)."""
    df = _check_df(df)
    x = float(x)
    nc = float(noncentrality)
    if x < 0.0:
        raise DomainError(f"x must be nonnegative, got {x}")
    if nc < 0.0 or not math.isfinite(nc):
        raise DomainError(f"noncentrality must be finite and nonnegative, got {nc}")
    if x == 0.0:
        return 0.0
    return float(special.chndtr(x, df, nc))
