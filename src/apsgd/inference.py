"""Covariance assembly, confidence intervals, and the constraint test.

The estimate's limiting covariance is the sandwich
``pinv(P G P) S pinv(P G P)`` with the pseudoinverse truncated at the
structural rank ``d`` of the projection; the plug-in version substitutes the
streaming averages accumulated by the estimator.  The specification test
compares the constrained and unconstrained averages computed from one shared
pass over the data.
``asymptotic_covariance``, ``coordinate_report`` and ``test_from_states``
take a CSV fit's ``(p,)`` state or a Monte Carlo cell's ``(R, p)`` state,
whose results equal each ``state[k]``'s bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .distributions import chi2_quantile, noncentral_chi2_cdf, normal_quantile
from .estimator import EstimatorState, LearningRate
from .exceptions import (
    DegenerateTestError,
    DimensionError,
    IdentificationError,
    NumericalError,
    RankDeficiencyError,
)
from .linalg import (
    EIGEN_FLOOR,
    RANK_THRESHOLD,
    Constraint,
    _raise_first,
    pinv_truncated,
    symmetric_eigen,
)

#: Relative eigenvalue guard under which the unconstrained stream's curvature
#: average is declared numerically singular (it is inverted as a full-rank
#: matrix, not pseudo-inverted).
_PD_GUARD = 1e-8

#: Quadratic forms in [-1e-12, 0] are clamped to zero; anything more negative
#: is treated as a genuine numerical failure.
_VARIANCE_CLAMP = 1e-12


@dataclass(frozen=True)
class InferenceReport:
    """Per-coordinate summaries plus the plug-in covariance they came from.

    ``names`` has one entry per coordinate; the other arrays have the state's
    shape ``(..., p)``, and ``covariance`` has shape ``(..., p, p)``.
    """

    names: tuple[str, ...]
    theta_bar: np.ndarray
    std_error: np.ndarray
    ci_lower: np.ndarray
    ci_upper: np.ndarray
    p_value: np.ndarray
    covariance: np.ndarray
    sample_size: int
    alpha: float


@dataclass(frozen=True)
class TestResult:
    """Outcome of the constraint specification test.

    ``kappa``, ``p_value`` and ``reject`` have the states' batch shape
    ``(...)``, the averages ``(..., p)`` and ``weight_matrix`` ``(..., p, p)``.
    ``reject`` is exactly ``kappa > chi2_quantile(alpha, df)`` and ``p_value``
    is the upper chi-square tail at ``kappa``.  ``weight_matrix`` is the
    estimated weight matrix the statistic was normalised by, kept for
    diagnostics.
    """

    kappa: np.ndarray
    df: int
    p_value: np.ndarray
    alpha: float
    reject: np.ndarray
    theta_bar_constrained: np.ndarray
    theta_bar_unconstrained: np.ndarray
    weight_matrix: np.ndarray


def _invert_pd(a: np.ndarray, what: str) -> np.ndarray:
    """Full-rank inverse via eigendecomposition, guarded against singularity."""
    eig = symmetric_eigen(a)
    lam = eig.eigenvalues
    _raise_first(
        (lam[..., 0] <= 0.0) | (lam[..., -1] <= _PD_GUARD * lam[..., 0]), IdentificationError,
        lambda k: f"{what} is numerically singular "
        f"(smallest eigenvalue {lam[k][-1]:.6e}, largest {lam[k][0]:.6e})",
    )
    vecs = eig.eigenvectors
    out = (vecs / lam[..., None, :]) @ vecs.mT
    return 0.5 * (out + out.mT)


def asymptotic_covariance(state: EstimatorState) -> np.ndarray:
    """Plug-in covariance of the averaged estimate.

    Computes ``pinv(P Ghat P) Shat pinv(P Ghat P)`` with the pseudoinverse
    truncated at the constraint's structural rank ``d``.  Requires at least
    ``p`` observations; raises ``IdentificationError`` when the projected
    curvature is rank-deficient beyond that.
    """
    p = state.model.param_dim
    if state.t < p:
        raise IdentificationError(
            f"need at least {p} observations to identify the covariance, "
            f"got {state.t}"
        )
    P = state.constraint.P
    mid = P @ state.g_hat @ P
    try:
        inv = pinv_truncated(mid, state.constraint.d)
    except RankDeficiencyError as exc:
        raise IdentificationError(
            f"projected curvature average is rank-deficient: {exc}"
        ) from exc
    cov = inv @ state.s_hat @ inv
    return 0.5 * (cov + cov.mT)


def _quadratic_variance(grad: np.ndarray, cov: np.ndarray, t: int) -> float:
    var = float(grad @ cov @ grad) / t
    if var < -_VARIANCE_CLAMP:
        raise NumericalError(f"negative variance {var:.6e} from plug-in covariance")
    return max(var, 0.0)


def confidence_interval(state, g, grad_g, alpha: float = 0.05) -> tuple[float, float]:
    """Normal-theory interval for a smooth scalar functional ``g``.

    ``g`` and ``grad_g`` are callables evaluated at the running average; the
    half-width is ``z_{alpha/2} * sqrt(grad' V grad / T)`` with ``V`` the
    plug-in covariance.  Since ``V = P V P``, only ``P grad`` enters the
    quadratic form, so a functional along a constraint row gets a zero
    width rather than the rounding residual of ``B V B'``.
    """
    center = float(g(state.theta_bar))
    grad = np.asarray(grad_g(state.theta_bar), dtype=float)
    if grad.shape != (state.model.param_dim,):
        raise DimensionError(
            f"functional gradient has shape {grad.shape}, "
            f"expected ({state.model.param_dim},)"
        )
    grad = state.constraint.P @ grad
    cov = asymptotic_covariance(state)
    half = normal_quantile(alpha / 2.0) * np.sqrt(
        _quadratic_variance(grad, cov, state.t)
    )
    return center - half, center + half


def coordinate_report(
    state: EstimatorState, alpha: float = 0.05, names: list[str] | None = None
) -> InferenceReport:
    """Estimates, standard errors, intervals and p-values per coordinate.

    Standard errors are ``sqrt(V_jj / T)``; p-values are two-sided normal.
    Coordinates pinned by the constraint have zero variance in every feasible
    direction, so their standard error is 0 and the p-value is reported as
    NaN rather than a 0/0 artifact.  A coordinate is pinned when its column
    of ``P`` has norm at most ``RANK_THRESHOLD``: a combination of rows can
    pin it while leaving rounding entries of about 1e-17 in ``P``, whose
    variance is zeroed rather than reported as a standard error of 1e-19.
    """
    p = state.model.param_dim
    if names is None:
        names = [f"theta{j + 1}" for j in range(p)]
    if len(names) != p:
        raise DimensionError(f"got {len(names)} names for {p} coordinates")
    cov = asymptotic_covariance(state)
    var = np.diagonal(cov, axis1=-2, axis2=-1) / state.t
    pinned = np.linalg.norm(state.constraint.P, axis=0) <= RANK_THRESHOLD
    var = np.where(pinned, 0.0, var)
    negative = var < -_VARIANCE_CLAMP
    _raise_first(
        negative.any(axis=-1), NumericalError,
        lambda k: f"negative variance for coordinate {np.argmax(negative[k])}",
    )
    se = np.sqrt(np.maximum(var, 0.0))
    theta_bar = state.theta_bar.copy()
    with np.errstate(divide="ignore", invalid="ignore"):
        p_value = np.where(se > 0.0, 2.0 * special.ndtr(-np.abs(theta_bar) / se), np.nan)
    z = normal_quantile(alpha / 2.0)
    return InferenceReport(
        names=tuple(names),
        theta_bar=theta_bar,
        std_error=se,
        ci_lower=theta_bar - z * se,
        ci_upper=theta_bar + z * se,
        p_value=p_value,
        covariance=cov,
        sample_size=state.t,
        alpha=alpha,
    )


def test_from_states(
    constrained: EstimatorState, unconstrained: EstimatorState, alpha: float = 0.05
) -> TestResult:
    """Specification test from two already-advanced paired streams.

    Both states must have consumed the same observations in the same order.
    The weight matrix is built from the unconstrained stream's moment
    averages, its curvature inverted as a full-rank matrix, and the outer
    pseudoinverse truncated at the structural rank ``p - d``.
    """
    con = constrained.constraint
    p = con.p
    df = p - con.d
    if df == 0:
        raise DegenerateTestError(
            "constraint has no effective rows (d = p), the test has 0 degrees "
            "of freedom"
        )
    if constrained.t != unconstrained.t or constrained.t == 0:
        raise IdentificationError(
            f"paired streams must be advanced together on a nonempty stream "
            f"(t = {constrained.t} vs {unconstrained.t})"
        )
    T = constrained.t
    g_inv = _invert_pd(unconstrained.g_hat, "unconstrained curvature average")
    mid = g_inv @ unconstrained.s_hat @ g_inv
    anti = np.eye(p) - con.P
    weight = anti @ mid @ anti
    weight = 0.5 * (weight + weight.mT)
    try:
        w_inv = pinv_truncated(weight, df)
    except RankDeficiencyError as exc:
        raise IdentificationError(
            f"weight matrix is rank-deficient below the test's degrees of "
            f"freedom: {exc}"
        ) from exc
    diff = constrained.theta_bar - unconstrained.theta_bar
    # associated as ((T diff) W^-1) diff: the seeded kappa values depend on the order
    kappa = np.maximum(((T * diff)[..., None, :] @ w_inv @ diff[..., None])[..., 0, 0], 0.0)
    return TestResult(
        kappa=kappa,
        df=df,
        p_value=special.chdtrc(df, kappa),
        alpha=alpha,
        reject=kappa > chi2_quantile(alpha, df),
        theta_bar_constrained=constrained.theta_bar.copy(),
        theta_bar_unconstrained=unconstrained.theta_bar.copy(),
        weight_matrix=weight,
    )


test_from_states.__test__ = False  # a library function, not a pytest test


def specification_test(
    blocks,
    model,
    constraint: Constraint,
    schedule: LearningRate | None = None,
    alpha: float = 0.05,
) -> TestResult:
    """Run the constraint test on a single pass over one stream of
    ``(n, obs_dim)`` observation blocks.

    One paired state (``EstimatorState.paired``) advances the constrained
    side and the unconstrained side on the same blocks, with one walk and one
    fold per block, both from the constraint's feasible point
    ``constraint.c``, and the test reads its sides back as ``pair[0]`` and
    ``pair[1]``.  An error names the observation at which it arose.
    """
    if constraint.d == constraint.p:
        raise DegenerateTestError(
            "constraint has no effective rows (d = p), the test has 0 degrees "
            "of freedom"
        )
    pair = EstimatorState.paired(model, constraint, schedule).run_stream(blocks)
    return test_from_states(pair[0], pair[1], alpha=alpha)


def efficiency_gap(G, S, P, d: int) -> np.ndarray:
    """Difference between unconstrained and constrained limiting covariances.

    Returns ``G^{-1} S G^{-1} - pinv(P G P) S pinv(P G P)``.  When ``S`` is a
    positive multiple of ``G`` the result is positive semidefinite with rank
    ``p - d``; in general neither ordering need hold.
    """
    G = np.asarray(G, dtype=float)
    S = np.asarray(S, dtype=float)
    P = np.asarray(P, dtype=float)
    g_inv = _invert_pd(G, "G")
    v_i = g_inv @ S @ g_inv
    mid = pinv_truncated(P @ G @ P, d)
    v_p = mid @ S @ mid
    gap = v_i - v_p
    return 0.5 * (gap + gap.T)


def local_power(mu, W, df: int, alpha: float = 0.05) -> float:
    """Asymptotic power of the test under a root-T-local constraint violation.

    ``mu`` is any vector mapping to the violation (the noncentrality
    ``mu' pinv(W) mu`` does not depend on the choice); ``W`` must be
    symmetric positive semidefinite with numerical rank exactly ``df``.
    """
    mu = np.asarray(mu, dtype=float)
    eig = symmetric_eigen(W)
    lam_max = max(eig.eigenvalues[0], 0.0)
    num_rank = int(np.sum(eig.eigenvalues > EIGEN_FLOOR * lam_max)) if lam_max else 0
    if num_rank != df:
        raise RankDeficiencyError(
            f"weight matrix has numerical rank {num_rank}, expected {df}"
        )
    w_inv = pinv_truncated(np.asarray(W, dtype=float), df)
    delta = float(mu @ w_inv @ mu)
    quantile = chi2_quantile(alpha, df)
    return 1.0 - noncentral_chi2_cdf(quantile, df, delta)
