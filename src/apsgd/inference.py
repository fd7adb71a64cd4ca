"""Covariance assembly, confidence intervals, and the constraint test.

The estimate's limiting covariance lives on the kernel of ``B`` and the
specification test on its row space, so each is computed in the constraint's
orthonormal basis of its subspace (``Constraint.U``, ``V``), where every
inverse is of a full-rank matrix (``_invert_pd``).  The plug-in versions
substitute the streaming averages accumulated by the estimator.  Every
constrained iterate is feasible, so the test reads the constrained side only
through the constraint and needs one pass of the unconstrained stream.
``asymptotic_covariance``, ``coordinate_report`` and ``spec_test_from_state``
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
    DomainError,
    IdentificationError,
    NumericalError,
    RankDeficiencyError,
)
from .linalg import RANK_THRESHOLD, Constraint, _raise_first, symmetric_eigen

#: Relative eigenvalue guard under which a matrix that inference inverts is
#: declared numerically singular.
_PD_GUARD = 1e-8

#: Quadratic forms in [-1e-12, 0] are clamped to zero; anything more negative
#: is treated as a genuine numerical failure.
_VARIANCE_CLAMP = 1e-12


@dataclass(frozen=True)
class InferenceReport:
    """Per-coordinate summaries of the plug-in covariance's diagonal.

    ``names`` has one entry per coordinate; the arrays have the state's shape
    ``(..., p)``.
    """

    names: tuple[str, ...]
    theta_bar: np.ndarray
    std_error: np.ndarray
    ci_lower: np.ndarray
    ci_upper: np.ndarray
    p_value: np.ndarray
    sample_size: int
    alpha: float


@dataclass(frozen=True)
class TestResult:
    """Outcome of the constraint specification test.

    ``kappa``, ``p_value`` and ``reject`` have the state's batch shape
    ``(...)``.  ``reject`` is exactly ``kappa > chi2_quantile(alpha, df)``
    and ``p_value`` is the upper chi-square tail at ``kappa``.
    """

    kappa: np.ndarray
    df: int
    p_value: np.ndarray
    alpha: float
    reject: np.ndarray


def _invert_pd(a: np.ndarray, what: str) -> np.ndarray:
    """Full-rank inverse via eigendecomposition, guarded against singularity.
    A ``0 x 0`` matrix (the kernel of a fully pinned constraint) is its own
    inverse."""
    eig = symmetric_eigen(a)
    lam = eig.eigenvalues
    if lam.shape[-1]:
        _raise_first(
            (lam[..., 0] <= 0.0) | (lam[..., -1] <= _PD_GUARD * lam[..., 0]), IdentificationError,
            lambda k: f"{what} is numerically singular "
            f"(smallest eigenvalue {lam[k][-1]:.6e}, largest {lam[k][0]:.6e})",
        )
    vecs = eig.eigenvectors
    out = (vecs / lam[..., None, :]) @ vecs.mT
    return 0.5 * (out + out.mT)


def _kernel_sandwich(U, G, S, what: str) -> np.ndarray:
    """``U (U'GU)^-1 U'SU (U'GU)^-1 U'``, the limiting covariance of an
    average that moves in the span of the orthonormal columns ``U``; ``G``
    and ``S`` may be ``(..., p, p)`` stacks."""
    inv = _invert_pd(U.T @ G @ U, what)
    cov = U @ (inv @ (U.T @ S @ U) @ inv) @ U.T
    return 0.5 * (cov + cov.mT)


def asymptotic_covariance(state: EstimatorState) -> np.ndarray:
    """Plug-in covariance of the averaged estimate.

    Computes ``U (U'Ghat U)^-1 U'Shat U (U'Ghat U)^-1 U'`` with ``U`` the
    constraint's orthonormal basis of the kernel of ``B``; a fully pinned
    constraint (``d = 0``) gives a zero covariance.  Requires at least ``p``
    observations; raises ``IdentificationError`` when the curvature average
    on the kernel is numerically singular beyond that.
    """
    p = state.model.param_dim
    if state.t < p:
        raise IdentificationError(
            f"need at least {p} observations to identify the covariance, "
            f"got {state.t}"
        )
    return _kernel_sandwich(
        state.constraint.U, state.g_hat, state.s_hat, "curvature average on the kernel of B"
    )


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha must lie strictly in (0, 1), got {alpha}")


def _test_df(constraint: Constraint) -> int:
    """The test's degrees of freedom ``p - d``, which must be positive."""
    df = constraint.p - constraint.d
    if df == 0:
        raise DegenerateTestError(
            "constraint has no effective rows (d = p), the test has 0 degrees "
            "of freedom"
        )
    return df


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
    _check_alpha(alpha)
    p = state.model.param_dim
    if names is None:
        names = [f"theta{j + 1}" for j in range(p)]
    if len(names) != p:
        raise DimensionError(f"got {len(names)} names for {p} coordinates")
    var = np.diagonal(asymptotic_covariance(state), axis1=-2, axis2=-1) / state.t
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
        sample_size=state.t,
        alpha=alpha,
    )


def spec_test_from_state(
    unconstrained: EstimatorState, constraint: Constraint, alpha: float = 0.05
) -> TestResult:
    """Specification test of ``constraint`` from an advanced unconstrained stream.

    The paper's statistic is ``kappa = T (theta_c - theta_u)'
    pinv((I - P) W (I - P)) (theta_c - theta_u)``, on the difference of the
    constrained (projected SGD) and unconstrained (SGD) averages over the
    same observations, with ``W = G^-1 S G^-1`` built from the unconstrained
    stream's moment averages.  The difference lies in the row space of
    ``B``, and ``(I - P) W (I - P) = V (V'WV) V'`` with ``V`` the
    constraint's basis of it, so ``kappa = T a' (V'WV)^-1 a`` with
    ``a = V'(theta_c - theta_u)``.  Every projected iterate is feasible, so
    ``V' theta_c = V' c`` with ``c`` the constraint's feasible point, and
    ``a`` is taken as ``V'(c - theta_u)``: the constrained stream need not
    be run.
    """
    _check_alpha(alpha)
    p = constraint.p
    if unconstrained.constraint.p != p:
        raise DimensionError(
            f"constraint is on R^{p} but the unconstrained stream is on "
            f"R^{unconstrained.constraint.p}"
        )
    df = _test_df(constraint)
    if unconstrained.constraint.d != p:
        raise DomainError(
            f"the test reads an unconstrained stream on R^{p}, got one with "
            f"{unconstrained.constraint.d} free directions"
        )
    T = unconstrained.t
    if T == 0:
        raise IdentificationError("the unconstrained stream has consumed no observations")
    g_inv = _invert_pd(unconstrained.g_hat, "unconstrained curvature average")
    V = constraint.V
    row_weight = V.T @ (g_inv @ unconstrained.s_hat @ g_inv) @ V
    w_inv = _invert_pd(row_weight, "weight matrix on the row space of B")
    # a = V'(c - theta_u) taken through I - P: near kappa = 0 both orders round
    # equally far from the exact a, and this one keeps the seeded kappa values.
    # As a (..., 1, p - d) stack, a batch gives each stream's bits.
    diff = (constraint.c - unconstrained.theta_bar) @ (np.eye(p) - constraint.P)
    a = diff[..., None, :] @ V
    # associated as ((T a) W^-1) a: the seeded kappa values depend on the order
    kappa = np.maximum(((T * a) @ w_inv @ a.mT)[..., 0, 0], 0.0)
    return TestResult(
        kappa=kappa,
        df=df,
        p_value=special.chdtrc(df, kappa),
        alpha=alpha,
        reject=kappa > chi2_quantile(alpha, df),
    )


def specification_test(
    blocks,
    model,
    constraint: Constraint,
    schedule: LearningRate | None = None,
    alpha: float = 0.05,
) -> TestResult:
    """Run the constraint test on a single pass over one stream of
    ``(n, obs_dim)`` observation blocks.

    One unconstrained state, started at the constraint's feasible point
    ``constraint.c``, advances over the blocks, and ``spec_test_from_state``
    compares its average with the constraint.  An error names the
    observation at which it arose.
    """
    _check_alpha(alpha)
    _test_df(constraint)
    free = Constraint.unconstrained(constraint.p)
    state = EstimatorState(model, free, schedule, theta0=constraint.c).run_stream(blocks)
    return spec_test_from_state(state, constraint, alpha=alpha)


def efficiency_gap(G, S, constraint: Constraint) -> np.ndarray:
    """Difference between unconstrained and constrained limiting covariances.

    Returns ``G^-1 S G^-1 - U (U'GU)^-1 U'SU (U'GU)^-1 U'`` with ``U`` the
    constraint's basis of the kernel of ``B``.  When ``S`` is a positive
    multiple of ``G`` the result is positive semidefinite with rank
    ``p - d``; in general neither ordering need hold.
    """
    G = np.asarray(G, dtype=float)
    S = np.asarray(S, dtype=float)
    p = constraint.p
    if G.shape != (p, p) or S.shape != (p, p):
        raise DimensionError(
            f"constraint is on R^{p} but G has shape {G.shape} and S {S.shape}"
        )
    g_inv = _invert_pd(G, "G")
    gap = g_inv @ S @ g_inv - _kernel_sandwich(constraint.U, G, S, "G on the kernel of B")
    return 0.5 * (gap + gap.T)


def local_power(mu, W, df: int, alpha: float = 0.05) -> float:
    """Asymptotic power of the test under a root-T-local constraint violation.

    ``mu`` is any vector mapping to the violation (the noncentrality
    ``mu' pinv(W) mu`` does not depend on the choice); ``W`` must be
    symmetric positive semidefinite with numerical rank exactly ``df``.
    The noncentrality is summed over ``W``'s ``df`` leading eigenpairs.
    """
    mu = np.asarray(mu, dtype=float)
    eig = symmetric_eigen(W)
    lam, vecs = eig.eigenvalues, eig.eigenvectors
    if mu.shape != lam.shape:
        raise DimensionError(f"mu has shape {mu.shape} but W is {len(lam)} x {len(lam)}")
    num_rank = int(np.sum(lam > RANK_THRESHOLD * lam.max(initial=0.0)))
    if num_rank != df:
        raise RankDeficiencyError(
            f"weight matrix has numerical rank {num_rank}, expected {df}"
        )
    z = mu @ vecs[:, :df]
    delta = float(z @ (z / lam[:df]))
    quantile = chi2_quantile(alpha, df)
    return 1.0 - noncentral_chi2_cdf(quantile, df, delta)
