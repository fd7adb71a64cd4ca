"""Dense small-matrix helpers: projections, eigendecompositions, pseudoinverses.

Everything here operates on plain numpy arrays of modest dimension (parameter
spaces in the single digits) and is a pure function of its inputs.  Matrix
norms in tolerance checks are spectral norms.  ``symmetric_eigen`` and
``pinv_truncated`` also take ``(..., n, n)`` stacks, matrix by matrix; a
failure names the first bad matrix (``matrix (k,): ...``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DimensionError,
    DomainError,
    InfeasibleConstraintError,
    NumericalError,
    RankDeficiencyError,
)

#: Relative eigenvalue floor below which a truncated pseudoinverse refuses to invert.
EIGEN_FLOOR = 1e-10

#: Relative singular-value threshold defining the numerical rank of a constraint matrix.
RANK_THRESHOLD = 1e-10

#: Relative tolerance on the symmetry defect accepted by ``symmetric_eigen``.
SYMMETRY_TOL = 1e-8


def _as_matrix(a, name: str = "matrix", stack: bool = False) -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2 and not (stack and arr.ndim > 2):
        raise DimensionError(f"{name} must be two-dimensional, got shape {arr.shape}")
    bad = ~np.isfinite(arr).all(axis=(-2, -1))
    _raise_first(bad, DomainError, lambda k: f"{name} contains non-finite entries")
    return arr


def _raise_first(bad: np.ndarray, error: type, message) -> None:
    """Raise ``error(message(k))`` at the first true index ``k`` of ``bad``, one
    flag per matrix of a stack; a stacked failure is prefixed ``matrix k:``."""
    if bad.any():
        k = tuple(int(i) for i in np.unravel_index(np.argmax(bad), bad.shape))
        raise error(f"matrix {k}: {message(k)}" if k else message(k))


def _as_vector(v, name: str = "vector") -> np.ndarray:
    arr = np.asarray(v, dtype=float).reshape(-1)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectral factorisation of a symmetric matrix.

    Attributes
    ----------
    eigenvalues : ndarray, shape (..., p)
        Sorted in descending order.
    eigenvectors : ndarray, shape (..., p, p)
        Orthonormal columns; column ``i`` pairs with ``eigenvalues[..., i]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def symmetric_eigen(a) -> EigenDecomposition:
    """Eigendecomposition of a (numerically) symmetric matrix, or of each
    matrix in a ``(..., n, n)`` stack.

    The input is symmetrised as ``(a + a.T) / 2`` before factorisation, but a
    symmetry defect larger than ``SYMMETRY_TOL`` relative to the matrix norm
    is rejected rather than silently averaged away.
    """
    a = _as_matrix(a, stack=True)
    n, m = a.shape[-2:]
    if n != m:
        raise DimensionError(f"matrix must be square, got {n}x{m}")
    if n:
        scale = np.maximum(1.0, np.linalg.matrix_norm(a, ord=2))
        _raise_first(
            np.linalg.matrix_norm(a - a.mT, ord=2) > SYMMETRY_TOL * scale, DomainError,
            lambda k: "matrix is not symmetric within tolerance",
        )
    sym = 0.5 * (a + a.mT)
    try:
        vals, vecs = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:  # LAPACK non-convergence
        raise NumericalError(f"eigendecomposition failed to converge: {exc}") from exc
    return EigenDecomposition(vals[..., ::-1].copy(), vecs[..., ::-1].copy())


def pinv_truncated(a, rank: int) -> np.ndarray:
    """Moore-Penrose pseudoinverse truncated at a caller-supplied rank.

    Returns ``sum_{i<rank} eigenvalue_i^{-1} u_i u_i^T`` from the descending
    eigendecomposition of ``a``.  The ``rank`` largest eigenvalues must be
    strictly positive, checked against the floor ``EIGEN_FLOOR * lambda_max``.

    Raises
    ------
    RankDeficiencyError
        If the requested rank exceeds the numerical rank of ``a``.
    """
    eig = symmetric_eigen(a)
    lam, vecs = eig.eigenvalues, eig.eigenvectors
    p = lam.shape[-1]
    if not 0 <= rank <= p:
        raise DimensionError(f"rank must be in [0, {p}], got {rank}")
    if rank == 0:
        return np.zeros(vecs.shape)
    lam_max = np.maximum(lam[..., 0], 0.0)
    floor = EIGEN_FLOOR * lam_max
    _raise_first(
        (lam_max <= 0.0) | (lam[..., rank - 1] <= floor), RankDeficiencyError,
        lambda k: f"requested rank {rank} but eigenvalue {rank - 1} is "
        f"{lam[k][rank - 1]:.6e} against floor {floor[k]:.6e} "
        f"(largest eigenvalue {lam_max[k]:.6e})",
    )
    u = vecs[..., :rank]
    out = (u / lam[..., None, :rank]) @ u.mT
    return 0.5 * (out + out.mT)


def build_projection(B, b) -> tuple[np.ndarray, np.ndarray, int]:
    """Projection machinery for the affine set ``{theta : B theta = b}``.

    Returns
    -------
    P : ndarray, shape (p, p)
        Orthogonal projection onto the kernel of ``B``.
    c : ndarray, shape (p,)
        Minimum-norm solution of ``B c = b``.
    d : int
        Rank of ``P``, i.e. ``p`` minus the numerical rank of ``B``.

    A matrix with zero rows (no constraints) yields ``P = I``, ``c = 0`` and
    ``d = p``.  An inconsistent system raises ``InfeasibleConstraintError``.
    """
    B = _as_matrix(B, "B")
    b = _as_vector(b, "b")
    m, p = B.shape
    if b.shape[0] != m:
        raise DimensionError(f"b has dimension {b.shape[0]}, expected {m} (rows of B)")
    if m == 0:
        return np.eye(p), np.zeros(p), p

    u, s, vt = np.linalg.svd(B, full_matrices=False)
    rank = int(np.sum(s > RANK_THRESHOLD * s[0])) if s.size and s[0] > 0.0 else 0
    if rank == 0:
        P = np.eye(p)
        c = np.zeros(p)
        d = p
    else:
        vr = vt[:rank].T
        c = vr @ ((u[:, :rank].T @ b) / s[:rank])
        P = np.eye(p) - vr @ vr.T
        P = 0.5 * (P + P.T)
        d = p - rank

    residual = np.linalg.norm(B @ c - b)
    if residual > 1e-8 * max(1.0, np.linalg.norm(b)):
        raise InfeasibleConstraintError(
            f"system B theta = b is inconsistent (residual {residual:.6e})"
        )
    return P, c, d


@dataclass(frozen=True)
class Constraint:
    """The affine feasible set ``{theta : B theta = b}`` and its geometry.

    Carries the raw equality system together with the derived projection
    matrix ``P``, a feasible point ``c`` (minimum norm) and the kernel
    dimension ``d = rank(P)``.
    """

    B: np.ndarray
    b: np.ndarray
    P: np.ndarray
    c: np.ndarray
    d: int

    @classmethod
    def from_equalities(cls, B, b) -> "Constraint":
        """Build from an equality system; see ``build_projection``."""
        B = _as_matrix(B, "B")
        b = _as_vector(b, "b")
        P, c, d = build_projection(B, b)
        return cls(B=B, b=b, P=P, c=c, d=d)

    @classmethod
    def unconstrained(cls, p: int) -> "Constraint":
        """The trivial constraint on R^p (``P = I``, ``c = 0``, ``d = p``)."""
        return cls(
            B=np.zeros((0, p)), b=np.zeros(0), P=np.eye(p), c=np.zeros(p), d=p
        )

    @property
    def p(self) -> int:
        return self.P.shape[0]

    def project(self, theta: np.ndarray) -> np.ndarray:
        """Orthogonal projection of ``theta`` (shape ``(..., p)``) onto the feasible set.

        Without effective constraints (``d == p``) the input comes back as a
        float array, which may be the input itself.
        """
        if self.d == self.p:
            return np.asarray(theta, dtype=float)
        return self.c + (theta - self.c) @ self.P.T

    def _descend(
        self, theta: np.ndarray, step: float, grad: np.ndarray, out: np.ndarray
    ) -> np.ndarray:
        """``project(theta - step * grad)`` for a feasible ``theta``, written to ``out``.

        ``P`` is symmetric and idempotent and a feasible ``theta`` has
        ``(theta - c) P = theta - c``, so the projection of the update is
        ``theta - step * grad @ P``: no re-projection from ``c``.  Without
        effective constraints this is the plain update, bit for bit.
        """
        if self.d != self.p:
            grad = grad @ self.P
        np.multiply(grad, step, out=out)
        return np.subtract(theta, out, out=out)

    def violation(self, theta: np.ndarray) -> float | np.ndarray:
        """Euclidean norm of ``B theta - b`` over the last axis of ``theta``.

        A ``(p,)`` input gives a float and a ``(..., p)`` batch one norm per
        stream; both are 0.0 when there are no rows.
        """
        norms = np.linalg.norm(np.asarray(theta, dtype=float) @ self.B.T - self.b, axis=-1)
        return float(norms) if norms.ndim == 0 else norms
