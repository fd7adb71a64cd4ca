"""Dense small-matrix helpers: the constraint's geometry and eigendecompositions.

Everything here operates on plain numpy arrays of modest dimension (parameter
spaces in the single digits) and is a pure function of its inputs.  Matrix
norms in tolerance checks are spectral norms.  ``symmetric_eigen`` also takes
``(..., n, n)`` stacks, matrix by matrix; a failure names the first bad
matrix (``matrix (k,): ...``).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DimensionError,
    DomainError,
    InfeasibleConstraintError,
    NumericalError,
)

#: Relative threshold below which a singular value of a constraint matrix, or
#: an eigenvalue of a test's weight matrix, counts as numerically zero.
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


def _positive_dim(p: int) -> int:
    # false for NaN and, through inf % 1, for inf
    if not (isinstance(p, numbers.Real) and p >= 1 and p % 1 == 0):
        raise DimensionError(f"parameter dimension must be a positive integer, got {p}")
    return int(p)


def _as_vector(v, name: str = "vector") -> np.ndarray:
    arr = np.asarray(v, dtype=float).reshape(-1)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} contains non-finite entries")
    return arr


def symmetric_eigen(a):
    """Eigendecomposition of a (numerically) symmetric matrix, or of each
    matrix in a ``(..., n, n)`` stack, as numpy's ``eigh`` result in
    descending order: ``eigenvalues`` (shape ``(..., n)``) sorted from the
    largest, and ``eigenvectors`` (shape ``(..., n, n)``) whose orthonormal
    column ``i`` pairs with ``eigenvalues[..., i]``.

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
        eig = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:  # LAPACK non-convergence
        raise NumericalError(f"eigendecomposition failed to converge: {exc}") from exc
    return eig._replace(
        eigenvalues=eig.eigenvalues[..., ::-1].copy(),
        eigenvectors=eig.eigenvectors[..., ::-1].copy(),
    )


@dataclass(frozen=True)
class Constraint:
    """The affine feasible set ``{theta : B theta = b}`` and its geometry.

    Carries the raw equality system together with the derived projection
    matrix ``P``, a feasible point ``c`` (minimum norm), the kernel
    dimension ``d = rank(P)`` and two orthonormal bases: ``U`` (shape
    ``(p, d)``) of the kernel of ``B``, where the estimate moves, and ``V``
    (shape ``(p, p - d)``) of the row space of ``B``, which the
    specification test reads.  ``P = U U'`` and ``I - P = V V'``, up to
    rounding.
    """

    B: np.ndarray
    b: np.ndarray
    P: np.ndarray
    c: np.ndarray
    d: int
    U: np.ndarray
    V: np.ndarray

    @classmethod
    def from_equalities(cls, B, b) -> "Constraint":
        """Build from the equality system ``B theta = b``, the only place its
        geometry is derived.

        ``P`` (shape ``(p, p)``) is the orthogonal projection onto the kernel
        of ``B``, ``c`` (shape ``(p,)``) the minimum-norm solution of
        ``B c = b``, and ``d`` the rank of ``P``, i.e. ``p`` minus the
        numerical rank of ``B``.  ``V`` holds the leading right singular
        vectors of ``B``, from which ``P`` and ``c`` are built, and ``U`` the
        trailing ones of its full SVD.  A matrix with no rows, or with zero
        rows only, yields ``P = I``, ``c = 0``, ``d = p`` and ``U = I``.  An
        inconsistent system raises ``InfeasibleConstraintError``.
        """
        B = _as_matrix(B, "B")
        b = _as_vector(b, "b")
        m, p = B.shape
        if b.shape[0] != m:
            raise DimensionError(f"b has dimension {b.shape[0]}, expected {m} (rows of B)")
        u, s, vt = np.linalg.svd(B, full_matrices=False)
        rank = int(np.sum(s > RANK_THRESHOLD * s.max(initial=0.0)))
        vr = vt[:rank].T
        c = vr @ ((u[:, :rank].T @ b) / s[:rank])
        P = np.eye(p) - vr @ vr.T
        P = 0.5 * (P + P.T)
        residual = np.linalg.norm(B @ c - b)
        if residual > 1e-8 * max(1.0, np.linalg.norm(b)):
            raise InfeasibleConstraintError(
                f"system B theta = b is inconsistent (residual {residual:.6e})"
            )
        # the economy SVD's vt has only min(m, p) rows, too few for the kernel,
        # and P and c keep its bits, which the full SVD's differ from on some systems
        U = np.linalg.svd(B, full_matrices=True).Vh[rank:].T
        return cls(B=B, b=b, P=P, c=c, d=p - rank, U=U, V=vr)

    @classmethod
    def unconstrained(cls, p: int) -> "Constraint":
        """The trivial constraint on R^p (``P = I``, ``c = 0``, ``d = p``)."""
        return cls.from_equalities(np.zeros((0, _positive_dim(p))), np.zeros(0))

    @property
    def p(self) -> int:
        return self.P.shape[0]

    def project(self, theta: np.ndarray) -> np.ndarray:
        """Orthogonal projection of ``theta`` (shape ``(..., p)``) onto the feasible set."""
        return self.c + (theta - self.c) @ self.P.T

    def violation(self, theta: np.ndarray) -> float | np.ndarray:
        """Euclidean norm of ``B theta - b`` over the last axis of ``theta``.

        A ``(p,)`` input gives a float and a ``(..., p)`` batch one norm per
        stream; both are 0.0 when there are no rows.
        """
        norms = np.linalg.norm(np.asarray(theta, dtype=float) @ self.B.T - self.b, axis=-1)
        return float(norms) if norms.ndim == 0 else norms
