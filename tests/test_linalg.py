"""Projection construction, truncated pseudoinverses, and their invariants."""

import numpy as np
import pytest

from apsgd import (
    Constraint,
    DimensionError,
    DomainError,
    InfeasibleConstraintError,
    RankDeficiencyError,
    pinv_truncated,
    symmetric_eigen,
)


def random_projection(rng, p, d):
    """Rank-d orthogonal projection from a random orthonormal basis."""
    q, _ = np.linalg.qr(rng.standard_normal((p, p)))
    return q[:, :d] @ q[:, :d].T


def random_pd(rng, p):
    a = rng.standard_normal((p, p))
    return a @ a.T + 0.5 * np.eye(p)


class TestSymmetricEigen:
    def test_identity(self):
        eig = symmetric_eigen(np.eye(3))
        np.testing.assert_allclose(eig.eigenvalues, [1.0, 1.0, 1.0])

    def test_diagonal(self):
        eig = symmetric_eigen(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(eig.eigenvalues, [3.0, 1.0])

    def test_two_by_two_hand_value(self):
        # char. polynomial of [[2,1],[1,2]] is (l-2)^2 - 1, roots 3 and 1
        eig = symmetric_eigen([[2.0, 1.0], [1.0, 2.0]])
        np.testing.assert_allclose(eig.eigenvalues, [3.0, 1.0], atol=1e-12)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            p = rng.integers(2, 8)
            a = random_pd(rng, p) - 2.0 * np.eye(p)
            eig = symmetric_eigen(a)
            recon = eig.eigenvectors @ np.diag(eig.eigenvalues) @ eig.eigenvectors.T
            scale = max(1.0, np.linalg.norm(a, 2))
            assert np.linalg.norm(recon - a, 2) <= 1e-8 * scale
            gram = eig.eigenvectors.T @ eig.eigenvectors
            assert np.linalg.norm(gram - np.eye(p), 2) <= 1e-10
            assert np.all(np.diff(eig.eigenvalues) <= 1e-12)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            symmetric_eigen(np.ones((2, 3)))

    def test_asymmetric_rejected(self):
        with pytest.raises(DomainError):
            symmetric_eigen([[1.0, 2.0], [0.0, 1.0]])

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            symmetric_eigen([[np.nan, 0.0], [0.0, 1.0]])


class TestPinvTruncated:
    def test_diagonal_rank_one(self):
        out = pinv_truncated(np.diag([2.0, 0.0]), 1)
        np.testing.assert_allclose(out, np.diag([0.5, 0.0]), atol=1e-14)

    def test_projection_is_its_own_pseudoinverse(self):
        # with G = I the projected matrix PGP equals P, and pinv(P) = P
        p_mat = np.full((2, 2), 0.5)
        out = pinv_truncated(p_mat @ np.eye(2) @ p_mat, 1)
        np.testing.assert_allclose(out, p_mat, atol=1e-12)

    def test_identity_full_rank(self):
        np.testing.assert_allclose(pinv_truncated(np.eye(4), 4), np.eye(4), atol=1e-14)

    def test_rank_zero_gives_zero(self):
        np.testing.assert_allclose(pinv_truncated(np.eye(3), 0), np.zeros((3, 3)))

    def test_rank_beyond_numerical_rank(self):
        with pytest.raises(RankDeficiencyError):
            pinv_truncated(np.diag([2.0, 0.0]), 2)

    def test_rank_out_of_range(self):
        with pytest.raises(DimensionError):
            pinv_truncated(np.eye(2), 3)

    def test_moore_penrose_identities(self):
        """A M A = A, M A M = M, (AM)' = AM, (MA)' = MA on exact-rank matrices."""
        rng = np.random.default_rng(11)
        for _ in range(50):
            p = int(rng.integers(2, 7))
            rank = int(rng.integers(1, p + 1))
            q, _ = np.linalg.qr(rng.standard_normal((p, p)))
            lam = np.sort(rng.uniform(0.5, 4.0, size=rank))[::-1]
            a = (q[:, :rank] * lam) @ q[:, :rank].T
            m = pinv_truncated(a, rank)
            tol = 1e-8 * max(1.0, np.linalg.norm(a, 2))
            assert np.linalg.norm(a @ m @ a - a, 2) <= tol
            assert np.linalg.norm(m @ a @ m - m, 2) <= tol * max(1.0, np.linalg.norm(m, 2))
            assert np.linalg.norm(a @ m - (a @ m).T, 2) <= tol
            assert np.linalg.norm(m @ a - (m @ a).T, 2) <= tol


def geometry(B, b):
    """``(P, c, d)`` of ``Constraint.from_equalities(B, b)``."""
    con = Constraint.from_equalities(B, b)
    return con.P, con.c, con.d


class TestFromEqualities:
    def test_two_coordinate_equality(self):
        # B = (1, -1): kernel is the diagonal, so P averages the coordinates
        P, c, d = geometry([[1.0, -1.0]], [0.0])
        np.testing.assert_allclose(P, np.full((2, 2), 0.5), atol=1e-12)
        np.testing.assert_allclose(c, [0.0, 0.0], atol=1e-14)
        assert d == 1

    def test_empty_system_is_unconstrained(self):
        P, c, d = geometry(np.zeros((0, 5)), np.zeros(0))
        np.testing.assert_allclose(P, np.eye(5))
        np.testing.assert_allclose(c, np.zeros(5))
        assert d == 5

    def test_fully_pinned(self):
        b0 = np.array([2.0, -1.0, 0.5])
        P, c, d = geometry(np.eye(3), b0)
        np.testing.assert_allclose(P, np.zeros((3, 3)), atol=1e-12)
        np.testing.assert_allclose(c, b0, atol=1e-12)
        assert d == 0

    def test_inconsistent_system(self):
        with pytest.raises(InfeasibleConstraintError):
            geometry([[1.0, 0.0], [1.0, 0.0]], [0.0, 1.0])

    def test_redundant_consistent_rows(self):
        P, c, d = geometry([[1.0, 0.0], [2.0, 0.0]], [1.0, 2.0])
        assert d == 1
        np.testing.assert_allclose(c, [1.0, 0.0], atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            geometry([[1.0, 0.0]], [0.0, 1.0])

    @pytest.mark.parametrize("p", [1, 2, 4, 7])
    def test_unconstrained_geometry_is_exact(self, p):
        con = Constraint.unconstrained(p)
        assert con.B.shape == (0, p) and con.b.shape == (0,) and con.d == p
        for got, want in ((con.P, np.eye(p)), (con.c, np.zeros(p))):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_zero_rows_are_no_constraint(self):
        """An all-zero row has rank 0: P = I, c = 0 and d = p, bit for bit."""
        P, c, d = geometry([[0.0, 0.0, 0.0]], [0.0])
        assert P.tobytes() == np.eye(3).tobytes() and c.tobytes() == np.zeros(3).tobytes()
        assert d == 3

    def test_zero_row_with_a_nonzero_constant_is_infeasible(self):
        with pytest.raises(InfeasibleConstraintError, match="inconsistent"):
            geometry([[0.0, 0.0, 0.0]], [1.0])

    def test_projection_invariants_random_systems(self):
        """P idempotent/symmetric, B P = 0, B c = b on random consistent systems."""
        rng = np.random.default_rng(23)
        for _ in range(40):
            p = int(rng.integers(2, 9))
            m = int(rng.integers(1, p + 1))
            B = rng.standard_normal((m, p))
            b = B @ rng.standard_normal(p)  # consistent by construction
            P, c, d = geometry(B, b)
            assert np.linalg.norm(P @ P - P, 2) <= 1e-10
            assert np.linalg.norm(P - P.T, 2) <= 1e-10
            assert np.linalg.norm(B @ P, 2) <= 1e-8 * np.linalg.norm(B, 2)
            assert np.linalg.norm(B @ c - b) <= 1e-8 * max(1.0, np.linalg.norm(b))
            assert d == p - np.linalg.matrix_rank(B)


class TestConstraint:
    def test_project_is_idempotent(self):
        rng = np.random.default_rng(3)
        con = Constraint.from_equalities([[0.0, 1.0, 1.0, 1.0]], [0.5])
        v = rng.standard_normal(4)
        once = con.project(v)
        twice = con.project(once)
        np.testing.assert_allclose(once, twice, atol=1e-12)
        assert con.violation(once) <= 1e-8

    def test_unconstrained_projection_is_identity(self):
        con = Constraint.unconstrained(3)
        v = np.array([1.0, -2.0, 0.25])
        assert np.array_equal(con.project(v), v)
        assert con.violation(v) == 0.0

    def test_unconstrained_projection_returns_a_float_array(self):
        out = Constraint.unconstrained(2).project([[1, 2], [3, 4]])
        assert isinstance(out, np.ndarray) and out.dtype == float
        np.testing.assert_array_equal(out, [[1.0, 2.0], [3.0, 4.0]])


    @pytest.mark.parametrize("shape", [(4,), (3, 4), (4, 4), (2, 3, 4)])
    def test_violation_is_per_stream(self, shape):
        """A batch gives one norm per row; R == p must not read as a matrix product."""
        con = Constraint.from_equalities([[0.0, 1.0, 1.0, 1.0], [1.0, -1.0, 0.0, 0.0]], [0.0, 1.0])
        theta = np.random.default_rng(5).standard_normal(shape)
        got = con.violation(theta)
        if len(shape) == 1:
            assert isinstance(got, float)
        assert np.shape(got) == shape[:-1]
        for row in np.ndindex(shape[:-1]):
            want = np.linalg.norm(con.B @ theta[row] - con.b)
            assert np.asarray(got)[row] == pytest.approx(want, rel=1e-14)
        assert np.array_equal(Constraint.unconstrained(4).violation(theta), np.zeros(shape[:-1]))

    def test_violation_of_ones_batch(self):
        con = Constraint.from_equalities([[0.0, 1.0, 1.0, 1.0]], [0.0])
        np.testing.assert_array_equal(con.violation(np.ones((4, 4))), np.full(4, 3.0))


class TestKernelRestrictedInverseIdentities:
    """pinv(PAP) absorbs P on either side and inverts PAP on the range of P."""

    def test_identities_on_random_pairs(self):
        rng = np.random.default_rng(101)
        for _ in range(100):
            p = int(rng.integers(2, 8))
            d = int(rng.integers(1, p + 1))
            P = random_projection(rng, p, d)
            A = random_pd(rng, p)
            pap = P @ A @ P
            inv = pinv_truncated(pap, d)
            scale = max(1.0, np.linalg.norm(inv, 2))
            assert np.linalg.norm(inv @ P - inv, 2) <= 1e-8 * scale
            assert np.linalg.norm(P @ inv - inv, 2) <= 1e-8 * scale
            x = P @ rng.standard_normal(p)  # any vector with P x = x
            np.testing.assert_allclose(
                inv @ (pap @ x), x, atol=1e-8 * max(1.0, np.linalg.norm(x))
            )
