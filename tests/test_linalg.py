"""The constraint's geometry (projection, feasible point, bases) and its invariants."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apsgd import (
    Constraint,
    DimensionError,
    DomainError,
    InfeasibleConstraintError,
    symmetric_eigen,
)
from apsgd.inference import _invert_pd
from apsgd.simulate import PRESETS


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
        con = Constraint.from_equalities(np.eye(3), b0)
        assert con.U.shape == (3, 0) and con.V.shape == (3, 3)

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

    @pytest.mark.parametrize("p", [0, -1, 2.5, float("nan"), float("inf")])
    def test_unconstrained_needs_a_positive_integer_dimension(self, p):
        with pytest.raises(DimensionError, match="positive integer"):
            Constraint.unconstrained(p)

    @pytest.mark.parametrize("p", [1, 2, 4, 7])
    def test_unconstrained_geometry_is_exact(self, p):
        con = Constraint.unconstrained(p)
        assert con.B.shape == (0, p) and con.b.shape == (0,) and con.d == p
        for got, want in ((con.P, np.eye(p)), (con.c, np.zeros(p)), (con.U, np.eye(p))):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert con.V.shape == (p, 0)

    def test_zero_rows_are_no_constraint(self):
        """An all-zero row has rank 0: P = I, c = 0, d = p and U = I, bit for bit."""
        con = Constraint.from_equalities([[0.0, 0.0, 0.0]], [0.0])
        assert con.P.tobytes() == np.eye(3).tobytes() == con.U.tobytes()
        assert con.c.tobytes() == np.zeros(3).tobytes() and con.d == 3

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


def seeded_system(k):
    """Consistent system ``k``: up to p + 1 Gaussian rows, some with a row
    twice another (redundant) or a row of zeros."""
    rng = np.random.default_rng(k)
    p = int(rng.integers(1, 9))
    m = int(rng.integers(0, p + 2))
    B = rng.standard_normal((m, p))
    if m > 1 and k % 3 == 0:
        B[-1] = 2.0 * B[0]
    if m and k % 4 == 1:
        B[0] = 0.0
    return B, B @ rng.standard_normal(p)


@st.composite
def systems(draw):
    """A matrix ``B`` of up to ``p + 1`` rows, with zero and redundant rows."""
    p = draw(st.integers(1, 7))
    m = draw(st.integers(0, p + 1))
    B = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((m, p))
    for i in range(m):
        kind = draw(st.sampled_from(["gaussian", "zero", "redundant"]))
        if kind == "zero":
            B[i] = 0.0
        elif kind == "redundant" and i:
            B[i] = draw(st.floats(-3.0, 3.0)) * B[draw(st.integers(0, i - 1))]
    return B


class TestBases:
    @settings(max_examples=200, deadline=None)
    @given(systems())
    def test_bases_are_orthonormal_and_complementary(self, B):
        """``U`` spans the kernel of ``B`` and ``V`` its row space: both are
        orthonormal and ``U U' + V V' = I``."""
        m, p = B.shape
        con = Constraint.from_equalities(B, np.zeros(m))
        U, V = con.U, con.V
        assert U.shape == (p, con.d) and V.shape == (p, p - con.d)
        for basis in (U, V):
            gram = basis.T @ basis
            np.testing.assert_allclose(gram, np.eye(len(gram)), rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(U @ U.T + V @ V.T, np.eye(p), rtol=0.0, atol=1e-12)
        assert np.linalg.norm(B @ U, 2) <= 1e-12 * max(1.0, np.linalg.norm(B, 2))
        np.testing.assert_allclose(U @ U.T, con.P, rtol=0.0, atol=1e-12)

    def test_geometry_keeps_its_bytes(self):
        """``P``, ``c`` and ``d`` of the presets, the two-row ``df2`` system and
        200 seeded systems hash to the digest recorded before the bases were
        added."""
        cons = [PRESETS[name].constraint() for name in ("linear", "logistic", "logistic_shift")]
        cons.append(
            Constraint.from_equalities([[0.0, 1.0, 1.0, 1.0], [2.0, 1.0, 0.0, 0.0]], [0.0, 0.0])
        )
        cons += [Constraint.from_equalities(*seeded_system(k)) for k in range(200)]
        digest = hashlib.sha256()
        for con in cons:
            digest.update(con.P.tobytes() + con.c.tobytes() + str(con.d).encode())
        assert digest.hexdigest() == (
            "4842fd0dfbc0d99ce3ea928a969abe4e94b4a118cd6b7e413bae48df347e19e3"
        )


class TestKernelRestrictedInverseIdentities:
    """``M = U (U'AU)^-1 U'`` absorbs ``P`` on either side, inverts ``PAP`` on
    the range of ``P``, and is numpy's pseudoinverse of ``PAP``."""

    def test_identities_on_random_pairs(self):
        rng = np.random.default_rng(101)
        for _ in range(100):
            p = int(rng.integers(2, 8))
            d = int(rng.integers(0, p + 1))
            con = Constraint.from_equalities(rng.standard_normal((p - d, p)), np.zeros(p - d))
            U, P = con.U, con.P
            A = random_pd(rng, p)
            pap = P @ A @ P
            inv = U @ _invert_pd(U.T @ A @ U, "A") @ U.T
            scale = max(1.0, np.linalg.norm(inv, 2))
            assert np.linalg.norm(inv @ P - inv, 2) <= 1e-8 * scale
            assert np.linalg.norm(P @ inv - inv, 2) <= 1e-8 * scale
            x = P @ rng.standard_normal(p)  # any vector with P x = x
            np.testing.assert_allclose(
                inv @ (pap @ x), x, atol=1e-8 * max(1.0, np.linalg.norm(x))
            )
            # with d = 0, PAP is rounding noise that a relative cutoff keeps
            reference = np.linalg.pinv(pap, hermitian=True, rtol=1e-10) if d else 0.0
            np.testing.assert_allclose(inv, reference, rtol=0.0, atol=1e-8 * scale)
