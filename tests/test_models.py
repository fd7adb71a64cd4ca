"""Loss models against hand derivations and finite-difference oracles."""

import math

import numpy as np
import pytest

from apsgd import (
    CustomModel,
    DataError,
    DimensionError,
    LinearModel,
    LogisticModel,
    MeanModel,
)
from apsgd.models import _gram


def mean_loss(theta, z):
    diff = z - theta
    return 0.5 * (diff @ diff)


def linear_loss(theta, z):
    return 0.5 * (z[0] - z[1:] @ theta) ** 2


def logistic_loss(theta, z):
    return np.logaddexp(0.0, -z[0] * (z[1:] @ theta))


#: Each family's loss in closed form, the oracle its gradient is checked against.
LOSSES = {MeanModel: mean_loss, LinearModel: linear_loss, LogisticModel: logistic_loss}


def fd_gradient(loss, theta, z):
    """Central finite differences of ``loss``, step 1e-6 * max(1, |theta_i|)."""
    out = np.empty_like(theta)
    for i in range(theta.size):
        h = 1e-6 * max(1.0, abs(theta[i]))
        up = theta.copy()
        dn = theta.copy()
        up[i] += h
        dn[i] -= h
        out[i] = (loss(up, z) - loss(dn, z)) / (2.0 * h)
    return out


def fd_hessian(model, theta, z):
    """Central finite differences of the gradient."""
    p = theta.size
    out = np.empty((p, p))
    for i in range(p):
        h = 1e-6 * max(1.0, abs(theta[i]))
        up = theta.copy()
        dn = theta.copy()
        up[i] += h
        dn[i] -= h
        out[:, i] = (model._gradient(up, z) - model._gradient(dn, z)) / (2.0 * h)
    return 0.5 * (out + out.T)


def random_observation(model, rng):
    if isinstance(model, MeanModel):
        return rng.standard_normal(model.obs_dim)
    x = rng.standard_normal(model.param_dim)
    if isinstance(model, LogisticModel):
        y = 1.0 if rng.random() < 0.5 else -1.0
        return np.concatenate(([y], x))
    return np.concatenate(([rng.standard_normal()], x))


class TestMeanModel:
    def test_gradient_vanishes_at_observation(self):
        m = MeanModel(3)
        z = np.array([0.3, -1.0, 2.0])
        np.testing.assert_allclose(m._gradient(z, z), np.zeros(3))

    def test_hand_derivative(self):
        m = MeanModel(2)
        theta, z = np.zeros(2), np.array([1.0, 2.0])
        np.testing.assert_allclose(m._gradient(theta, z), [-1.0, -2.0])
        np.testing.assert_allclose(m._hessian(theta, z), np.eye(2))

    def test_hessian_constant(self):
        m = MeanModel(2)
        rng = np.random.default_rng(0)
        for _ in range(5):
            theta, z = rng.standard_normal(2), rng.standard_normal(2)
            np.testing.assert_array_equal(m._hessian(theta, z), np.eye(2))


class TestLinearModel:
    def test_zero_residual(self):
        m = LinearModel(2)
        theta = np.array([1.0, -2.0])
        x = np.array([0.5, 3.0])
        z = np.concatenate(([x @ theta], x))
        np.testing.assert_allclose(m._gradient(theta, z), np.zeros(2), atol=1e-14)

    def test_hand_derivative(self):
        m = LinearModel(2)
        z = np.array([1.0, 1.0, 1.0])  # y=1, x=(1,1)
        np.testing.assert_allclose(m._gradient(np.zeros(2), z), [-1.0, -1.0])
        np.testing.assert_allclose(m._hessian(np.zeros(2), z), np.ones((2, 2)))

    def test_finite_difference_gradient(self):
        m = LinearModel(3)
        rng = np.random.default_rng(5)
        for _ in range(20):
            theta = rng.standard_normal(3)
            z = random_observation(m, rng)
            g = m._gradient(theta, z)
            np.testing.assert_allclose(
                fd_gradient(linear_loss, theta, z), g, atol=1e-6 * max(1.0, np.linalg.norm(g))
            )


class TestLogisticModel:
    def test_gradient_at_zero_margin(self):
        # sigmoid(0) = 1/2, so gradient is -x/2 and hessian xx'/4
        m = LogisticModel(2)
        x = np.array([0.7, -1.2])
        z = np.concatenate(([1.0], x))
        np.testing.assert_allclose(m._gradient(np.zeros(2), z), -x / 2.0)
        np.testing.assert_allclose(m._hessian(np.zeros(2), z), np.outer(x, x) / 4.0)

    def test_saturation_is_finite(self):
        """Margins of +-700 stay finite: gradient and hessian."""
        m = LogisticModel(1)
        for margin in (700.0, -700.0):
            z = np.array([1.0, 1.0])
            theta = np.array([margin])
            g = m._gradient(theta, z)
            assert np.all(np.isfinite(g))
            assert np.linalg.norm(g) <= np.linalg.norm(z[1:]) + 1e-12
            assert np.all(np.isfinite(m._hessian(theta, z)))
        # correctly classified saturation: gradient goes to zero
        z = np.array([1.0, 1.0])
        assert np.linalg.norm(m._gradient(np.array([700.0]), z)) <= 1e-200

    def test_label_validation(self):
        m = LogisticModel(2)
        with pytest.raises(DataError):
            m._check_obs(np.array([0.0, 1.0, 2.0]))

    def test_finite_difference_gradient_and_hessian(self):
        m = LogisticModel(3)
        rng = np.random.default_rng(8)
        for _ in range(20):
            theta = rng.standard_normal(3)
            z = random_observation(m, rng)
            g = m._gradient(theta, z)
            h = m._hessian(theta, z)
            np.testing.assert_allclose(
                fd_gradient(logistic_loss, theta, z), g, atol=1e-6 * max(1.0, np.linalg.norm(g))
            )
            np.testing.assert_allclose(
                fd_hessian(m, theta, z), h, atol=1e-4 * max(1.0, np.linalg.norm(h, 2))
            )


class TestCustomModel:
    def test_wrapping_is_transparent(self):
        inner = MeanModel(2)
        wrapped = CustomModel(2, 2, inner._gradient, inner._hessian)
        rng = np.random.default_rng(1)
        for _ in range(5):
            theta, z = rng.standard_normal(2), rng.standard_normal(2)
            np.testing.assert_array_equal(wrapped._gradient(theta, z), inner._gradient(theta, z))
            np.testing.assert_array_equal(wrapped._hessian(theta, z), inner._hessian(theta, z))

    def test_gaussian_likelihood_matches_scaled_linear(self):
        """Gaussian log-likelihood with known variance is the linear loss / sigma^2."""
        sigma2 = 4.0
        lin = LinearModel(2)

        def gradient(theta, z):
            return lin._gradient(theta, z) / sigma2

        def hessian(theta, z):
            return lin._hessian(theta, z) / sigma2

        model = CustomModel(2, 3, gradient, hessian)
        rng = np.random.default_rng(2)
        theta = rng.standard_normal(2)
        z = random_observation(lin, rng)
        np.testing.assert_allclose(
            model._gradient(theta, z) * sigma2, lin._gradient(theta, z), atol=1e-14
        )

    def test_poisson_regression_finite_differences(self):
        """Count-model negative log-likelihood: exp(x.theta) - y x.theta."""

        def loss(theta, z):
            y, x = z[0], z[1:]
            return float(np.exp(x @ theta) - y * (x @ theta))

        def gradient(theta, z):
            y, x = z[0], z[1:]
            return (np.exp(x @ theta) - y) * x

        def hessian(theta, z):
            x = z[1:]
            return np.exp(x @ theta) * np.outer(x, x)

        model = CustomModel(2, 3, gradient, hessian)
        rng = np.random.default_rng(3)
        for _ in range(20):
            theta = 0.5 * rng.standard_normal(2)
            x = rng.standard_normal(2)
            y = float(rng.poisson(np.exp(np.clip(x @ theta, -5, 5))))
            z = np.concatenate(([y], x))
            g = model._gradient(theta, z)
            np.testing.assert_allclose(
                fd_gradient(loss, theta, z), g, atol=1e-6 * max(1.0, np.linalg.norm(g))
            )

    def test_dimension_mismatch_surfaces_at_first_call(self):
        bad = CustomModel(2, 2, lambda t, z: np.zeros(3), lambda t, z: np.eye(2))
        with pytest.raises(DimensionError):
            bad._gradient(np.zeros(2), np.zeros(2))


@pytest.mark.parametrize("p", [0, -1, 2.5, math.nan, math.inf, "4"])
@pytest.mark.parametrize("family", [MeanModel, LinearModel, LogisticModel])
def test_a_dimension_that_is_not_a_positive_integer_is_a_dimension_error(family, p):
    with pytest.raises(DimensionError, match="positive integer"):
        family(p)


class TestGradientOracleSweep:
    """Finite-difference agreement at 100 random points per built-in family."""

    @pytest.mark.parametrize("factory", [MeanModel, LinearModel, LogisticModel])
    def test_gradient_and_hessian(self, factory):
        model = factory(4)
        rng = np.random.default_rng(42)
        for _ in range(100):
            theta = rng.standard_normal(4)
            z = random_observation(model, rng)
            g = model._gradient(theta, z)
            h = model._hessian(theta, z)
            assert np.linalg.norm(fd_gradient(LOSSES[factory], theta, z) - g) <= 1e-5 * max(
                1.0, np.linalg.norm(g)
            )
            assert np.linalg.norm(fd_hessian(model, theta, z) - h, 2) <= 1e-4 * max(
                1.0, np.linalg.norm(h, 2)
            )
            np.testing.assert_array_equal(h, h.T)

    @pytest.mark.parametrize("factory", [MeanModel, LinearModel, LogisticModel])
    def test_leading_axes_match_row_by_row(self, factory):
        model = factory(4)
        rng = np.random.default_rng(43)
        theta = rng.standard_normal((2, 3, 4))
        z = np.array(
            [[random_observation(model, rng) for _ in range(3)] for _ in range(2)]
        )
        for method in (model._gradient, model._hessian):
            batch = method(theta, z)
            for row in np.ndindex(2, 3):
                np.testing.assert_array_equal(batch[row], method(theta[row], z[row]))

    @pytest.mark.parametrize("batch", [(), (3,)], ids=["stream", "lockstep"])
    @pytest.mark.parametrize("family", ["mean", "linear", "logistic", "custom"])
    def test_moment_sums_match_summed_rows(self, family, batch):
        """The block kernel returns the summed Hessians and the Gram matrix of
        the gradients of a ``(p,)`` stream's and an ``(R, p)`` lockstep's rows.

        The Gram matrix is ``_gram(_gradient(...))`` bit for bit in every
        family, as is the Hessian sum of the default kernel (mean, custom).
        The linear and logistic kernels sum ``h x x^T`` as one matrix product
        over the rows, which rounds differently from summing the ``_hessian``
        rows, so those two agree to 1e-12 only."""
        if family == "custom":
            lin = LinearModel(4)
            model = CustomModel(4, 5, lin._gradient, lin._hessian)
        else:
            model = {"mean": MeanModel, "linear": LinearModel, "logistic": LogisticModel}[family](4)
        rng = np.random.default_rng(44)
        theta = rng.standard_normal((7, *batch, 4))
        rows = [random_observation(model, rng) for _ in range(7 * math.prod(batch))]
        z = np.reshape(rows, (7, *batch, model.obs_dim))
        hess_sum, outer_sum = model._moment_sums(theta.copy(), z)
        assert hess_sum.shape == outer_sum.shape == (*batch, 4, 4)
        assert outer_sum.tobytes() == _gram(model._gradient(theta, z)).tobytes()
        summed = model._hessian(theta, z).sum(0)
        if family in ("mean", "custom"):
            assert hess_sum.tobytes() == summed.tobytes()
        else:
            np.testing.assert_allclose(hess_sum, summed, rtol=1e-12, atol=1e-14)


class TestScalarWeight:
    """A ``(p,)`` stream's walk evaluates the family's weight from the Python
    expression ``_scalar_weight``; the ``(R, p)`` lockstep, the moments and
    the gradient use the vectorised ``_weight``.  Both forms agree bit for
    bit, at the edges of the float range too."""

    MARGINS = [0.0, 1e-300, 30.0, 700.0, 709.78, 800.0, math.inf]

    @pytest.mark.parametrize("model", [LinearModel(4), LogisticModel(4)], ids=["linear", "logistic"])
    def test_the_scalar_weight_equals_the_vectorised_weight(self, model):
        """``math.exp`` raises ``OverflowError`` past 709.78, where the
        vectorised logistic weight saturates to a zero; the walk then takes
        the numpy row loop, so the error stands for that zero."""
        scalar = eval(f"lambda y, m: {model._scalar_weight}", {"exp": math.exp})
        margins = [sign * m for m in self.MARGINS for sign in (1.0, -1.0)] + [math.nan]
        for y in (1.0, -1.0):
            for m in margins:
                want = model._weight(np.float64(y), np.float64(m))
                try:
                    got = scalar(y, m)
                except OverflowError:
                    assert want == 0.0, (y, m)
                    continue
                assert np.float64(got).tobytes() == want.tobytes(), (y, m, got, want)
