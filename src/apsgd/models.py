"""Loss models: loss value, gradient, and Hessian, over leading batch axes.

A model knows its parameter dimension ``param_dim`` and the layout of one
observation (``obs_dim``).  Regression observations are the concatenation
``(y, x)`` with the response first.  Every evaluation takes ``theta`` of
shape ``(..., param_dim)`` and ``z`` of shape ``(..., obs_dim)`` with the same
leading axes, so one call serves a single stream or a stack of replications.
Models are immutable after construction and their evaluations are pure, so
instances are safe to share across threads.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
from scipy.special import expit

from .exceptions import DataError, DimensionError


class LossModel:
    """Interface: a twice-differentiable loss of (parameters, observation).

    The public ``loss``, ``gradient`` and ``hessian`` validate their inputs
    and return arrays of shape ``(...)``, ``(..., p)`` and ``(..., p, p)``;
    the Hessian must be symmetric.  Subclasses implement the unchecked kernels
    ``_loss``, ``_gradient`` and ``_hessian``, which the block engine
    (``EstimatorState.run_stream``) calls directly on blocks of observations
    it has validated once with ``_check_obs``.  The engine moves its iterates
    over a block with ``_walk`` and sums its Hessians with ``_hessian_sum``.
    Both have generic per-row defaults; the linear and logistic families
    override both and the mean model the sum, so that no per-row gradient or
    ``(n, ..., p, p)`` Hessian array is built.
    """

    param_dim: int
    obs_dim: int
    family: str = "custom"

    def loss(self, theta, z):
        return self._loss(*self._check(theta, z))

    def gradient(self, theta, z) -> np.ndarray:
        return self._gradient(*self._check(theta, z))

    def hessian(self, theta, z) -> np.ndarray:
        return self._hessian(*self._check(theta, z))

    def _check(self, theta, z) -> tuple[np.ndarray, np.ndarray]:
        theta = np.asarray(theta, dtype=float)
        if theta.shape[-1:] != (self.param_dim,):
            raise DimensionError(
                f"theta has shape {theta.shape}, expected (..., {self.param_dim})"
            )
        return theta, self._check_obs(z, theta.shape[:-1])

    def _check_obs(self, z, batch_shape=()) -> np.ndarray:
        """``z`` as floats of shape ``batch_shape + (obs_dim,)``, values checked."""
        z = np.asarray(z, dtype=float)
        if z.shape != (*batch_shape, self.obs_dim):
            raise DimensionError(
                f"observation has shape {z.shape}, "
                f"expected {(*batch_shape, self.obs_dim)}"
            )
        return z

    def _loss(self, theta: np.ndarray, z: np.ndarray):
        raise NotImplementedError

    def _gradient(self, theta: np.ndarray, z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _hessian(self, theta: np.ndarray, z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _hessian_sum(self, theta: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Sum of ``_hessian(theta, z)`` over the first axis (the rows of a block)."""
        return self._hessian(theta, z).sum(0)

    def _walk(self, theta, block, P, steps, path) -> None:
        """Projected SGD over the rows of a validated ``(n, ..., obs_dim)`` block
        from the feasible iterate ``theta``: ``path[i]`` receives the iterate
        after row ``i``, ``theta - steps[i] * g P`` with ``g`` the gradient at
        the iterate before it.  ``P`` is the constraint's projection, or
        ``None`` without effective constraints.

        ``P`` is symmetric and idempotent and a feasible ``theta`` has
        ``(theta - c) P = theta - c``, so this is the projection of the plain
        update onto the feasible set: no re-projection from ``c`` is needed.
        Here each row evaluates ``_gradient``, multiplies it by ``P`` and by
        the step size and subtracts it.  ``theta`` itself is not written.
        """
        gradient = self._gradient
        for z, step, row in zip(block, steps, path):
            grad = gradient(theta, z)
            if P is not None:
                grad = grad @ P
            np.multiply(grad, step, out=row)
            theta = np.subtract(theta, row, out=row)


def _positive_dim(p: int) -> int:
    if int(p) != p or p < 1:
        raise DimensionError(f"parameter dimension must be a positive integer, got {p}")
    return int(p)


def _outer(x: np.ndarray) -> np.ndarray:
    return x[..., :, None] @ x[..., None, :]


def _gram(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """``sum_i outer(a[i], b[i])`` over the first axis, as one batched matmul;
    ``b`` defaults to ``a``."""
    return np.moveaxis(a, 0, -1) @ np.moveaxis(a if b is None else b, 0, -2)


def _curvature(y, x, theta):
    """The logistic Hessian's weight ``s (1 - s)`` with ``s = expit(-y x @ theta)``."""
    s = expit(-(y * np.vecdot(x, theta)))
    return s * (1.0 - s)


class MeanModel(LossModel):
    """Squared-error location loss ``0.5 * ||z - theta||^2``."""

    family = "mean"

    def __init__(self, p: int):
        self.param_dim = _positive_dim(p)
        self.obs_dim = self.param_dim
        self._eye = np.eye(self.param_dim)
        self._eye.setflags(write=False)

    def _loss(self, theta, z):
        diff = z - theta
        return 0.5 * np.vecdot(diff, diff)

    def _gradient(self, theta, z):
        return theta - z

    def _hessian(self, theta, z):
        return np.broadcast_to(self._eye, theta.shape + (self.param_dim,))

    def _hessian_sum(self, theta, z):
        return np.broadcast_to(len(theta) * self._eye, theta.shape[1:] + (self.param_dim,))


class _GlmModel(LossModel):
    """A regression loss of ``(y, x_1, ..., x_p)`` whose gradient is the
    scalar weight ``_weight(y, x @ theta)`` times ``x``."""

    def __init__(self, p: int):
        self.param_dim = _positive_dim(p)
        self.obs_dim = self.param_dim + 1

    @staticmethod
    def _weight(y, margin):
        raise NotImplementedError

    def _gradient(self, theta, z):
        y, x = z[..., 0], z[..., 1:]
        return self._weight(y, np.vecdot(x, theta))[..., None] * x

    def _walk(self, theta, block, P, steps, path) -> None:
        """``LossModel._walk`` for a gradient ``w x``: the step ``steps[i] * g P``
        is ``w`` times the direction ``steps[i] * x_i P``, which does not
        depend on ``theta``.  The block's directions are written into
        ``path`` first; row ``i`` then reads its direction from ``path[i]``
        and overwrites it with the iterate, so no other buffer is needed."""
        weight = self._weight
        y, x = block[..., 0], block[..., 1:]
        directions = x if P is None else np.matmul(x, P, out=path)
        np.multiply(directions, steps.reshape((-1,) + (1,) * (path.ndim - 1)), out=path)
        for y_i, x_i, row in zip(y, x, path):
            np.multiply(weight(y_i, np.vecdot(x_i, theta))[..., None], row, out=row)
            theta = np.subtract(theta, row, out=row)


class LinearModel(_GlmModel):
    """Least-squares regression loss ``0.5 * (y - x @ theta)^2``.

    Observations are ``(y, x_1, ..., x_p)``.
    """

    family = "linear"

    def _loss(self, theta, z):
        resid = z[..., 0] - np.vecdot(z[..., 1:], theta)
        return 0.5 * (resid * resid)

    @staticmethod
    def _weight(y, margin):
        return margin - y

    def _hessian(self, theta, z):
        return _outer(z[..., 1:])

    def _hessian_sum(self, theta, z):
        x = z[..., 1:]
        return _gram(x)


class LogisticModel(_GlmModel):
    """Logistic loss ``log(1 + exp(-y * x @ theta))`` with labels in {-1, +1}.

    All three evaluations go through ``log1p``/``expit`` style formulations,
    so they stay finite for margins as extreme as ``|x @ theta| = 700``: the
    loss is computed as ``logaddexp(0, -u)`` and the gradient weight as
    ``expit(-u)``, which saturate instead of overflowing.
    """

    family = "logistic"

    def _check_obs(self, z, batch_shape=()) -> np.ndarray:
        z = LossModel._check_obs(self, z, batch_shape)
        y = z[..., 0]
        bad = np.abs(y) != 1.0
        if np.count_nonzero(bad):
            raise DataError(f"logistic label must be -1 or +1, got {y[bad][0]}")
        return z

    def _loss(self, theta, z):
        return np.logaddexp(0.0, -(z[..., 0] * np.vecdot(z[..., 1:], theta)))

    @staticmethod
    def _weight(y, margin):
        return -y * expit(-(y * margin))

    def _walk(self, theta, block, P, steps, path) -> None:
        """``_GlmModel._walk`` with the label folded into the features: the
        gradient is ``-s y x`` with ``s = expit(-(y x) @ theta)``.

        ``y = +-1``, so ``u = -y x`` is exact, ``s = expit(u @ theta)`` and the
        direction ``steps[i] * (y x_i) P`` is ``-steps[i] * u_i P`` bit for
        bit.  Each row then costs four ufunc calls into preallocated buffers
        and builds no temporary.
        """
        u = block[..., 1:] * -block[..., :1]
        directions = u if P is None else np.matmul(u, P, out=path)
        np.multiply(directions, -steps.reshape((-1,) + (1,) * (path.ndim - 1)), out=path)
        s = np.empty(np.broadcast_shapes(u.shape[1:-1], theta.shape[:-1]))
        s_col = s[..., None]
        for u_i, row in zip(u, path):
            np.vecdot(u_i, theta, out=s)
            expit(s, out=s)
            np.multiply(s_col, row, out=row)
            theta = np.add(theta, row, out=row)

    def _hessian(self, theta, z):
        y, x = z[..., 0], z[..., 1:]
        s = _curvature(y, x, theta)
        return s[..., None, None] * _outer(x)

    def _hessian_sum(self, theta, z):
        y, x = z[..., 0], z[..., 1:]
        return _gram(_curvature(y, x, theta)[..., None] * x, x)


class CustomModel(LossModel):
    """User-supplied loss/gradient/Hessian callables behind the same interface.

    The callables take one parameter vector and one observation; batched
    evaluations call them once per row.  The Hessian callable is required
    even though the iteration itself only consumes gradients: the streaming
    curvature average needs it, and making it mandatory keeps inference
    available for every model.  Output shapes are validated on every
    evaluation, so a mismatch surfaces at the first call rather than deep
    inside the estimator.
    """

    def __init__(
        self,
        p: int,
        obs_dim: int,
        loss_fn: Callable[[np.ndarray, np.ndarray], float],
        gradient_fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
        hessian_fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
    ):
        self.param_dim = _positive_dim(p)
        self.obs_dim = _positive_dim(obs_dim)
        self._loss_fn = loss_fn
        self._gradient_fn = gradient_fn
        self._hessian_fn = hessian_fn

    def _rows(self, what: str, fn, theta, z, shape: tuple[int, ...]):
        z = np.broadcast_to(z, theta.shape[:-1] + z.shape[-1:])  # a pair shares z
        out = np.empty(theta.shape[:-1] + shape)
        for row in np.ndindex(theta.shape[:-1]):
            value = np.asarray(fn(theta[row], z[row]), dtype=float)
            if value.shape != shape:
                raise DimensionError(
                    f"{what} callable returned shape {value.shape}, expected {shape}"
                )
            out[row] = value
        return out[()]

    def _loss(self, theta, z):
        return self._rows("loss", self._loss_fn, theta, z, ())

    def _gradient(self, theta, z):
        return self._rows("gradient", self._gradient_fn, theta, z, (self.param_dim,))

    def _hessian(self, theta, z):
        p = self.param_dim
        return self._rows("hessian", self._hessian_fn, theta, z, (p, p))


#: Model families constructible from a name and a parameter dimension.
MODEL_FAMILIES: dict[str, type[LossModel]] = {
    "mean": MeanModel,
    "linear": LinearModel,
    "logistic": LogisticModel,
}
