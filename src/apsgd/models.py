"""Loss models: the gradient and Hessian kernels of the block engine, over
leading batch axes.

A model knows its parameter dimension ``param_dim`` and the layout of one
observation (``obs_dim``).  Regression observations are the concatenation
``(y, x)`` with the response first.  Every kernel takes ``theta`` of shape
``(..., param_dim)`` and ``z`` of shape ``(..., obs_dim)`` with the same
leading axes, so one call serves a single stream or a stack of replications.
Models are immutable after construction and their evaluations are pure, so
instances are safe to share across threads.
"""

from __future__ import annotations

import functools
import math
import numbers

import numpy as np
from scipy.special import expit

from .exceptions import DataError, DimensionError


class LossModel:
    """Interface: a twice-differentiable loss of (parameters, observation),
    seen through its derivatives only, since the estimator and its inference
    never evaluate the loss itself.

    Subclasses implement the kernels ``_gradient`` and ``_hessian``, which
    return arrays of shape ``(..., p)`` and ``(..., p, p)`` (the Hessian
    symmetric) and do not validate their inputs: the block engine
    (``EstimatorState.run_stream``) calls them on blocks of observations it
    has validated once with ``_check_obs``.  The engine moves its iterates
    over a block with ``_walk`` and sums the block's Hessians and gradient
    outer products with ``_moment_sums``.  Both have generic per-row
    defaults; the linear and logistic families override both, so that no
    per-row gradient or ``(n, ..., p, p)`` Hessian array is built: their
    ``_moment_sums`` takes one margin per row and writes its weighted rows
    into the engine's buffer of running averages, so a block allocates
    nothing of the block's size beyond the observations and that buffer.  On
    a single stream (a ``(p,)`` iterate) of at most ``_KERNEL_DIM``
    parameters, the linear and logistic ``_walk`` runs a straight-line
    Python function over the block's rows as floats (``_row_kernel``)
    instead of numpy calls per row.
    """

    param_dim: int
    obs_dim: int
    family: str = "custom"

    def _check_obs(self, z, batch_shape=()) -> np.ndarray:
        """``z`` as floats of shape ``batch_shape + (obs_dim,)``, values checked."""
        z = np.asarray(z, dtype=float)
        if z.shape != (*batch_shape, self.obs_dim):
            raise DimensionError(
                f"observation has shape {z.shape}, "
                f"expected {(*batch_shape, self.obs_dim)}"
            )
        return z

    def _gradient(self, theta: np.ndarray, z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _hessian(self, theta: np.ndarray, z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _moment_sums(self, theta: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The sums over the first axis (the rows of a block) of
        ``_hessian(theta, z)`` and of the gradient outer products, the latter
        as ``_gram(_gradient(theta, z))``.  An override may overwrite
        ``theta``, the engine's buffer of running averages."""
        return self._hessian(theta, z).sum(0), _gram(self._gradient(theta, z))

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

        Every override walks its rows in order, one step per row, so an
        error replayed row by row (``EstimatorState._advance_block``) names
        the step at which the block's walk went bad.
        """
        gradient = self._gradient
        for z, step, row in zip(block, steps, path):
            grad = gradient(theta, z)
            if P is not None:
                grad = grad @ P
            np.multiply(grad, step, out=row)
            theta = np.subtract(theta, row, out=row)


def _positive_dim(p: int) -> int:
    # false for NaN and, through inf % 1, for inf
    if not (isinstance(p, numbers.Real) and p >= 1 and p % 1 == 0):
        raise DimensionError(f"parameter dimension must be a positive integer, got {p}")
    return int(p)


def _outer(x: np.ndarray) -> np.ndarray:
    return x[..., :, None] @ x[..., None, :]


#: Rows per block that the engine moves and folds at once, for CSV streams
#: (which ``ingest`` reads in blocks of this size) and the Monte Carlo
#: lockstep alike.  Larger blocks were no faster and hold more memory: a
#: block, its path of averages and its gradients are ``(_BLOCK, ..., p)``-sized
#: arrays.
_BLOCK = 256


def _row_product(x: np.ndarray, P: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``x @ P`` into ``out``.  A single stream's ``(n, p)`` block of fewer
    than ``_BLOCK`` rows is multiplied as the top of a zero-padded
    ``(_BLOCK, p)`` block: BLAS rounds a row of a short product differently
    from the same row of a full one, and padded, a row's bits do not depend
    on where the stream is cut into blocks or on a replay row by row."""
    if x.ndim == 2 and len(x) < _BLOCK:
        padded = np.zeros((_BLOCK, x.shape[1]))
        padded[: len(x)] = x
        out[...] = (padded @ P)[: len(x)]
        return out
    return np.matmul(x, P, out=out)


def _gram(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """``sum_i outer(a[i], b[i])`` over the first axis, as one batched matmul;
    ``b`` defaults to ``a``."""
    return np.moveaxis(a, 0, -1) @ np.moveaxis(a if b is None else b, 0, -2)


#: The largest parameter dimension whose ``(p,)`` streams walk by
#: ``_row_kernel``.  The kernel's cost per row grows like ``p`` and the numpy
#: row loop's barely does.  In paired runs of 2560-row free streams on one
#: core the kernel was faster in 12 of 12 at p = 16 and 20 in both families,
#: tied at p = 24 (12 of 12 linear, 3 of 12 logistic) and was slower at
#: p = 28 (1 and 0 of 12).
_KERNEL_DIM = 24


@functools.cache
def _row_kernel(weight: str, p: int):
    """A function ``walk(rows, t_0, ..., t_{p-1})`` that takes each row
    ``(y, x_0, ..., x_{p-1}, d_0, ..., d_{p-1})`` of ``rows`` in turn,
    computes the margin ``m = x_0 t_0 + ... + x_{p-1} t_{p-1}`` left to
    right, the scalar ``w`` of the expression ``weight`` in ``y``, ``m`` and
    ``exp`` (``math.exp``), and ``t_k -= w * d_k``; it returns the iterates
    after each row, ``t_0, ..., t_{p-1}``, in one flat list.

    The source is generated once per ``(weight, p)``, as ``dataclasses``
    generates ``__init__``, so that a row costs a few float operations per
    coordinate and no call.  NaN and inf propagate as floats; ``math.exp``
    raises ``OverflowError`` where numpy would return inf.
    """
    t = [f"t{k}" for k in range(p)]
    x = [f"x{k}" for k in range(p)]
    d = [f"d{k}" for k in range(p)]
    source = "\n".join(
        [
            f"def walk(rows, {', '.join(t)}):",
            "    path = []",
            "    extend = path.extend",
            f"    for y, {', '.join(x + d)} in rows:",
            f"        m = {' + '.join(f'{a} * {b}' for a, b in zip(x, t))}",
            f"        w = {weight}",
            *(f"        {a} -= w * {b}" for a, b in zip(t, d)),
            f"        extend(({', '.join(t)},))",
            "    return path",
        ]
    )
    namespace = {"exp": math.exp}
    exec(source, namespace)
    return namespace["walk"]


def _expit_margin(y, x, theta):
    """``s = expit(-y x @ theta)``: the logistic gradient is ``-y s x`` and the
    Hessian's curvature ``s (1 - s)``."""
    return expit(-(y * np.vecdot(x, theta)))


class MeanModel(LossModel):
    """Squared-error location loss ``0.5 * ||z - theta||^2``."""

    family = "mean"

    def __init__(self, p: int):
        self.param_dim = _positive_dim(p)
        self.obs_dim = self.param_dim
        self._eye = np.eye(self.param_dim)
        self._eye.setflags(write=False)

    def _gradient(self, theta, z):
        return theta - z

    def _hessian(self, theta, z):
        return np.broadcast_to(self._eye, theta.shape + (self.param_dim,))


class _GlmModel(LossModel):
    """A regression loss of ``(y, x_1, ..., x_p)`` whose gradient is the
    scalar weight ``_weight(y, x @ theta)`` times ``x``."""

    def __init__(self, p: int):
        self.param_dim = _positive_dim(p)
        self.obs_dim = self.param_dim + 1

    #: ``_weight`` for one row, as a Python expression in the floats ``y`` and
    #: ``m`` (the margin) and ``exp``, for ``_row_kernel``.
    _scalar_weight: str

    @staticmethod
    def _weight(y, margin):
        raise NotImplementedError

    def _gradient(self, theta, z):
        y, x = z[..., 0], z[..., 1:]
        return self._weight(y, np.vecdot(x, theta))[..., None] * x

    def _walk(self, theta, block, P, steps, path) -> None:
        """``LossModel._walk`` for a gradient ``w x``: the step ``steps[i] * g P``
        is ``w`` times the direction ``d_i = steps[i] * x_i P``, which does
        not depend on ``theta``, so one matrix product per block computes
        every direction (``_row_product``).

        A ``(p,)`` stream with ``p <= _KERNEL_DIM`` hands the block and its
        directions to ``_row_kernel`` as one list, with ``_scalar_weight``
        as the weight, and takes its iterates back in one array.  Its
        margins are sums in row order, so they round differently from the
        ``np.vecdot`` of the row loop, in the last digits.  A block on
        which ``math.exp`` overflows, and every other state, takes the
        numpy row loop ``_row_walk``, where the weight saturates."""
        if theta.ndim == 1 and len(theta) <= _KERNEL_DIM:
            x = block[:, 1:]
            directions = (x if P is None else _row_product(x, P, path)) * steps[:, None]
            rows = np.concatenate((block, directions), axis=1).tolist()
            try:
                flat = _row_kernel(self._scalar_weight, len(theta))(rows, *theta.tolist())
            except OverflowError:
                pass
            else:
                path[...] = np.fromiter(flat, float, path.size).reshape(path.shape)
                return
        self._row_walk(theta, block, P, steps, path)

    def _row_walk(self, theta, block, P, steps, path) -> None:
        """``_walk`` by numpy calls per row, for any batch shape.  The
        block's directions are written into ``path`` first; row ``i`` then
        reads its direction from ``path[i]`` and overwrites it with the
        iterate, so no other buffer is needed."""
        weight = self._weight
        y, x = block[..., 0], block[..., 1:]
        directions = x if P is None else _row_product(x, P, path)
        np.multiply(directions, steps.reshape((-1,) + (1,) * (path.ndim - 1)), out=path)
        for y_i, x_i, row in zip(y, x, path):
            np.multiply(weight(y_i, np.vecdot(x_i, theta))[..., None], row, out=row)
            theta = np.subtract(theta, row, out=row)


class LinearModel(_GlmModel):
    """Least-squares regression loss ``0.5 * (y - x @ theta)^2``.

    Observations are ``(y, x_1, ..., x_p)``.
    """

    family = "linear"
    _scalar_weight = "m - y"

    @staticmethod
    def _weight(y, margin):
        return margin - y

    def _hessian(self, theta, z):
        return _outer(z[..., 1:])

    def _moment_sums(self, theta, z):
        """``LossModel._moment_sums`` from one margin per row; the gradient rows
        ``(x @ theta - y) x`` are written into ``theta``."""
        y, x = z[..., 0], z[..., 1:]
        weight = self._weight(y, np.vecdot(x, theta))
        return _gram(x), _gram(np.multiply(weight[..., None], x, out=theta))


class LogisticModel(_GlmModel):
    """Logistic loss ``log(1 + exp(-y * x @ theta))`` with labels in {-1, +1}.

    The gradient weight and the Hessian's curvature go through ``expit``, so
    they stay finite for margins as extreme as ``|x @ theta| = 700``: they
    saturate instead of overflowing.
    """

    family = "logistic"
    _scalar_weight = "-y / (1.0 + exp(y * m))"

    def _check_obs(self, z, batch_shape=()) -> np.ndarray:
        z = LossModel._check_obs(self, z, batch_shape)
        y = z[..., 0]
        bad = np.abs(y) != 1.0
        if np.count_nonzero(bad):
            raise DataError(f"logistic label must be -1 or +1, got {y[bad][0]}")
        return z

    @staticmethod
    def _weight(y, margin):
        return -y * expit(-(y * margin))

    def _row_walk(self, theta, block, P, steps, path) -> None:
        """``_GlmModel._row_walk`` with the label folded into the features: the
        gradient is ``-s y x`` with ``s = expit(-(y x) @ theta)``.

        ``y = +-1``, so ``u = -y x`` is exact, ``s = expit(u @ theta)`` and the
        direction ``steps[i] * (y x_i) P`` is ``-steps[i] * u_i P`` bit for
        bit.  Each row then costs four ufunc calls into preallocated buffers
        and builds no temporary.
        """
        u = block[..., 1:] * -block[..., :1]
        directions = u if P is None else _row_product(u, P, path)
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
        s = _expit_margin(y, x, theta)
        return (s * (1.0 - s))[..., None, None] * _outer(x)

    def _moment_sums(self, theta, z):
        """``LossModel._moment_sums`` from one margin and one ``expit`` per row;
        the Hessian rows ``s (1 - s) x`` and then the gradient rows ``-y s x``
        are written into ``theta``."""
        y, x = z[..., 0], z[..., 1:]
        s = _expit_margin(y, x, theta)
        hess_sum = _gram(np.multiply((s * (1.0 - s))[..., None], x, out=theta), x)
        return hess_sum, _gram(np.multiply((-y * s)[..., None], x, out=theta))


class CustomModel(LossModel):
    """User-supplied gradient and Hessian callables behind the kernels.

    This is the one route for a loss outside ``MODEL_FAMILIES``, and it walks
    by the generic ``LossModel._walk`` and ``_moment_sums``: wrapping a
    family's own ``_gradient`` and ``_hessian`` fits that family by the
    default engine, which is how the tests check the families' overrides
    end to end.  The callables take one parameter vector and one
    observation; batched evaluations call them once per row.  The Hessian
    callable is required even though the iteration itself only consumes
    gradients: the streaming curvature average needs it, and making it
    mandatory keeps inference available for every model.  Output shapes are
    validated on every evaluation, so a mismatch surfaces at the first call
    rather than deep inside the estimator.
    """

    def __init__(self, p: int, obs_dim: int, gradient_fn, hessian_fn):
        self.param_dim = _positive_dim(p)
        self.obs_dim = _positive_dim(obs_dim)
        self._gradient_fn = gradient_fn
        self._hessian_fn = hessian_fn

    def _rows(self, what: str, fn, theta, z, shape: tuple[int, ...]):
        out = np.empty(theta.shape[:-1] + shape)
        for row in np.ndindex(theta.shape[:-1]):
            value = np.asarray(fn(theta[row], z[row]), dtype=float)
            if value.shape != shape:
                raise DimensionError(
                    f"{what} callable returned shape {value.shape}, expected {shape}"
                )
            out[row] = value
        return out

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
