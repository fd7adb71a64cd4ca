"""Online projected-SGD state machine with iterate averaging.

An ``EstimatorState`` advances one stream, or a stack of independent streams
in lockstep: the shape of ``theta0`` without its last axis is the batch
shape, so a CSV fit is a ``(p,)`` state and a Monte Carlo cell is a single
``(R, p)`` state.  Call ``step`` once per observation, in order.  Each step
projects the gradient update back onto the affine feasible set and folds the
new iterate into the running average; only this part is sequential.  The
curvature and gradient-outer-product averages that inference consumes later
are plain averages over the path of running averages: ``step`` folds them in
per row, and the Monte Carlo lockstep (``simulate``) advances a whole block
at once (``_advance_block``): it moves the block, averages it with one
cumulative sum and folds it.  States may be handed between threads between
steps; distinct states (for example the constrained and unconstrained sides
of a specification test) can advance fully in parallel.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass

import numpy as np

from .exceptions import ApsgdError, DimensionError, DomainError, NumericalError
from .linalg import Constraint
from .models import LossModel, _gram, _outer

#: The per-stream arrays of a state; their leading axes are the batch shape.
_STREAM_ARRAYS = ("theta", "theta_bar", "g_hat", "s_hat")


@dataclass(frozen=True)
class LearningRate:
    """Polynomial decay ``gamma * t**(-rho)``.

    ``rho`` must lie strictly inside (1/2, 1); that decay window is what the
    averaged iterate's root-T asymptotics require.
    """

    gamma: float = 1.0
    rho: float = 0.505

    def __post_init__(self):
        if not self.gamma > 0.0:
            raise DomainError(f"gamma must be positive, got {self.gamma}")
        if not 0.5 < self.rho < 1.0:
            raise DomainError(f"rho must lie strictly in (1/2, 1), got {self.rho}")

    def at(self, t: int) -> float:
        """Step size used for the t-th update (t starts at 1)."""
        return self.gamma * float(t) ** -self.rho


class EstimatorState:
    """Iterate, running average, and moment recursions for a batch of streams.

    Parameters
    ----------
    model : LossModel
        Loss with gradient and Hessian.
    constraint : Constraint
        Feasible set; use ``Constraint.unconstrained(p)`` for plain averaged
        SGD.
    schedule : LearningRate, optional
        Defaults to ``gamma=1, rho=0.505``.
    theta0 : array-like, optional
        Starting point of shape ``(..., p)``; it is projected onto the
        feasible set, and its leading axes set the batch shape.  Defaults to
        the constraint's minimum-norm feasible point (a single stream), so
        feasibility holds from step zero.

    Attributes
    ----------
    t : int
        Number of observations consumed by each stream.
    theta : ndarray, shape (..., p)
        Current iterate (always feasible).
    theta_bar : ndarray, shape (..., p)
        Running average of the iterates; this is the estimate.
    g_hat, s_hat : ndarray, shape (..., p, p)
        Streaming averages of per-observation Hessians and of gradient outer
        products, both evaluated at the running average.

    ``theta_bar``, ``g_hat`` and ``s_hat`` are updated in place by every
    step; copy them to keep a trajectory.

    ``step`` re-projects every iterate onto the feasible set.  The lockstep
    (``_move_block``) moves a feasible iterate along the projected gradient
    instead, so its iterates stay feasible up to rounding, and computes a
    block's averages with one cumulative sum; both agree with ``step`` to
    a few ulps.

    A ``NumericalError`` names the step at which a gradient or a moment first
    went non-finite, and the state is then not meant to be resumed.  After a
    non-finite gradient at step ``s``, everything still describes step
    ``s - 1``, also when the lockstep's ``_advance_block`` finds it in the
    middle of a block; it still folds the moments of the rows before ``s``,
    so a moment that went non-finite earlier is the error reported.  After a
    non-finite moment, ``t``, ``theta`` and ``theta_bar`` have moved on (to
    ``s`` in ``step``; in ``_advance_block``, to the end of the block or to
    the step before a non-finite gradient in it), while ``g_hat`` and
    ``s_hat`` hold the averages before the failed fold: up to step ``s - 1``
    in ``step``, up to the end of the previous block in ``_advance_block``.
    """

    def __init__(
        self,
        model: LossModel,
        constraint: Constraint,
        schedule: LearningRate | None = None,
        theta0=None,
    ):
        p = model.param_dim
        if constraint.p != p:
            raise DimensionError(
                f"constraint is on R^{constraint.p} but model has {p} parameters"
            )
        self.model = model
        self.constraint = constraint
        self.schedule = schedule if schedule is not None else LearningRate()
        theta = np.array(constraint.c if theta0 is None else theta0, dtype=float)
        if theta.shape[-1:] != (p,):
            raise DimensionError(f"theta0 has shape {theta.shape}, expected (..., {p})")
        self.t = 0
        self.theta = constraint.project(theta)
        self.theta_bar = self.theta.copy()
        self.g_hat = np.zeros(theta.shape + (p,))
        self.s_hat = np.zeros(theta.shape + (p,))

    def __getitem__(self, index) -> "EstimatorState":
        """The streams at ``index`` of the batch, as an independent state."""
        part = copy.copy(self)
        for name in _STREAM_ARRAYS:
            setattr(part, name, getattr(self, name)[index].copy())
        return part

    @classmethod
    def concatenate(cls, states) -> "EstimatorState":
        """Join batched states along their first batch axis.

        The states must share ``t``, model, constraint and schedule, as the
        replication chunks of one Monte Carlo cell do.
        """
        joined = copy.copy(states[0])
        for name in _STREAM_ARRAYS:
            setattr(joined, name, np.concatenate([getattr(s, name) for s in states]))
        return joined

    def step(self, z) -> "EstimatorState":
        """Consume one observation per stream and return the (mutated) state.

        ``z`` has shape ``batch_shape + (obs_dim,)``; the model's checked
        ``gradient`` and ``hessian`` validate it.  Order of operations:
        projected iterate update, then the average, then the moments
        evaluated at the new average and folded in with weight ``1/t``.
        """
        model = self.model
        self._move(z, model.gradient)
        hess = model.hessian(self.theta_bar, z)
        grad = model.gradient(self.theta_bar, z)
        self._fold(1, hess, grad[..., :, None] @ grad[..., None, :])
        return self

    def _move(self, z, gradient) -> None:
        """One projected SGD step and one update of the average: the only
        sequential part of the recursion.  ``gradient`` evaluates the model
        (``step`` passes its checked public method)."""
        t = self.t + 1
        grad = gradient(self.theta, z)
        if not np.isfinite(grad).all():
            raise NumericalError(f"non-finite gradient at step {t} (theta={self.theta.tolist()})")
        self.theta = self.constraint.project(self.theta - self.schedule.at(t) * grad)
        self.theta_bar *= (t - 1.0) / t
        self.theta_bar += (1.0 / t) * self.theta
        self.t = t

    def _advance_block(self, block: np.ndarray, path: np.ndarray) -> None:
        """Advance every stream over the rows of a validated ``(n, ..., obs_dim)``
        block: ``_move_block``, then ``_fold_path`` over the rows it moved.

        The fold also runs when the move stopped at a non-finite gradient, so
        that a moment that went non-finite before it is the error reported.
        """
        t0 = self.t
        try:
            self._move_block(block, path)
        finally:
            moved = self.t - t0
            if moved:
                self._fold_path(path[:moved], block[:moved])

    def _move_block(self, block: np.ndarray, path: np.ndarray) -> None:
        """``_move`` over the rows of a validated block, with the model's
        unchecked gradient kernel; ``path[i]`` ends up holding the average
        after row ``i``.

        Only the iterate is sequential: each row writes ``theta_t`` straight
        into ``path`` (``Constraint._descend``, no re-projection from ``c``).
        One finite check then covers the block, since a non-finite gradient
        always makes its row's iterate non-finite, and one in-place
        cumulative sum turns the iterates into averages.  When a gradient is
        non-finite, the block's gradients are evaluated again along the
        stored path to find the first such row; the state is left after the
        row before it (``path`` holding the averages up to there) and the
        error names its step as ``_move`` does.
        """
        gradient, at, descend = self.model._gradient, self.schedule.at, self.constraint._descend
        t0, n = self.t, len(block)
        path = path[:n]
        theta = self.theta
        for i, z in enumerate(block):
            theta = descend(theta, at(t0 + i + 1), gradient(theta, z), path[i])
        moved = n
        if not np.isfinite(path).all():
            before = np.concatenate([self.theta[None], path[:-1]])
            with np.errstate(all="ignore"):
                finite = np.isfinite(gradient(before, block)).reshape(n, -1).all(1)
            if not finite.all():
                moved = int(np.argmin(finite))
        if moved:
            self.theta = path[moved - 1].copy()
            avg = path[:moved]
            np.cumsum(avg, axis=0, out=avg)
            avg += t0 * self.theta_bar
            steps = np.arange(t0 + 1, t0 + moved + 1, dtype=float)
            avg /= steps.reshape((-1,) + (1,) * (avg.ndim - 1))
            self.theta_bar[...] = avg[-1]
            self.t = t0 + moved
        if moved < n:
            raise NumericalError(
                f"non-finite gradient at step {self.t + 1} (theta={self.theta.tolist()})"
            )

    def _fold_path(self, path: np.ndarray, block: np.ndarray) -> None:
        """Fold the moments of the last ``len(block)`` moved rows, evaluated
        along their stored ``(n, ..., p)`` path of averages."""
        model = self.model
        grad = model._gradient(path, block)

        def first_bad_row() -> int:
            # the first row at which a running sum of either moment is non-finite
            with np.errstate(all="ignore"):
                sums = (np.cumsum(model._hessian(path, block), 0), np.cumsum(_outer(grad), 0))
            finite = [np.isfinite(s).reshape(len(block), -1).all(1) for s in sums]
            return int(np.argmin(finite[0] & finite[1]))

        self._fold(len(block), model._hessian_sum(path, block), _gram(grad, grad), first_bad_row)

    def _fold(self, n: int, hess_sum, outer_sum, first_bad_row=None) -> None:
        """Fold the sums over the last ``n`` moved rows of the Hessians and of
        the gradient outer products, both at the average after each row, into
        ``g_hat`` and ``s_hat``.

        A non-finite sum raises ``NumericalError`` and leaves both untouched.
        The error names step ``t - n + 1 + first_bad_row()``, so a caller
        folding several rows at once passes a function that finds the first
        row whose running sum is non-finite.
        """
        t = self.t
        if not (np.isfinite(hess_sum).all() and np.isfinite(outer_sum).all()):
            row = first_bad_row() if first_bad_row is not None else n - 1
            raise NumericalError(f"non-finite moment update at step {t - n + 1 + row}")
        w_old = (t - n) / t
        w_new = 1.0 / t
        self.g_hat *= w_old
        self.g_hat += w_new * hess_sum
        self.s_hat *= w_old
        self.s_hat += w_new * outer_sum

    def run_stream(self, observations) -> "EstimatorState":
        """Fold ``step`` over an iterable of observations, in order.

        Errors raised by ``step`` are re-raised with the offending
        observation's position prepended.
        """
        _run_streams((self,), observations)
        return self

    # -- snapshot serialization ------------------------------------------------

    def to_record(self) -> dict:
        """Self-describing snapshot of everything except the model.

        The model holds callables and cannot be serialized; supply it again
        to ``from_record``.  Floats survive the JSON round trip exactly.
        """
        con = self.constraint
        return {
            "t": self.t,
            "theta": self.theta.tolist(),
            "theta_bar": self.theta_bar.tolist(),
            "g_hat": self.g_hat.tolist(),
            "s_hat": self.s_hat.tolist(),
            "constraint": {
                "B": con.B.tolist(),
                "b": con.b.tolist(),
                "P": con.P.tolist(),
                "c": con.c.tolist(),
                "d": con.d,
            },
            "schedule": {"gamma": self.schedule.gamma, "rho": self.schedule.rho},
        }

    @classmethod
    def from_record(cls, record: dict, model: LossModel) -> "EstimatorState":
        """Rebuild a snapshot produced by ``to_record``."""
        con_rec = record["constraint"]
        p = model.param_dim
        constraint = Constraint(
            B=np.asarray(con_rec["B"], dtype=float).reshape(-1, p),
            b=np.asarray(con_rec["b"], dtype=float).reshape(-1),
            P=np.asarray(con_rec["P"], dtype=float),
            c=np.asarray(con_rec["c"], dtype=float),
            d=int(con_rec["d"]),
        )
        theta = np.array(record["theta"], dtype=float)
        state = cls(model, constraint, LearningRate(**record["schedule"]), theta0=theta)
        state.t = int(record["t"])
        # the stored iterate is feasible already; keep its exact bits
        state.theta = theta
        for name in _STREAM_ARRAYS[1:]:
            value = np.array(record[name], dtype=float)
            expected = getattr(state, name).shape
            if value.shape != expected:
                raise DimensionError(f"{name} has shape {value.shape}, expected {expected}")
            setattr(state, name, value)
        return state

    def to_json(self) -> str:
        return json.dumps(self.to_record())

    @classmethod
    def from_json(cls, text: str, model: LossModel) -> "EstimatorState":
        return cls.from_record(json.loads(text), model)


def _run_streams(states, observations) -> None:
    """``step`` every state in ``states`` on each observation in turn.

    An ``ApsgdError`` is re-raised with the observation's position prepended.
    """
    for idx, z in enumerate(observations):
        try:
            for state in states:
                state.step(z)
        except ApsgdError as exc:
            raise type(exc)(f"observation {idx}: {exc}") from exc
