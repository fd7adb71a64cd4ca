"""Online projected-SGD state machine with iterate averaging.

An ``EstimatorState`` advances one stream, or a stack of independent streams
in lockstep: the shape of ``theta0`` without its last axis is the batch
shape, so a CSV fit is a ``(p,)`` state and a Monte Carlo cell a single
``(R, p)`` state.  Every caller advances over blocks of at most ``_BLOCK``
rows: a CSV stream through ``run_stream``, and the Monte Carlo lockstep
(``simulate``), which hands each drawn block to every state of a cell,
through ``_advance_block``.  Within a block only the iterate is sequential:
the model's ``_walk`` moves the iterates over the block along the projected
gradient, row by row (by numpy calls per row, or for a single small linear
or logistic stream by one generated Python function over the block's rows
as floats), one cumulative sum turns them into running averages, and the
model's ``_moment_sums`` sums the block's curvatures and gradient outer
products along those averages, which are folded into the averages that
inference consumes later.  All three steps work in one reused
``(_BLOCK, ..., p)`` buffer, the path, so a block needs no other array of
its size than its observations.  A block that fails is advanced again row
by row.  States may be handed between threads between blocks.
"""

from __future__ import annotations

import copy
import operator
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .exceptions import ApsgdError, DataError, DimensionError, DomainError, NumericalError
from .linalg import Constraint
from .models import _BLOCK, LossModel

#: The per-stream arrays of a state; their leading axes are the batch shape.
_STREAM_ARRAYS = ("theta", "theta_bar", "g_hat", "s_hat")


@dataclass(frozen=True)
class LearningRate:
    """Polynomial decay ``gamma * t**(-rho)``.

    ``gamma`` must be positive and finite, and ``rho`` must lie strictly
    inside (1/2, 1); that decay window is what the averaged iterate's root-T
    asymptotics require.
    """

    gamma: float = 1.0
    rho: float = 0.505

    def __post_init__(self):
        if not 0.0 < self.gamma < np.inf:
            raise DomainError(f"gamma must be positive and finite, got {self.gamma}")
        if not 0.5 < self.rho < 1.0:
            raise DomainError(f"rho must lie strictly in (1/2, 1), got {self.rho}")

    def at(self, t: int) -> float:
        """Step size used for the t-th update (t starts at 1)."""
        return self.gamma * float(t) ** -self.rho

    def steps(self, t0: int, n: int) -> np.ndarray:
        """The step sizes of updates ``t0 + 1`` to ``t0 + n``, equal to ``at``
        bit for bit: each power is Python's, and numpy only multiplies."""
        powers = map(pow, range(t0 + 1, t0 + n + 1), repeat(-self.rho))
        return self.gamma * np.fromiter(powers, float, n)


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
    block; copy them to keep a trajectory.

    The engine never re-projects from ``c``: it moves a feasible iterate
    along the projected gradient with the model's ``LossModel._walk`` (for
    the regression families, a weight times a direction ``gamma_t x_t P``
    computed once per block), so its iterates stay feasible up to rounding.
    A single ``(p,)`` stream of those families, for small ``p``, sums each
    margin in row order where a batched state takes ``np.vecdot``, so the
    two round differently, by a few ulps of the largest iterate.  How a
    stream is cut into blocks changes its averages and moments by a few ulps
    only, and a single stream's iterates not at all, as long as every block
    walks by the same route.

    The engine sums a block's moments with the model's
    ``LossModel._moment_sums`` (for the regression families, from one margin
    per row, with the weighted rows written into the path buffer of running
    averages), so a block holds no array of its size beyond its observations
    and that buffer.

    One rule locates every error: a block that fails is advanced again one
    row at a time.  An error at step ``s`` (a bad observation, or a gradient,
    iterate or moment gone non-finite) names ``s`` and leaves the state
    after step ``s - 1``, whatever the block size.
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
        """The streams at ``index`` of the batch as a state."""
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

    def run_stream(self, blocks) -> "EstimatorState":
        """Advance every stream over an iterable of observation blocks, in order.

        Each block has shape ``(n, *batch_shape, obs_dim)`` and is advanced
        ``_BLOCK`` rows at a time by ``_advance_block``.  An error leaves the
        state after the row before the offending one, and is re-raised with
        that row's position in the stream prepended.
        """
        start = self.t
        path = np.empty((_BLOCK,) + self.theta.shape)
        for block in blocks:
            for lo in range(0, len(block), _BLOCK):
                try:
                    self._advance_block(block[lo : lo + _BLOCK], path)
                except ApsgdError as exc:
                    raise type(exc)(f"observation {self.t - start}: {exc}") from exc
        return self

    def _advance_block(self, rows, path: np.ndarray) -> None:
        """Advance every stream over ``rows``, an ``(n, ..., obs_dim)`` block
        of at most ``len(path)`` rows: at once, or again one row at a time if
        that raises (the class's error rule)."""
        try:
            return self._commit_block(rows, path)
        except ApsgdError:
            if len(rows) == 1:
                raise
        # replayed outside the handler, so that an error does not chain the block's
        for i in range(len(rows)):
            self._commit_block(rows[i : i + 1], path)

    def _commit_block(self, rows, path: np.ndarray) -> None:
        """Validate ``rows`` with the model's ``_check_obs`` and walk them; the
        model's ``_walk`` writes each iterate into ``path``, and one in-place
        cumulative sum turns them into running averages, along which the
        model's ``_moment_sums`` sums the block's moments, overwriting
        ``path`` (so the last average is copied first).  The state changes
        only once all of these are finite.  An error names step ``t + 1``,
        which is exact for a one-row block.
        """
        model, con, t0 = self.model, self.constraint, self.t
        block = model._check_obs(rows, (len(rows), *self.theta.shape[:-1]))
        n = len(block)
        path = path[:n]
        steps = self.schedule.steps(t0, n)
        P = None if con.d == con.p else con.P
        with np.errstate(over="ignore", invalid="ignore"):
            model._walk(self.theta, block, P, steps, path)
            last = path[-1].copy()
            np.cumsum(path, axis=0, out=path)
            path += t0 * self.theta_bar
            counts = np.arange(t0 + 1, t0 + n + 1, dtype=float)
            path /= counts.reshape((-1,) + (1,) * (path.ndim - 1))
            if not np.isfinite(path).all():
                raise NumericalError(self._path_fault(block[0], last))
            average = path[-1].copy()
            hess_sum, outer_sum = model._moment_sums(path, block)
        if not (np.isfinite(hess_sum).all() and np.isfinite(outer_sum).all()):
            raise NumericalError(f"non-finite moment update at step {t0 + 1}")
        t = self.t = t0 + n
        self.theta = last
        self.theta_bar[...] = average
        w_old = t0 / t
        w_new = 1.0 / t
        self.g_hat *= w_old
        self.g_hat += w_new * hess_sum
        self.s_hat *= w_old
        self.s_hat += w_new * outer_sum

    def _path_fault(self, z, theta) -> str:
        """Why the iterate ``theta`` after observation ``z``, at step ``t + 1``,
        or the running average with it is not finite: a non-finite gradient,
        a finite one whose update overflows, or an overflowing average."""
        with np.errstate(all="ignore"):
            gradient = self.model._gradient(self.theta, z)
        if not np.isfinite(gradient).all():
            what = "gradient"
        else:
            what = "running average" if np.isfinite(theta).all() else "iterate"
        return f"non-finite {what} at step {self.t + 1} (theta={self.theta.tolist()})"

    # -- snapshot serialization ------------------------------------------------

    def to_record(self) -> dict:
        """Self-describing snapshot of everything except the model.

        For a state of batch shape ``S`` and ``m`` constraint rows, the
        record holds ``t`` (int), ``theta`` and ``theta_bar`` (``(*S, p)``),
        ``g_hat`` and ``s_hat`` (``(*S, p, p)``), ``constraint``
        ``{B: (m, p), b: (m,)}`` and ``schedule`` ``{gamma, rho}``, as nested
        lists.  The constraint's geometry (``P``, ``c``, ``d``, ``U``,
        ``V``) is not stored; ``from_record`` derives it again from ``B`` and
        ``b``.  The model holds callables and cannot be serialized; supply it
        again to ``from_record``.  Floats survive the JSON round trip exactly.
        """
        con = self.constraint
        return {
            "t": self.t,
            **{name: getattr(self, name).tolist() for name in _STREAM_ARRAYS},
            "constraint": {"B": con.B.tolist(), "b": con.b.tolist()},
            "schedule": {"gamma": self.schedule.gamma, "rho": self.schedule.rho},
        }

    @classmethod
    def from_record(cls, record: dict, model: LossModel) -> "EstimatorState":
        """Rebuild a snapshot produced by ``to_record``.

        The constraint is built from its ``B`` and ``b`` by
        ``Constraint.from_equalities`` (the ``P``, ``c`` and ``d`` of older
        records are ignored), and each stream array must have the shape that
        the model and the batch give it.  A missing entry, one of the wrong
        type, or a negative ``t`` raises ``DataError`` naming it, as does a
        record of the two-stream state that older versions wrote for the
        specification test.
        """
        if record.get("paired"):
            raise DataError(
                "paired records (both streams of a specification test) no longer load"
            )

        def read(name, convert, value):
            try:
                return convert(value)
            except (TypeError, ValueError) as exc:
                raise DataError(f"record entry {name!r} is malformed: {exc}") from exc

        def count(entry):
            t = operator.index(entry)
            if t < 0:
                raise ValueError(f"{t} is negative")
            return t

        def equalities(entry):
            B = np.asarray(entry["B"], dtype=float).reshape(-1, model.param_dim)
            return Constraint.from_equalities(B, entry["b"])

        try:
            constraint = read("constraint", equalities, record["constraint"])
            schedule = read("schedule", lambda entry: LearningRate(**entry), record["schedule"])
            t = read("t", count, record["t"])
            arrays = {
                name: read(name, lambda entry: np.array(entry, dtype=float), record[name])
                for name in _STREAM_ARRAYS
            }
        except KeyError as exc:
            raise DataError(f"record has no {exc.args[0]!r} entry") from exc
        state = cls(model, constraint, schedule, theta0=arrays["theta"])
        state.t = t
        # the stored arrays replace the fresh ones: the iterate keeps its exact bits
        for name, value in arrays.items():
            expected = getattr(state, name).shape
            if value.shape != expected:
                raise DimensionError(f"{name} has shape {value.shape}, expected {expected}")
            setattr(state, name, value)
        return state
