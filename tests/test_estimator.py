"""Estimator state machine: projections, averaging, recursions, snapshots."""

import json
from math import inf

import numpy as np
import pytest

from apsgd import (
    Constraint,
    CustomModel,
    DataError,
    DimensionError,
    DomainError,
    EstimatorState,
    LearningRate,
    LinearModel,
    LogisticModel,
    MeanModel,
    NumericalError,
)
from apsgd.models import _row_kernel
from apsgd.simulate import PRESETS, draw_block, replication_rng


def dgp1_stream(n, seed=0):
    """``n`` draws of the linear preset as one ``(n, 5)`` block."""
    return draw_block(PRESETS["linear"].spec(0.0), replication_rng(seed, 0, 0), n)


def batched_stream(n, streams, seed=0, preset="linear"):
    """``n`` draws for each of ``streams`` replications, shape (n, streams, obs_dim)."""
    dgp = PRESETS[preset].spec(0.0)
    return np.stack(
        [draw_block(dgp, replication_rng(seed, 0, k), n) for k in range(streams)], axis=1
    )


def blocks(obs, size):
    """``obs`` cut into blocks of ``size`` rows, the last one partial."""
    return [obs[lo : lo + size] for lo in range(0, len(obs), size)]


STREAM_ARRAYS = ("theta", "theta_bar", "g_hat", "s_hat")


def through_json(state, model):
    """``state`` rebuilt from its record after a round trip through JSON text."""
    return EstimatorState.from_record(json.loads(json.dumps(state.to_record())), model)


class TestLearningRate:
    def test_defaults(self):
        lr = LearningRate()
        assert lr.at(1) == 1.0
        assert lr.at(4) == pytest.approx(4.0 ** -0.505)

    @pytest.mark.parametrize("rho", [0.505, 0.6, 0.99])
    @pytest.mark.parametrize("gamma", [1e-3, 0.25, 1.0, 3.7])
    def test_block_steps_equal_at_bit_for_bit(self, gamma, rho):
        schedule = LearningRate(gamma, rho)
        for t0 in (0, 255, 10**6, 2**40):
            want = np.array([schedule.at(t) for t in range(t0 + 1, t0 + 257)])
            assert schedule.steps(t0, 256).tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "gamma,rho", [(0.0, 0.6), (-1.0, 0.6), (inf, 0.6), (1.0, 0.5), (1.0, 1.0), (1.0, 1.3)]
    )
    def test_invalid_parameters(self, gamma, rho):
        """An infinite gamma would fail only at the first step, as a
        non-finite iterate that seems to blame the data."""
        with pytest.raises(DomainError):
            LearningRate(gamma=gamma, rho=rho)


class TestInit:
    def test_default_start_is_feasible_point(self):
        con = Constraint.from_equalities([[1.0, -1.0]], [0.0])
        state = EstimatorState(MeanModel(2), con)
        np.testing.assert_allclose(state.theta, [0.0, 0.0])
        assert state.t == 0
        np.testing.assert_array_equal(state.g_hat, np.zeros((2, 2)))

    def test_start_is_projected(self):
        con = Constraint.from_equalities([[1.0, -1.0]], [0.0])
        state = EstimatorState(MeanModel(2), con, theta0=[3.0, 1.0])
        np.testing.assert_allclose(state.theta, [2.0, 2.0], atol=1e-12)

    def test_unconstrained_start_kept(self):
        v = np.array([0.5, -1.5, 2.0])
        state = EstimatorState(MeanModel(3), Constraint.unconstrained(3), theta0=v)
        np.testing.assert_array_equal(state.theta, v)

    @pytest.mark.parametrize(
        "constraint, theta0, message",
        [
            (Constraint.unconstrained(2), None,
             r"^constraint is on R\^2 but model has 3 parameters$"),
            (Constraint.unconstrained(3), [1.0, 2.0],
             r"^theta0 has shape \(2,\), expected \(\.\.\., 3\)$"),
            (Constraint.unconstrained(3), 1.0,
             r"^theta0 has shape \(\), expected \(\.\.\., 3\)$"),
        ],
        ids=["constraint", "theta0", "scalar_theta0"],
    )
    def test_a_start_of_another_dimension_is_a_dimension_error(self, constraint, theta0, message):
        with pytest.raises(DimensionError, match=message):
            EstimatorState(MeanModel(3), constraint, theta0=theta0)


class TestFirstRow:
    """A block of one row is one projected SGD step."""

    def test_first_step_unconstrained(self):
        # gamma_1 = 1, so theta_1 = z and the average equals it
        state = EstimatorState(
            MeanModel(2), Constraint.unconstrained(2), LearningRate(1.0, 0.505)
        )
        state.run_stream([[[1.0, 2.0]]])
        np.testing.assert_allclose(state.theta, [1.0, 2.0])
        np.testing.assert_allclose(state.theta_bar, [1.0, 2.0])
        assert state.t == 1

    def test_first_step_projected(self):
        con = Constraint.from_equalities([[1.0, -1.0]], [0.0])
        state = EstimatorState(MeanModel(2), con, LearningRate(1.0, 0.505))
        state.run_stream([[[1.0, 2.0]]])
        np.testing.assert_allclose(state.theta, [1.5, 1.5], atol=1e-12)

    def test_zero_gradient_fixed_point(self):
        con = Constraint.from_equalities([[1.0, -1.0]], [0.0])
        state = EstimatorState(MeanModel(2), con, theta0=[1.0, 1.0])
        before = state.theta.copy()
        state.run_stream([[[1.0, 1.0]]])  # observation equals the iterate
        np.testing.assert_allclose(state.theta, before, atol=1e-14)

    def test_moment_recursions_use_new_average(self):
        """s_hat after one step is the outer product of the gradient at theta_bar_1."""
        model = LinearModel(2)
        state = EstimatorState(model, Constraint.unconstrained(2))
        z = np.array([1.0, 0.5, -0.5])
        state.run_stream([[z]])
        g = model._gradient(state.theta_bar, z)
        np.testing.assert_allclose(state.s_hat, np.outer(g, g), atol=1e-14)
        np.testing.assert_allclose(state.g_hat, model._hessian(state.theta_bar, z))


class TestRunStream:
    def test_empty_stream_is_noop(self):
        state = EstimatorState(MeanModel(2), Constraint.unconstrained(2))
        before = state.theta.copy()
        state.run_stream([])
        assert state.t == 0
        np.testing.assert_array_equal(state.theta, before)

    @pytest.mark.parametrize("kind", ["linear", "logistic", "mean"])
    @pytest.mark.parametrize("constrained", [True, False], ids=["constrained", "free"])
    def test_block_size_is_invisible(self, kind, constrained):
        """One-row blocks, two full blocks and a partial one (fed whole), and
        the same rows split over two calls agree at 1e-12."""
        preset = PRESETS["linear" if kind == "mean" else kind]
        con = preset.constraint() if constrained else Constraint.unconstrained(4)
        if kind == "mean":
            model, obs = MeanModel(4), dgp1_stream(2 * 256 + 17)[:, 1:]
        else:
            model = preset.spec(0.0).model()
            obs = draw_block(preset.spec(0.0), replication_rng(1, 0, 0), 2 * 256 + 17)
        whole = EstimatorState(model, con).run_stream([obs])
        split = EstimatorState(model, con).run_stream([obs[:300]]).run_stream([obs[300:]])
        one_row = EstimatorState(model, con).run_stream(blocks(obs, 1))
        for other in (split, one_row):
            assert other.t == whole.t == len(obs)
            for name in STREAM_ARRAYS:
                np.testing.assert_allclose(
                    getattr(other, name), getattr(whole, name), rtol=1e-12, atol=1e-14
                )

    @pytest.mark.parametrize("size", [1, 256])
    def test_errors_carry_observation_index(self, size):
        def bad_gradient(theta, z):
            return np.full(2, np.inf) if z[0] > 0.5 else np.zeros(2)

        model = CustomModel(2, 2, bad_gradient, lambda t, z: np.eye(2))
        state = EstimatorState(model, Constraint.unconstrained(2))
        obs = np.array([np.zeros(2), np.zeros(2), np.zeros(2), np.ones(2)])
        with pytest.raises(NumericalError, match="^observation 3: non-finite gradient at step 4 "):
            state.run_stream(blocks(obs, size))
        assert state.t == 3

    @pytest.mark.parametrize("size", [1, 256])
    def test_non_finite_moment_names_the_observation(self, size):
        """The moment's step is named whether it is folded alone or with
        the rows after it, and the state is left after the row before it."""

        def hessian(theta, z):
            return np.full((2, 2), np.inf) if z[0] > 0.5 else np.eye(2)

        model = CustomModel(2, 2, lambda t, z: t - z, hessian)

        def advanced(rows):
            return EstimatorState(model, Constraint.unconstrained(2)).run_stream(
                [np.zeros((300, 2)), rows]
            )

        obs = np.zeros((40, 2))
        obs[25, 0] = 1.0
        state = advanced(obs[:0])
        with pytest.raises(
            NumericalError, match="^observation 25: non-finite moment update at step 326$"
        ):
            state.run_stream(blocks(obs, size))
        before = advanced(obs[:25])
        assert state.t == before.t == 325
        for name in STREAM_ARRAYS:
            np.testing.assert_allclose(
                getattr(state, name), getattr(before, name), rtol=1e-12, atol=1e-15
            )

    @pytest.mark.parametrize("size", [1, 256])
    def test_a_bad_label_names_the_first_bad_row(self, size):
        obs = dgp1_stream(300)
        obs[:, 0] = 1.0
        obs[[270, 280], 0] = 0.5
        state = EstimatorState(LogisticModel(4), Constraint.unconstrained(4))
        with pytest.raises(
            DataError, match=r"^observation 270: logistic label must be -1 or \+1, got 0.5$"
        ):
            state.run_stream(blocks(obs, size))
        assert state.t == 270

    def test_a_block_sum_that_overflows_is_advanced_row_by_row(self):
        """The Hessians of these four rows sum past the largest float, while
        every running average stays finite: in one block the stream ends
        where it ends in one-row blocks."""
        obs = np.array([[0.0, 1e154, 0.0], [0.0, 1e154, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        free = Constraint.unconstrained(2)
        one_row, whole = (
            EstimatorState(LinearModel(2), free).run_stream(blocks(obs, size)) for size in (1, 4)
        )
        assert whole.t == one_row.t == 4
        assert whole.g_hat[0, 0] == pytest.approx(5e307, rel=1e-12)
        for name in STREAM_ARRAYS:
            np.testing.assert_allclose(
                getattr(whole, name), getattr(one_row, name), rtol=1e-12, atol=0.0
            )

    @pytest.mark.parametrize("size", [1, 7, 256, "lockstep"])
    @pytest.mark.parametrize("fault", ["label", "gradient", "hessian"])
    def test_an_error_leaves_the_state_after_the_row_before(self, fault, size):
        """Row 270 of 300 (of replication 1 in a lockstep block) has a bad
        label, or makes the gradient or the Hessian infinite.  At every block
        size the error names it, and the state equals the state advanced over
        the 270 rows before it."""
        base = LogisticModel(4)

        def gradient(theta, z):
            if fault == "gradient" and z[1] == 7.0:
                return np.full(4, np.inf)
            return base._gradient(theta, z)

        def hessian(theta, z):
            return np.full((4, 4), np.inf) if z[1] == 7.0 else base._hessian(theta, z)

        model = base if fault == "label" else CustomModel(4, 5, gradient, hessian)
        con = PRESETS["logistic"].constraint()
        lockstep = size == "lockstep"
        obs = batched_stream(300, 3, seed=2, preset="logistic")
        obs, theta0 = (obs, np.tile(con.c, (3, 1))) if lockstep else (obs[:, 0], con.c)
        bad = obs[270, 1] if lockstep else obs[270]
        if fault == "label":
            bad[0] = 0.5
        else:
            bad[1] = 7.0
        error, message = {
            "label": (DataError, r"logistic label must be -1 or \+1, got 0.5$"),
            "gradient": (NumericalError, r"non-finite gradient at step 271 \(theta="),
            "hessian": (NumericalError, r"non-finite moment update at step 271$"),
        }[fault]
        state = EstimatorState(model, con, theta0=theta0)
        with pytest.raises(error, match=rf"^observation 270: {message}"):
            state.run_stream([obs] if lockstep else blocks(obs, size))
        before = EstimatorState(model, con, theta0=theta0).run_stream([obs[:270]])
        assert state.t == before.t == 270
        for name in STREAM_ARRAYS:
            np.testing.assert_allclose(
                getattr(state, name), getattr(before, name), rtol=1e-12, atol=1e-15
            )


class TestFeasibilityAlongPath:
    def test_iterates_and_average_stay_feasible(self):
        con = PRESETS["linear"].constraint()
        state = EstimatorState(LinearModel(4), con)
        worst_iterate = 0.0
        worst_average = 0.0
        for block in blocks(dgp1_stream(20_000, seed=4), 1):
            state.run_stream([block])
            worst_iterate = max(worst_iterate, con.violation(state.theta))
            worst_average = max(worst_average, con.violation(state.theta_bar))
        assert worst_iterate <= 1e-8
        assert worst_average <= 1e-8

    @pytest.mark.parametrize("streams", [None, 3], ids=["single", "batched"])
    @pytest.mark.parametrize("gamma", [0.25, 4.0])
    def test_feasibility_scales_with_the_peak_iterate(self, gamma, streams):
        """Away from gamma = 1 a walk rounds relative to the largest iterate
        it carries, which at gamma = 4 overshoots to about 3e6 in its first
        steps: every iterate and average stays within 64 roundings of that
        peak of the feasible set, for a ``(p,)`` and an ``(R, p)`` state."""
        con = PRESETS["linear"].constraint()
        if streams is None:
            obs, theta0 = dgp1_stream(3000, seed=4), None
        else:
            obs, theta0 = batched_stream(3000, streams, seed=4), np.tile(con.c, (streams, 1))
        state = EstimatorState(LinearModel(4), con, LearningRate(gamma), theta0=theta0)
        peak = worst_iterate = worst_average = 0.0
        for block in blocks(obs, 1):
            state.run_stream([block])
            peak = max(peak, np.abs(state.theta).max())
            worst_iterate = max(worst_iterate, np.max(con.violation(state.theta)))
            worst_average = max(worst_average, np.max(con.violation(state.theta_bar)))
        bound = 64 * np.finfo(float).eps * peak
        assert worst_iterate <= bound
        assert worst_average <= bound

    def test_projection_idempotent_along_path(self):
        con = PRESETS["linear"].constraint()
        state = EstimatorState(LinearModel(4), con)
        for z in dgp1_stream(500, seed=5):
            state.run_stream([[z]])
            reprojected = con.project(state.theta)
            assert np.linalg.norm(reprojected - state.theta) <= 1e-10


class TestUnconstrainedReduction:
    @staticmethod
    def plain_sgd(obs):
        """The iterates of plain SGD from 0, with the step
        ``gamma_t (x' theta - y) x`` associated as ``w (gamma_t x)``."""
        schedule = LearningRate()
        theta, path = np.zeros(4), []
        for t, (y, *x) in enumerate(obs, start=1):
            x = np.array(x)
            theta = theta - (np.vecdot(x, theta) - y) * (schedule.at(t) * x)
            path.append(theta)
        return path

    def test_bitwise_equal_to_plain_sgd(self):
        """With P = I, c = 0 the iterate sequence of a batched state, which
        walks row by row, is exactly plain SGD."""
        obs = dgp1_stream(3000, seed=6)
        path = self.plain_sgd(obs)
        free = Constraint.unconstrained(4)
        state = EstimatorState(LinearModel(4), free, theta0=np.zeros((1, 4)))
        for t in range(1000, 3001, 1000):
            state.run_stream([obs[t - 1000 : t, None]])
            assert np.array_equal(state.theta[0], path[t - 1])

    def test_single_stream_equals_plain_sgd(self):
        """A single ``(p,)`` stream sums each margin in row order, where plain
        SGD here takes ``np.vecdot``, so the two agree up to rounding."""
        obs = dgp1_stream(3000, seed=6)
        path = self.plain_sgd(obs)
        state = EstimatorState(LinearModel(4), Constraint.unconstrained(4))
        for t in range(1000, 3001, 1000):
            state.run_stream([obs[t - 1000 : t]])
            np.testing.assert_allclose(state.theta, path[t - 1], rtol=1e-12, atol=0.0)


class TestKernelWalk:
    """A single ``(p,)`` linear or logistic stream walks each block by the
    straight-line Python kernel ``_row_kernel``; a ``(1, p)`` state walks
    the same rows by the numpy row loop of the Monte Carlo lockstep.  Both
    end in the same state up to rounding, and name the same step when a row
    goes bad."""

    @staticmethod
    def case(family, constrained, n, seed=0):
        preset = PRESETS[family]
        con = preset.constraint() if constrained else Constraint.unconstrained(4)
        obs = draw_block(preset.spec(0.0), replication_rng(seed, 0, 0), n)
        return preset.spec(0.0).model(), con, obs

    @staticmethod
    def both(model, con, schedule, chunks):
        """The ``(p,)`` and the ``(1, p)`` state advanced over ``chunks``."""
        kernel = EstimatorState(model, con, schedule)
        loop = EstimatorState(model, con, schedule, theta0=con.c[None])
        return kernel.run_stream(chunks), loop.run_stream([chunk[:, None] for chunk in chunks])

    @pytest.mark.parametrize("size", [1, 17, 256])
    @pytest.mark.parametrize("gamma", [0.25, 1.0, 4.0])
    @pytest.mark.parametrize("constrained", [False, True], ids=["free", "constrained"])
    @pytest.mark.parametrize("family", ["linear", "logistic"])
    def test_kernel_matches_the_numpy_row_loop(self, family, constrained, gamma, size):
        """600 rows from step 1, in blocks of ``size`` rows, so every block
        size meets the first steps' overshoot.

        The kernel sums each margin in row order and ``np.vecdot`` does not,
        so each walk rounds relative to the largest value it carries: a
        running sum its own final size, the iterate the peak of its path.
        Every array agrees at rtol 1e-12, with an absolute allowance of 64
        roundings at that scale.  At gamma <= 1 the path peaks below 20, so
        the allowance is below 3e-13.  At gamma = 4 the linear path peaks
        near 1e7, where the row loop itself strays from a constrained fit's
        feasible set by about 1e-8."""
        model, con, obs = self.case(family, constrained, 600)
        schedule = LearningRate(gamma)
        kernel, loop = self.both(model, con, schedule, blocks(obs, size))
        assert kernel.t == loop.t == 600
        path = np.empty((600, 1, 4))
        P = None if con.d == 4 else con.P
        model._row_walk(con.c[None], obs[:, None], P, schedule.steps(0, 600), path)
        eps = np.finfo(float).eps
        for name in STREAM_ARRAYS:
            want = getattr(loop, name)[0]
            scale = np.abs(path if name == "theta" else want).max()
            np.testing.assert_allclose(
                getattr(kernel, name), want, rtol=1e-12, atol=64 * eps * scale, err_msg=name
            )

    @pytest.mark.parametrize("family", ["linear", "logistic"])
    def test_one_block_walks_as_its_rows_one_at_a_time(self, family):
        """A ``(p,)`` stream's walk is the kernel's, which is sequential, so
        over one 256-row block it ends where 256 one-row blocks end, bit for
        bit.  Without a constraint the directions are elementwise products;
        under one, see ``TestCutInvariance``."""
        model, free, obs = self.case(family, False, 256, seed=5)
        steps = LearningRate(4.0).steps(0, 256)
        whole = np.empty((256, 4))
        model._walk(np.zeros(4), obs, None, steps, whole)
        listed = np.concatenate((obs, obs[:, 1:] * steps[:, None]), axis=1).tolist()
        assert whole.ravel().tolist() == _row_kernel(model._scalar_weight, 4)(listed, *[0.0] * 4)
        rows = np.empty((256, 4))
        theta = np.zeros(4)
        for i in range(256):
            model._walk(theta, obs[i : i + 1], None, steps[i : i + 1], rows[i : i + 1])
            theta = rows[i]
        assert whole.tobytes() == rows.tobytes()

    def test_an_overflowing_margin_takes_the_numpy_row_loop(self):
        """Row 100's margin ``y x @ theta`` is 800, past the 709.78 where
        ``math.exp`` overflows: the kernel raises ``OverflowError``, and the
        block is walked by the numpy row loop, where the weight saturates to
        0, with the same bits."""
        model, free, obs = self.case("logistic", False, 256, seed=6)
        theta = np.array([1.0, 0.0, 0.0, 0.0])
        obs[100] = [1.0, 800.0, 0.0, 0.0, 0.0]
        obs[101:] = [1.0, 0.0, 0.0, 0.0, 0.0]
        steps = LearningRate().steps(0, 256)
        rows = np.concatenate((obs, obs[:, 1:] * steps[:, None]), axis=1).tolist()
        with pytest.raises(OverflowError):
            _row_kernel(model._scalar_weight, 4)(rows[:101], *theta.tolist())
        path, want = np.empty((256, 4)), np.empty((256, 4))
        model._walk(theta, obs, None, steps, path)
        model._row_walk(theta, obs, None, steps, want)
        assert path.tobytes() == want.tobytes()
        assert np.isfinite(path).all()

    @pytest.mark.parametrize("size", [17, 256])
    @pytest.mark.parametrize("constrained", [False, True], ids=["free", "constrained"])
    @pytest.mark.parametrize("family", ["linear", "logistic"])
    def test_a_non_finite_row_names_the_same_step(self, family, constrained, size):
        """Row 300 of 400 holds a NaN: both states name step 300 and are left
        after step 299."""
        model, con, obs = self.case(family, constrained, 400, seed=3)
        obs[299, -1] = np.nan
        kernel = EstimatorState(model, con)
        loop = EstimatorState(model, con, theta0=con.c[None])
        for state, chunks in ((kernel, blocks(obs, size)), (loop, blocks(obs[:, None], size))):
            with pytest.raises(
                NumericalError, match=r"^observation 299: non-finite gradient at step 300 "
            ):
                state.run_stream(chunks)
            assert state.t == 299
        for name in STREAM_ARRAYS:
            np.testing.assert_allclose(
                getattr(kernel, name), getattr(loop, name)[0], rtol=1e-12, atol=1e-14
            )


class TestCutInvariance:
    """A constrained single stream's directions ``x P`` are rows of one
    ``(_BLOCK, p)`` product however its rows are cut, so its iterate keeps
    its bits across block cuts and row-by-row replays.  BLAS promises no
    such thing: a one-row product rounds differently from the same row of a
    256-row one (in most rows at p = 4, in every row at p = 16), and this
    test fails loudly on a BLAS that breaks the padding's invariance.  The
    kernel covers p = 4 and 16, the numpy row loop p = 30."""

    @staticmethod
    def case(family, p, n=600):
        rng = np.random.default_rng(p)
        x = rng.standard_normal((n, p))
        theta = rng.standard_normal(p) / np.sqrt(p)
        if family == "linear":
            y = x @ theta + rng.standard_normal(n)
        else:
            y = np.where(rng.random(n) < 1.0 / (1.0 + np.exp(-x @ theta)), 1.0, -1.0)
        B = rng.standard_normal((2, p))
        con = Constraint.from_equalities(B, B @ theta)
        model = (LinearModel if family == "linear" else LogisticModel)(p)
        return model, con, LearningRate(gamma=1.0 / p), np.column_stack([y, x])

    @pytest.mark.parametrize("p", [4, 16, 30])
    @pytest.mark.parametrize("family", ["linear", "logistic"])
    def test_block_cuts_give_the_same_bits(self, family, p):
        model, con, schedule, obs = self.case(family, p)
        ends = [
            EstimatorState(model, con, schedule).run_stream(blocks(obs, size)).theta
            for size in (1, 17, 256)
        ]
        assert ends[0].tobytes() == ends[1].tobytes() == ends[2].tobytes()

    @pytest.mark.parametrize("p", [4, 16, 30])
    def test_a_replayed_block_equals_the_unfailed_walk(self, p):
        """Row 100 of a 256-row block overflows the iterate: the block is
        replayed row by row and stops after row 99, with the bits of a walk
        over rows 0 to 99 alone."""
        model, con, schedule, obs = self.case("linear", p, n=256)
        obs[100, 1:] = 1e200
        failed = EstimatorState(model, con, schedule)
        with pytest.raises(NumericalError, match="at step 101"):
            failed.run_stream([obs])
        unfailed = EstimatorState(model, con, schedule).run_stream([obs[:100]])
        assert failed.t == unfailed.t == 100
        assert failed.theta.tobytes() == unfailed.theta.tobytes()


class TestRecursiveBatchEquivalence:
    def test_offline_recomputation(self):
        """Running averages equal their batch definitions over the logged path."""
        obs = dgp1_stream(500, seed=7)
        con = PRESETS["linear"].constraint()
        model = LinearModel(4)
        state = EstimatorState(model, con)
        iterates, averages = [], []
        for z in obs:
            state.run_stream([[z]])
            iterates.append(state.theta.copy())
            averages.append(state.theta_bar.copy())
        T = len(obs)
        theta_bar = sum(iterates) / T
        g_batch = sum(model._hessian(avg, z) for avg, z in zip(averages, obs)) / T
        s_batch = (
            sum(
                np.outer(model._gradient(avg, z), model._gradient(avg, z))
                for avg, z in zip(averages, obs)
            )
            / T
        )
        np.testing.assert_allclose(state.theta_bar, theta_bar, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(state.g_hat, g_batch, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(state.s_hat, s_batch, rtol=1e-10, atol=1e-12)


class TestSnapshots:
    def test_json_roundtrip_is_exact(self):
        obs = dgp1_stream(150, seed=8)
        con = PRESETS["linear"].constraint()
        state = EstimatorState(LinearModel(4), con).run_stream([obs])
        restored = through_json(state, LinearModel(4))
        assert restored.t == state.t
        np.testing.assert_array_equal(restored.theta, state.theta)
        np.testing.assert_array_equal(restored.theta_bar, state.theta_bar)
        np.testing.assert_array_equal(restored.g_hat, state.g_hat)
        np.testing.assert_array_equal(restored.s_hat, state.s_hat)
        assert restored.schedule == state.schedule
        np.testing.assert_array_equal(restored.constraint.P, state.constraint.P)

    def test_resume_matches_uninterrupted_run(self):
        obs = dgp1_stream(400, seed=9)
        con = PRESETS["linear"].constraint()
        straight = EstimatorState(LinearModel(4), con).run_stream([obs[:200], obs[200:]])
        first = EstimatorState(LinearModel(4), con).run_stream([obs[:200]])
        resumed = through_json(first, LinearModel(4))
        resumed.run_stream([obs[200:]])
        np.testing.assert_array_equal(resumed.theta_bar, straight.theta_bar)
        np.testing.assert_array_equal(resumed.g_hat, straight.g_hat)
        np.testing.assert_array_equal(resumed.s_hat, straight.s_hat)


    @pytest.mark.parametrize("tamper", [{"d": 4}, {"P": np.eye(4).tolist()}], ids=["d", "P"])
    def test_geometry_is_derived_from_the_equalities(self, tamper):
        """A record's ``P``, ``c`` and ``d`` (written by older versions) are
        ignored: a record that says ``d = 4`` or ``P = I`` under the linear
        preset's constraint still resumes as a constrained fit."""
        obs = dgp1_stream(3000, seed=7)
        con = PRESETS["linear"].constraint()
        record = EstimatorState(LinearModel(4), con).run_stream([obs[:1000]]).to_record()
        record["constraint"].update(
            {"P": con.P.tolist(), "c": con.c.tolist(), "d": con.d}, **tamper
        )
        resumed = EstimatorState.from_record(record, LinearModel(4)).run_stream([obs[1000:]])
        assert resumed.constraint.d == 3
        np.testing.assert_array_equal(resumed.constraint.P, con.P)
        assert resumed.constraint.violation(resumed.theta_bar) <= 1e-12

    def test_record_holds_the_equalities_only(self):
        """A record carries ``B`` and ``b``, not ``P``, ``c`` or ``d``, and
        loads with every stream array and ``P`` bit for bit."""
        model, con = LinearModel(4), PRESETS["linear"].constraint()
        state = EstimatorState(model, con).run_stream([dgp1_stream(300, seed=15)])
        record = state.to_record()
        assert sorted(record) == [
            "constraint", "g_hat", "s_hat", "schedule", "t", "theta", "theta_bar"
        ]
        assert sorted(record["constraint"]) == ["B", "b"]
        restored = EstimatorState.from_record(record, model)
        assert restored.t == 300
        assert restored.constraint.P.tobytes() == con.P.tobytes()
        for name in STREAM_ARRAYS:
            assert getattr(restored, name).tobytes() == getattr(state, name).tobytes()

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda record: {"t": 1}, "record has no 'constraint' entry"),
            (
                lambda record: {**record, "constraint": {"B": record["constraint"]["B"]}},
                "record has no 'b' entry",
            ),
            (
                lambda record: {k: v for k, v in record.items() if k != "s_hat"},
                "record has no 's_hat' entry",
            ),
            (
                lambda record: {**record, "paired": True},
                r"paired records \(both streams of a specification test\) no longer load",
            ),
            (
                lambda record: {**record, "schedule": {"gamma": 1.0, "eta": 0.5}},
                r"record entry 'schedule' is malformed: .*unexpected keyword argument 'eta'",
            ),
            (
                lambda record: {**record, "constraint": [[0.0, 1.0, 1.0, 1.0]]},
                "record entry 'constraint' is malformed: "
                "list indices must be integers or slices, not str",
            ),
            (
                lambda record: {**record, "t": "12"},
                "record entry 't' is malformed: "
                "'str' object cannot be interpreted as an integer",
            ),
            (
                lambda record: {**record, "t": -3},
                "record entry 't' is malformed: -3 is negative",
            ),
            (
                lambda record: {**record, "theta": "zero"},
                "record entry 'theta' is malformed: could not convert string to float: 'zero'",
            ),
        ],
        ids=[
            "only_t", "no_b", "no_s_hat", "paired", "unknown_schedule_key",
            "list_constraint", "string_t", "negative_t", "string_theta",
        ],
    )
    def test_a_bad_record_is_a_data_error(self, edit, message):
        """A record with an entry missing or of the wrong type, a negative
        ``t`` (whose step sizes would be complex), or one of the two-stream
        state that older versions wrote for the specification test, raises
        one ``DataError`` that names the problem."""
        model = LinearModel(4)
        record = edit(EstimatorState(model, PRESETS["linear"].constraint()).to_record())
        with pytest.raises(DataError, match=f"^{message}$"):
            EstimatorState.from_record(record, model)

    @pytest.mark.parametrize(
        "name, shape",
        [("theta_bar", (4,)), ("g_hat", (3, 4)), ("s_hat", (4, 4))],
    )
    def test_stream_arrays_must_match_the_batch(self, name, shape):
        """In a record of three streams (``theta`` of shape ``(3, 4)``), a
        stream array without the batch axis, or with too few axes, raises
        ``DimensionError`` naming it and both shapes."""
        model = LinearModel(4)
        con = PRESETS["linear"].constraint()
        state = EstimatorState(model, con, theta0=np.tile(con.c, (3, 1)))
        record = state.run_stream([batched_stream(20, 3, seed=16)]).to_record()
        record[name] = np.zeros(shape).tolist()
        expected = getattr(state, name).shape
        with pytest.raises(
            DimensionError,
            match=rf"^{name} has shape \({', '.join(map(str, shape))},?\), "
            rf"expected \({', '.join(map(str, expected))}\)$",
        ):
            EstimatorState.from_record(record, model)


class TestBatchedState:
    """A state whose theta0 has leading axes advances that many streams at once."""

    def test_custom_model_matches_single_streams(self):
        lin = LinearModel(4)
        model = CustomModel(4, 5, lin._gradient, lin._hessian)
        con = PRESETS["linear"].constraint()
        obs = batched_stream(200, 3, seed=10)
        batch = EstimatorState(model, con, theta0=np.tile(con.c, (3, 1))).run_stream([obs])
        assert batch.theta.shape == (3, 4) and batch.g_hat.shape == (3, 4, 4)
        for k in range(3):
            single = EstimatorState(model, con).run_stream([obs[:, k]])
            for name in STREAM_ARRAYS:
                np.testing.assert_allclose(
                    getattr(batch[k], name), getattr(single, name), rtol=1e-12, atol=1e-14
                )

    @pytest.mark.parametrize(
        "model, preset", [(LinearModel(4), "linear"), (LogisticModel(4), "logistic")],
        ids=["linear", "logistic"],
    )
    def test_json_roundtrip_and_indexing_are_exact(self, model, preset):
        """Without a projection the batched arithmetic is row-wise, so each
        stream of the batch matches its own run as a batch of one bit for
        bit.  A ``(p,)`` stream walks by the Python kernel instead (see
        ``TestKernelWalk``), so the reference is a ``(1, p)`` state."""
        obs = batched_stream(150, 3, seed=11, preset=preset)
        free = Constraint.unconstrained(4)
        batch = EstimatorState(model, free, theta0=np.zeros((3, 4))).run_stream([obs])
        restored = through_json(batch, model)
        assert restored.t == batch.t == 150
        for name in STREAM_ARRAYS:
            np.testing.assert_array_equal(getattr(restored, name), getattr(batch, name))
        for k in range(3):
            state = EstimatorState(model, free, theta0=np.zeros((1, 4)))
            run = state.run_stream([obs[:, k : k + 1]])[0]
            assert batch[k].t == run.t
            for name in STREAM_ARRAYS:
                np.testing.assert_array_equal(getattr(batch[k], name), getattr(run, name))

    def test_from_record_copies_the_stream_arrays(self):
        model = LinearModel(4)
        obs = batched_stream(20, 2, seed=12)
        record = EstimatorState(
            model, Constraint.unconstrained(4), theta0=np.zeros((2, 4))
        ).run_stream([obs]).to_record()
        record = {k: np.array(v) if k in STREAM_ARRAYS else v for k, v in record.items()}
        kept = {name: record[name].copy() for name in STREAM_ARRAYS}
        EstimatorState.from_record(record, model).run_stream([obs])
        for name in STREAM_ARRAYS:
            np.testing.assert_array_equal(record[name], kept[name])

    def test_non_finite_gradient_in_one_stream_names_the_step(self):
        def gradient(theta, z):
            return np.full(2, np.nan) if z[0] > 0.5 else theta - z

        model = CustomModel(2, 2, gradient, lambda t, z: np.eye(2))
        state = EstimatorState(model, Constraint.unconstrained(2), theta0=np.zeros((3, 2)))
        obs = np.zeros((4, 3, 2))
        obs[2, 1, 0] = 1.0
        with pytest.raises(
            NumericalError, match=r"^observation 2: non-finite gradient at step 3 "
        ):
            state.run_stream([obs])
        assert state.t == 2
