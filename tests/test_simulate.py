"""DGP draws, the lockstep replication engine, and the experiment runners."""

import hashlib
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from apsgd import (
    ConfigError,
    Constraint,
    CustomModel,
    DomainError,
    EstimatorState,
    LearningRate,
    MeanModel,
    NumericalError,
    chi2_quantile,
    efficiency_gap,
    local_power,
)
from apsgd.simulate import (
    _BLOCK,
    _draw_replications,
    PRESETS,
    DgpSpec,
    ExperimentConfig,
    draw_block,
    full_scale,
    parse_config_text,
    replicate_streams,
    replication_rng,
    resolve_config,
    run_experiment,
)


class TestDraws:
    def test_linear_moments(self):
        """E y = 0 and Var y = |theta|^2 + 9 for the four-covariate DGP."""
        dgp = PRESETS["linear"].spec(0.0)
        rng = replication_rng(1, 0, 0)
        ys = draw_block(dgp, rng, 1_000_000)[:, 0]
        target_var = float(np.sum(np.square(dgp.theta()))) + 9.0
        se_mean = np.sqrt(target_var / ys.size)
        assert abs(ys.mean()) <= 3.0 * se_mean
        assert abs(ys.var() - target_var) <= 0.01 * target_var

    def test_logistic_balance_at_zero(self):
        dgp = DgpSpec(kind="logistic", theta_star=(0.0, 0.0))
        rng = replication_rng(2, 0, 0)
        ys = draw_block(dgp, rng, 100_000)[:, 0]
        assert set(np.unique(ys)) == {-1.0, 1.0}
        assert abs(np.mean(ys == 1.0) - 0.5) <= 3.0 * np.sqrt(0.25 / ys.size)

    def test_blocking_does_not_change_the_stream(self):
        dgp = PRESETS["linear"].spec(0.0)
        one_rng = replication_rng(3, 0, 0)
        one = np.vstack([draw_block(dgp, one_rng, 1)[0] for _ in range(64)])
        whole = draw_block(dgp, replication_rng(3, 0, 0), 64)
        split_rng = replication_rng(3, 0, 0)
        split = np.vstack([draw_block(dgp, split_rng, 20), draw_block(dgp, split_rng, 44)])
        np.testing.assert_array_equal(one, whole)
        np.testing.assert_array_equal(split, whole)

    @pytest.mark.parametrize("seed", [0, 1, 7, 20240502])
    @pytest.mark.parametrize("size", [1, 5, 1280, 4099])
    def test_raw_words_are_the_bounded_integers(self, seed, size):
        """The draws read raw 64-bit words: ``integers(0, 2**53)`` is exactly
        ``random_raw() >> 11`` and consumes one word per value, so a numpy
        release that changes either would change every stream."""
        a, b = replication_rng(seed, 2, 3), replication_rng(seed, 2, 3)
        k = a.integers(0, 1 << 53, size=size)
        np.testing.assert_array_equal(k, b.bit_generator.random_raw(size) >> np.uint64(11))
        assert a.bit_generator.random_raw() == b.bit_generator.random_raw()

    @pytest.mark.parametrize(
        "dgp",
        [
            PRESETS["linear"].spec(0.0),
            PRESETS["logistic"].spec(0.01),
        ],
        ids=["linear", "logistic"],
    )
    def test_lockstep_block_is_stacked_draws(self, dgp):
        """One draw for all replications equals each replication's own
        ``draw_block``, bit for bit, also in a partial block that reuses the
        buffers of a full one."""
        R = 5
        rngs = [replication_rng(8, 1, k) for k in range(R)]
        singles = [replication_rng(8, 1, k) for k in range(R)]
        obs = np.empty((_BLOCK, R, dgp.obs_dim))
        for n in (_BLOCK, 37):
            block = _draw_replications(dgp, rngs, obs[:n])
            expected = np.stack([draw_block(dgp, rng, n) for rng in singles], 1)
            assert block.tobytes() == expected.tobytes()

    def test_no_draws_is_an_empty_block(self):
        dgp = PRESETS["logistic"].spec(0.0)
        rng = replication_rng(9, 0, 0)
        assert draw_block(dgp, rng, 0).shape == (0, dgp.obs_dim)
        assert draw_block(dgp, rng, np.int64(3)).tobytes() == (
            draw_block(dgp, replication_rng(9, 0, 0), 3).tobytes()
        )

    @pytest.mark.parametrize("n", [-1, 2.5, 2.0, "3", None])
    def test_a_draw_count_that_is_no_count_is_a_domain_error(self, n):
        with pytest.raises(DomainError, match="non-negative integer"):
            draw_block(PRESETS["linear"].spec(0.0), replication_rng(9, 0, 0), n)


class TestLockstepMemory:
    """A lockstep cell allocates two block-sized buffers, the observations
    ``obs`` of shape ``(_BLOCK, R, obs_dim)`` and the states' path of shape
    ``(_BLOCK, R, p)``; everything else it allocates per block is
    ``(_BLOCK, R)``-sized, apart from the logistic walk's ``u = -y x``."""

    R = 200

    @pytest.mark.parametrize(
        "kind, constrained", [("linear", False), ("logistic", True)], ids=["linear", "logistic"]
    )
    def test_traced_peak_is_the_observations_and_the_path(self, kind, constrained):
        """The slack is four ``(_BLOCK, R)`` float arrays (1.56 MiB at
        R = 200): the two that a block's moment sums hold at once, plus the
        generators and headroom.  A raw-word buffer of the block's shape, or
        a gradient array of the path's, does not fit in it."""
        preset = PRESETS[kind]
        dgp = preset.spec(0.0)
        con = preset.constraint() if constrained else Constraint.unconstrained(dgp.covariate_dim)
        column = _BLOCK * self.R * 8
        bound = column * (dgp.obs_dim + con.p + 4)
        if kind == "logistic":
            bound += column * con.p
        replicate_streams(dgp, (con,), LearningRate(), T=1, replications=1, base_seed=1)
        tracemalloc.start()
        try:
            replicate_streams(
                dgp, (con,), LearningRate(), T=2 * _BLOCK, replications=self.R, base_seed=1
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, f"traced peak {peak} B exceeds {bound} B"


#: A DGP and a constraint per regression preset, which the lockstep moves
#: with the GLM walk.
LOCKSTEP_CASES = {
    "linear": (PRESETS["linear"].spec(0.0), PRESETS["linear"].constraint()),
    "logistic": (PRESETS["logistic"].spec(0.0), PRESETS["logistic"].constraint()),
}


def assert_lockstep_matches_one_row_blocks(kind, T):
    """The lockstep's blocks of 256 rows by 3 replications reproduce each
    replication's stream advanced in one-row blocks, at 1e-12.

    No DGP draws for the mean model, which takes the default walk
    (gradient, ``P``, step size, subtract): its ``(3, p)`` states run the
    lockstep's block engine over the linear preset's draws with the
    response dropped, stacked as ``_draw_replications`` stacks them."""
    dgp, con = LOCKSTEP_CASES["linear" if kind == "mean" else kind]
    schedule = LearningRate()
    constraints = (con, Constraint.unconstrained(con.p))
    draws = [draw_block(dgp, replication_rng(17, 0, k), T) for k in range(3)]
    if kind == "mean":
        model, draws = MeanModel(con.p), [rows[:, 1:] for rows in draws]
        batch_c, batch_i = (
            EstimatorState(model, constraint, schedule, theta0=np.tile(con.c, (3, 1)))
            .run_stream([np.stack(draws, 1)])
            for constraint in constraints
        )
    else:
        model = dgp.model()
        batch_c, batch_i = replicate_streams(
            dgp, constraints, schedule, T=T, replications=3, base_seed=17, cell=0
        )
    for k in range(3):
        rows = draws[k][:, None]
        seq_c = EstimatorState(model, con, schedule, theta0=con.c).run_stream(rows)
        seq_i = EstimatorState(
            model, Constraint.unconstrained(con.p), schedule, theta0=con.c
        ).run_stream(rows)
        for batch, seq in (
            (batch_c.theta_bar[k], seq_c.theta_bar),
            (batch_c.g_hat[k], seq_c.g_hat),
            (batch_c.s_hat[k], seq_c.s_hat),
            (batch_i.theta_bar[k], seq_i.theta_bar),
            (batch_i.s_hat[k], seq_i.s_hat),
        ):
            np.testing.assert_allclose(batch, seq, rtol=1e-12, atol=1e-14)


def wrapped(model):
    """``model`` behind ``CustomModel``, which moves with the default walk."""
    return CustomModel(model.param_dim, model.obs_dim, model._gradient, model._hessian)


class TestEngineEquivalence:
    @pytest.mark.parametrize("kind", ["linear", "logistic", "mean"])
    def test_lockstep_matches_one_row_blocks(self, kind):
        assert_lockstep_matches_one_row_blocks(kind, T=250)

    @pytest.mark.parametrize("kind", ["linear", "logistic", "mean"])
    def test_multi_block_folds_match_one_row_blocks(self, kind):
        """Two full blocks and a partial one, each folded at once."""
        assert_lockstep_matches_one_row_blocks(kind, T=2 * _BLOCK + 17)

    @pytest.mark.parametrize("kind", ["linear", "logistic"])
    @pytest.mark.parametrize("constrained", [True, False], ids=["constrained", "free"])
    def test_glm_walk_matches_the_default_walk(self, kind, constrained):
        """The family's walk (one direction ``gamma_t x_t P`` per row, computed
        per block) and the default walk of the same loss behind
        ``CustomModel`` (gradient, ``P``, step size per row) agree over two
        full blocks and a partial one."""
        dgp, con = LOCKSTEP_CASES[kind]
        if not constrained:
            con = Constraint.unconstrained(con.p)
        R = 3
        rngs = [replication_rng(19, 0, k) for k in range(R)]
        obs = np.empty((_BLOCK, R, dgp.obs_dim))
        path = np.empty((_BLOCK, R, con.p))
        start = np.tile(con.c, (R, 1))
        family = EstimatorState(dgp.model(), con, theta0=start)
        custom = EstimatorState(wrapped(dgp.model()), con, theta0=start)
        for n in (_BLOCK, _BLOCK, 17):
            block = _draw_replications(dgp, rngs, obs[:n])
            family._advance_block(block, path)
            custom._advance_block(block, path)
        assert family.t == custom.t == 2 * _BLOCK + 17
        for name in ("theta", "theta_bar", "g_hat", "s_hat"):
            np.testing.assert_allclose(
                getattr(family, name), getattr(custom, name), rtol=1e-13, atol=0.0
            )

    @pytest.mark.parametrize("preset_name", ["linear", "logistic"])
    def test_lockstep_stays_feasible_without_reprojection(self, preset_name):
        """The lockstep moves a feasible iterate along ``P``-projected
        gradients and never re-projects from ``c``; rounding drift stays tiny."""
        preset = PRESETS[preset_name]
        con = preset.constraint()
        (state,) = replicate_streams(
            preset.spec(0.0), (con,), LearningRate(), T=20_000, replications=4, base_seed=3
        )
        assert con.violation(state.theta).max() <= 1e-12
        assert con.violation(state.theta_bar).max() <= 1e-12

    def test_worker_count_is_invisible(self):
        """Each stream's chunks from worker processes join along the replication axis."""
        preset = PRESETS["linear"]
        dgp = preset.spec(0.01)
        con = preset.constraint()
        serial, chunked = (
            replicate_streams(
                dgp, (con, Constraint.unconstrained(con.p)), LearningRate(), T=400,
                replications=6, base_seed=21, workers=workers,
            )
            for workers in (1, 3)
        )
        for side, other in zip(serial, chunked):
            assert side.theta.shape == other.theta.shape == (6, 4)
            for name in ("theta", "theta_bar", "g_hat", "s_hat"):
                np.testing.assert_array_equal(getattr(side, name), getattr(other, name))

    @pytest.mark.parametrize("kind, R", [("linear", 200), ("logistic", 20)])
    def test_shared_draws_equal_one_call_per_constraint(self, kind, R):
        """Feeding each drawn block to a constrained and a free state gives
        each state's arrays bit for bit as a call with its constraint alone,
        over two full blocks and a partial one."""
        dgp, con = LOCKSTEP_CASES[kind]
        free = Constraint.unconstrained(con.p)
        args = dict(schedule=LearningRate(), T=2 * _BLOCK + 17, replications=R, base_seed=23)
        both = replicate_streams(dgp, (con, free), **args)
        alone = replicate_streams(dgp, (con,), **args) + replicate_streams(dgp, (free,), **args)
        for shared, single in zip(both, alone, strict=True):
            assert shared.t == single.t == 2 * _BLOCK + 17
            for name in ("theta", "theta_bar", "g_hat", "s_hat"):
                assert getattr(shared, name).tobytes() == getattr(single, name).tobytes()


def failing_step(run):
    """The step named by the ``NumericalError`` that ``run()`` raises."""
    with np.errstate(all="ignore"), pytest.raises(NumericalError) as caught:
        run()
    return int(re.search(r"at step (\d+)", str(caught.value)).group(1))


class TestNonFiniteGradients:
    @pytest.mark.parametrize(
        "marked,what",
        [
            (np.full(2, np.inf), "gradient"),
            # a finite gradient whose update overflows makes theta_17 non-finite
            (np.array([1e308, -1e308]), "iterate"),
        ],
        ids=["inf_gradient", "overflowing_iterate"],
    )
    def test_advance_block_names_the_row_in_a_later_block(self, marked, what):
        """A row of a later block whose iterate goes non-finite is named, and
        the state is left after the step before it, finite."""

        def gradient(theta, z):
            return marked if z[0] > 0.5 else 0.1 * (theta - z)

        model = CustomModel(2, 2, gradient, lambda theta, z: np.eye(2))
        con = Constraint.from_equalities([[1.0, 1.0]], [0.0])
        schedule = LearningRate(gamma=10.0)
        blocks = np.random.default_rng(0).uniform(-0.4, 0.4, size=(2, 10, 3, 2))
        blocks[1, 6, 2, 0] = blocks[1, 8, 0, 0] = 1.0
        path = np.empty((10, 3, 2))

        def advanced(rows):
            state = EstimatorState(model, con, schedule, theta0=np.zeros((3, 2)))
            state._advance_block(blocks[0], path)
            if rows:
                state._advance_block(blocks[1, :rows], path)
            return state

        state = advanced(0)
        with pytest.raises(NumericalError, match=rf"^non-finite {what} at step 17 \(theta="):
            state._advance_block(blocks[1], path)
        before = advanced(6)
        assert state.t == before.t == 16
        for name in ("theta", "theta_bar", "g_hat", "s_hat"):
            assert np.isfinite(getattr(state, name)).all()
            np.testing.assert_allclose(
                getattr(state, name), getattr(before, name), rtol=1e-12, atol=1e-15
            )

        # one-row blocks name the same step and move the same way
        one_row = EstimatorState(model, con, schedule, theta0=np.zeros((3, 2)))

        def advance_rows(rows):
            for z in rows:
                one_row._advance_block(z[None], path)

        assert failing_step(lambda: advance_rows(blocks.reshape(20, 3, 2))) == 17
        assert one_row.t == 16
        np.testing.assert_allclose(one_row.theta, before.theta, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(one_row.theta_bar, before.theta_bar, rtol=1e-12, atol=1e-15)

    def test_lockstep_overflow_raises_without_runtime_warnings(self):
        preset = PRESETS["linear"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="at step 2$"):
                replicate_streams(
                    preset.spec(0.0), (preset.constraint(),), LearningRate(gamma=1e150),
                    T=50, replications=3, base_seed=1,
                )


class TestNonFiniteMoments:
    @pytest.mark.parametrize("gamma,step", [(1e150, 2), (1e300, 1)])
    def test_lockstep_and_one_row_blocks_name_the_same_step(self, gamma, step):
        """An overflowing early step is reported at the row where a moment
        first goes non-finite, whether the moments are folded per row or per
        block (where later rows of the block have already been moved); a
        stream names the observation before that step."""
        preset = PRESETS["linear"]
        dgp = preset.spec(0.0)
        con = preset.constraint()
        schedule = LearningRate(gamma=gamma)

        def one_row(k):
            rows = draw_block(dgp, replication_rng(1, 0, k), 50)[:, None]
            try:
                EstimatorState(dgp.model(), con, schedule).run_stream(rows)
            except NumericalError as exc:
                index, at = re.match(r"observation (\d+): .* at step (\d+)$", str(exc)).groups()
                assert int(index) == int(at) - 1
                raise

        lockstep = failing_step(
            lambda: replicate_streams(dgp, (con,), schedule, T=50, replications=3, base_seed=1)
        )
        assert lockstep == min(failing_step(lambda: one_row(k)) for k in range(3)) == step

    def test_fold_names_the_row_in_a_later_block(self):
        def hessian(theta, z):
            return np.full((2, 2), np.inf) if z[0] > 0.5 else np.eye(2)

        model = CustomModel(2, 2, lambda theta, z: theta - z, hessian)
        block = np.zeros((10, 3, 2))
        block[6, 2, 0] = block[8, 0, 0] = 1.0
        path = np.empty((10, 3, 2))

        def advanced(rows):
            state = EstimatorState(model, Constraint.unconstrained(2), theta0=np.zeros((3, 2)))
            return state.run_stream([np.zeros((20, 3, 2)), block[:rows]])

        state = advanced(0)
        with pytest.raises(NumericalError, match=r"^non-finite moment update at step 27$"):
            state._advance_block(block, path)
        before = advanced(6)
        assert state.t == before.t == 26
        for name in ("theta", "theta_bar", "g_hat", "s_hat"):
            np.testing.assert_allclose(
                getattr(state, name), getattr(before, name), rtol=1e-12, atol=1e-15
            )

    def test_advance_block_folds_the_moved_rows_before_raising(self):
        """In a later block the Hessian goes non-finite at row 3 and the
        gradient at row 7.  The moment's step is the error reported, and the
        state is left after row 2, its moments folded."""

        def gradient(theta, z):
            return np.full(2, np.inf) if z[0] > 0.5 else 0.1 * (theta - z)

        def hessian(theta, z):
            return np.full((2, 2), np.inf) if z[1] > 0.5 else np.eye(2)

        model = CustomModel(2, 2, gradient, hessian)
        con = Constraint.from_equalities([[1.0, 1.0]], [0.0])
        blocks = np.random.default_rng(1).uniform(-0.4, 0.4, size=(2, 10, 3, 2))
        blocks[1, 3, 1, 1] = blocks[1, 7, 2, 0] = 1.0
        path = np.empty((10, 3, 2))

        def advanced(rows):
            state = EstimatorState(model, con, LearningRate(gamma=10.0), theta0=np.zeros((3, 2)))
            state._advance_block(blocks[0], path)
            if rows:
                state._advance_block(blocks[1, :rows], path)
            return state

        state = advanced(0)
        with pytest.raises(NumericalError, match=r"^non-finite moment update at step 14$"):
            state._advance_block(blocks[1], path)
        before = advanced(3)
        assert state.t == before.t == 13
        for name in ("theta", "theta_bar", "g_hat", "s_hat"):
            np.testing.assert_allclose(
                getattr(state, name), getattr(before, name), rtol=1e-12, atol=1e-15
            )


class TestEstimationError:
    def test_constrained_never_worse(self, estimation_cell):
        """Per-coordinate mean error ordering with two MC standard errors of slack."""
        by = {(r.coordinate, r.metric): r for r in estimation_cell.rows}
        for j in range(1, 5):
            con = by[(f"theta{j}", "mae_constrained")]
            unc = by[(f"theta{j}", "mae_unconstrained")]
            slack = 2.0 * np.hypot(con.mc_stderr, unc.mc_stderr)
            assert con.value <= unc.value + slack

    def test_matches_gaussian_theory(self, estimation_cell):
        """Mean |error| tracks s sqrt(2/pi), s^2 being the diagonal of each
        estimator's limiting covariance over T.  At theta* the linear preset
        has G = I and S = 9 I (standard normal features, noise sd 3): the
        unconstrained covariance is G^-1 S G^-1, and the constrained one is
        smaller by ``efficiency_gap``, on the constrained coordinates only
        (the first coordinate is outside the constraint's span, so both
        estimators share its error scale)."""
        T = 50_000
        by = {(r.coordinate, r.metric): r for r in estimation_cell.rows}
        con = PRESETS["linear"].constraint()
        G, S = np.eye(4), 9.0 * np.eye(4)
        uncon_cov = np.linalg.inv(G) @ S @ np.linalg.inv(G)
        con_cov = uncon_cov - efficiency_gap(G, S, con)
        np.testing.assert_allclose(np.diag(con_cov), [9.0, 6.0, 6.0, 6.0], rtol=1e-12)
        scale = np.sqrt(2.0 / np.pi)
        for j in range(1, 5):
            for cov, metric in ((uncon_cov, "mae_unconstrained"), (con_cov, "mae_constrained")):
                row = by[(f"theta{j}", metric)]
                expected = np.sqrt(cov[j - 1, j - 1] / T) * scale
                assert abs(row.value - expected) <= 4.0 * row.mc_stderr

    def test_noise_scale_sanity(self):
        """Shrinking the noise by orders of magnitude shrinks the error likewise.

        Both streams start at the truth.  From the constraint's feasible
        point ``c`` instead, the average would carry a noise-free start-up
        bias of order ``|c - theta*| / T`` that no noise level removes.
        """
        preset = PRESETS["linear"]
        theta_star = preset.spec(0.0).theta()
        T, R = 2000, 20

        def mean_error(noise_sd):
            dgp = replace(preset.spec(0.0), noise_sd=noise_sd)
            rngs = [replication_rng(5, 0, k) for k in range(R)]
            block = _draw_replications(dgp, rngs, np.empty((T, R, dgp.obs_dim)))
            state = EstimatorState(
                dgp.model(), preset.constraint(), LearningRate(),
                theta0=np.tile(theta_star, (R, 1)),
            )
            state._advance_block(block, np.empty((T, R, dgp.covariate_dim)))
            assert state.t == T
            return np.abs(state.theta_bar - theta_star).mean()

        noisy_err, quiet_err = mean_error(3.0), mean_error(1e-8)
        assert noisy_err >= 100.0 * quiet_err > 0.0

class TestCoverage:
    def test_half_level_interval_is_calibrated(self):
        """At alpha = 0.5 the intervals cover about half the time."""
        config = ExperimentConfig(
            mode="coverage", preset="linear", sample_sizes=(5000,),
            replications=150, alpha=0.5, base_seed=6,
        )
        result = run_experiment(config)
        for row in result.rows:
            se = max(row.mc_stderr, np.sqrt(0.25 / 150))
            assert abs(row.value - 0.5) <= 3.5 * se


@pytest.fixture(scope="module")
def size_power_cells():
    """The linear preset at T = 10 000 with R = 1000 (seed 7), under the true
    constraint (r = 0, grid cell 0) and under a local violation r = 0.1 of
    its shifted coordinate (cell 1)."""
    config = ExperimentConfig(
        mode="size_power", preset="linear", sample_sizes=(10_000,),
        replications=1000, base_seed=7, r_grid=(0.0, 0.1),
    )
    return run_experiment(config)


class TestSizePower:
    def test_small_sample_size_is_near_alpha(self, size_power_cells):
        """Rejection under the true constraint stays below 10% (1000 seeds).

        The measured size at T = 1e4 is 0.062, and more than 100 rejections
        in 1000 then have probability below 1e-4; a true size of 0.12 fails
        with probability 0.97.  The mean of kappa, measured at 1.12, is
        pinned within 4 standard errors ``sqrt(2 df / R)`` of a chi-square
        with df = 1, so an oversize that grows or vanishes fails too.
        """
        R = 1000
        row = size_power_cells.rows[0]
        assert row.r == 0.0
        assert row.value <= 0.10
        kappa = size_power_cells.kappa_samples[(10_000, 0.0)]
        assert abs(kappa.mean() - 1.12) <= 4.0 * np.sqrt(2.0 * 1 / R)

    def test_local_power_matches_the_asymptotic_power(self, size_power_cells):
        """The rejection rate under the shift r = 0.1 lies within 3 Monte Carlo
        standard errors of ``local_power``.

        At theta* the linear preset has G = I and S = 9 I, so the test's
        weight matrix is W = 9 (I - P), and a shift r of coordinate 4 is the
        root-T-local violation mu = sqrt(T) (I - P) r e4 (measured: 0.467
        +- 0.016 against 0.486).
        """
        T, r = 10_000, 0.1
        preset = PRESETS["linear"]
        anti = np.eye(4) - preset.constraint().P
        shift = np.zeros(4)
        shift[preset.shift_coordinate] = r
        theory = local_power(np.sqrt(T) * anti @ shift, 9.0 * anti, df=1)
        row = size_power_cells.rows[1]
        assert row.r == r
        assert abs(row.value - theory) <= 3.0 * row.mc_stderr

    def test_power_is_monotone_in_the_shift(self):
        """Rejection frequency non-decreasing in r, two standard errors of slack."""
        config = ExperimentConfig(
            mode="size_power", preset="linear", sample_sizes=(20_000,),
            replications=150, base_seed=8,
            r_grid=(0.0, 0.005, 0.01, 0.015, 0.02, 0.025),
        )
        result = run_experiment(config)
        values = [r.value for r in result.rows]
        errors = [r.mc_stderr for r in result.rows]
        for i in range(len(values) - 1):
            slack = 2.0 * np.hypot(errors[i], errors[i + 1])
            assert values[i + 1] >= values[i] - slack

    def test_kappa_samples_match_reject_rule(self, null_cell):
        kappas = null_cell.kappa_samples[(50_000, 0.0)]
        freq = float(np.mean(kappas > chi2_quantile(0.05, 1)))
        assert freq == pytest.approx(null_cell.rows[0].value, abs=1e-12)


class TestDeskScaleConsistency:
    def test_error_norm_decreases_with_sample_size(self):
        """Median distance to the target shrinks from T=1e4 to T=1e5 (50 seeds)."""
        preset = PRESETS["linear"]
        dgp = preset.spec(0.0)
        con = preset.constraint()
        medians = {}
        for cell, T in enumerate((10_000, 100_000)):
            (moments,) = replicate_streams(
                dgp, (con,), LearningRate(), T=T, replications=50, base_seed=9, cell=cell,
            )
            medians[T] = np.median(
                np.linalg.norm(moments.theta_bar - dgp.theta(), axis=1)
            )
        assert medians[10_000] > medians[100_000]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestGoldenOutputs:
    """Seeded outputs pinned to digests of their bytes; a change that moves
    any bit of the result CSV (rates and mean errors as ``repr``) or of kappa
    fails here."""

    @staticmethod
    def run(mode, preset, R, seed, r_grid):
        return run_experiment(ExperimentConfig(
            mode=mode, preset=preset, sample_sizes=(600,), replications=R,
            base_seed=seed, r_grid=r_grid,
        ))

    def test_linear_size_power_cells(self):
        result = self.run("size_power", "linear", 40, 3, (0.0, 0.05))
        kappa = np.concatenate([result.kappa_samples[key] for key in sorted(result.kappa_samples)])
        assert sha256(result.to_csv_text().encode()) == (
            "9f4bf1e3786ec0d2b39bc626310094948add7a8cfd47523157052c3d3ea92ec5"
        )
        assert sha256(kappa.tobytes()) == (
            "0362042d2c544a9c9002d1a321b6f9ecd7858c5b84ba57da3d333bb33d239c7d"
        )

    def test_linear_estimation_error_cells(self):
        result = self.run("estimation_error", "linear", 40, 3, (0.0, 0.05))
        assert sha256(result.to_csv_text().encode()) == (
            "aec98d2c5bbadfc0ad2d71bd8ee51c97a06256868609b48513f4d5272dd611dc"
        )

    def test_logistic_size_power_cell(self):
        result = self.run("size_power", "logistic", 20, 4, (0.0,))
        assert sha256(result.to_csv_text().encode()) == (
            "b357a39d24c14974bd7a7588263d17e590ad50d4308afb493b6f5e711b8e3674"
        )
        assert sha256(result.kappa_samples[(600, 0.0)].tobytes()) == (
            "5443cc63ee8cf7d3bb3745588b28c0b2e3dbec940b9b81237f09571a6b7fa57c"
        )

    def test_logistic_coverage_cell(self):
        """The cell that reads a constrained logistic stream's moments through
        ``coordinate_report``; its states' ``g_hat`` and ``s_hat`` are pinned
        too, since the CSV rounds them into rates."""
        result = self.run("coverage", "logistic", 20, 5, (0.0,))
        assert sha256(result.to_csv_text().encode()) == (
            "1db637599be23a3a1d3ca127ec507013ee782b96ec32a3aa25dd370ad286a712"
        )
        preset = PRESETS["logistic"]
        (state,) = replicate_streams(
            preset.spec(0.0), (preset.constraint(),), LearningRate(), 600, 20, base_seed=5
        )
        assert sha256(state.g_hat.tobytes()) == (
            "45ec76c6cb6e41b6f0b9ddd4177d53fc45e8586c9775bd3d7fcc24cd8542b84d"
        )
        assert sha256(state.s_hat.tobytes()) == (
            "8232e78e27bdcb757508165987095918ebd334f9a05fc1e73b096773c117165a"
        )

    def test_logistic_shift_size_power_cells(self):
        result = self.run("size_power", "logistic_shift", 20, 6, (0.0, 0.05))
        assert sha256(result.to_csv_text().encode()) == (
            "b6c30da142c81fbea5335ecddc09a0793f86f3a31f0f149766fee2d583fc2446"
        )


class TestDeterminism:
    def test_identical_seeds_identical_results(self):
        config = ExperimentConfig(
            mode="size_power", preset="linear", sample_sizes=(1000,),
            replications=10, base_seed=11, r_grid=(0.0, 0.02),
        )
        a = run_experiment(config)
        b = run_experiment(config)
        assert a.rows == b.rows
        assert a.to_csv_text() == b.to_csv_text()
        for key in a.kappa_samples:
            np.testing.assert_array_equal(a.kappa_samples[key], b.kappa_samples[key])

    def test_worker_count_does_not_change_aggregates(self):
        base = dict(
            mode="estimation_error", preset="linear", sample_sizes=(800,),
            replications=12, base_seed=12,
        )
        serial = run_experiment(ExperimentConfig(**base, workers=1))
        threaded = run_experiment(ExperimentConfig(**base, workers=2))
        assert serial.rows == threaded.rows


class TestConfigs:
    def test_parse_round_trip(self):
        text = """
        # comment
        mode = size_power
        preset = linear
        sample_sizes = 1000, 2000
        replications = 7
        r_grid = 0.0, 0.01
        alpha = 0.1
        base_seed = 3
        """
        config = parse_config_text(text)
        assert config.mode == "size_power"
        assert config.sample_sizes == (1000, 2000)
        assert config.r_grid == (0.0, 0.01)
        assert config.alpha == 0.1

    def test_keys_left_out_keep_the_dataclass_defaults(self):
        """Every field is a key, and a config that leaves keys out gets the
        defaults of ``ExperimentConfig`` (and of ``LearningRate``)."""
        required = "mode = coverage\npreset = linear\nsample_sizes = 10, 20\nreplications = 3\n"
        config = parse_config_text(required)
        assert config == ExperimentConfig("coverage", "linear", (10, 20), 3)
        assert config.schedule() == LearningRate()
        given = dict(alpha=0.1, base_seed=4, r_grid=(0.0, 0.5), gamma=0.5, rho=0.6, workers=2)
        text = required + "".join(
            f"{key} = {', '.join(map(str, value)) if isinstance(value, tuple) else value}\n"
            for key, value in given.items()
        )
        assert parse_config_text(text) == replace(config, **given)

    def test_unknown_key_lists_valid_keys(self):
        with pytest.raises(ConfigError, match="valid keys"):
            parse_config_text("mode = coverage\nbogus = 1")

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="replications"):
            parse_config_text("mode = coverage\npreset = linear\nsample_sizes = 10")

    def test_invalid_values(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(
                mode="coverage", preset="linear", sample_sizes=(100, 50),
                replications=5,
            )
        with pytest.raises(ConfigError):
            ExperimentConfig(
                mode="coverage", preset="linear", sample_sizes=(100,), replications=0
            )
        with pytest.raises(ConfigError):
            ExperimentConfig(
                mode="nope", preset="linear", sample_sizes=(100,), replications=5
            )

    @pytest.mark.parametrize(
        "r_grid", [(), (0.0, 0.0), (0.0, 0.1, -0.0), (float("nan"),), (0.0, float("inf"))]
    )
    def test_r_grid_must_hold_distinct_finite_shifts(self, r_grid):
        """Each shift is one cell keyed ``(T, r)``; a repeat would run twice
        but keep one entry for its statistics and its timing."""
        with pytest.raises(ConfigError, match="r_grid"):
            ExperimentConfig(
                mode="size_power", preset="linear", sample_sizes=(100,), replications=5,
                r_grid=r_grid,
            )

    @pytest.mark.parametrize(
        "line, message",
        [("rho = 0.4", r"rho must lie strictly in \(1/2, 1\), got 0.4"),
         ("gamma = inf", "gamma must be positive and finite, got inf")],
    )
    def test_schedule_is_checked_with_the_config(self, line, message):
        """A bad schedule is named with its file, not when the run starts."""
        text = f"mode = coverage\npreset = linear\nsample_sizes = 10\nreplications = 3\n{line}\n"
        with pytest.raises(ConfigError, match=f"^exp.cfg: {message}$"):
            parse_config_text(text, source="exp.cfg")

    @pytest.mark.parametrize("name", ["missing.cfg", "latin1.cfg", "."])
    def test_unreadable_config_is_a_config_error(self, tmp_path, name):
        (tmp_path / "latin1.cfg").write_bytes("mode = coverage # \xe9\n".encode("latin-1"))
        path = str(tmp_path / name)
        with pytest.raises(ConfigError, match=f"^cannot read config {re.escape(path)}: "):
            resolve_config(path)

    def test_bundled_configs_resolve(self):
        for name in ("table_s1_desk", "table_s2_desk", "figure_s1_desk"):
            config = resolve_config(name)
            assert config.replications >= 100

    def test_full_scale_override(self):
        config = resolve_config("table_s1_desk")
        big = full_scale(config)
        assert big.sample_sizes[-1] == 1_000_000
        assert big.replications == 500


class TestGrid:
    @pytest.mark.parametrize("mode", ["coverage", "estimation_error"])
    def test_every_mode_runs_each_shift(self, mode):
        """Cells are ``(T, r)`` in every mode, and adding a shift leaves the
        rows of the ``r = 0`` cell byte for byte as they were."""
        base = dict(mode=mode, preset="linear", sample_sizes=(300,), replications=5, base_seed=15)

        def csv_lines(**grid):
            return run_experiment(ExperimentConfig(**base, **grid)).to_csv_text().splitlines()

        alone, both = csv_lines(), csv_lines(r_grid=(0.0, 0.05))
        rows = len(alone) - 1
        assert [line.split(",")[3] for line in both[1:]] == ["0.0"] * rows + ["0.05"] * rows
        assert [line for line in both if line.split(",")[3] != "0.05"] == alone


class TestCsvOutput:
    def test_schema_and_layout(self, tmp_path):
        config = ExperimentConfig(
            mode="coverage", preset="linear", sample_sizes=(500,),
            replications=8, base_seed=13,
        )
        result = run_experiment(config)
        path = tmp_path / "out.csv"
        path.write_text(result.to_csv_text())
        lines = path.read_text().splitlines()
        assert lines[0] == "mode,dgp,T,r,coordinate,metric,value,mc_stderr,seed"
        assert len(lines) == 1 + 4  # one row per coordinate
        fields = lines[1].split(",")
        assert fields[0] == "coverage"
        assert fields[1] == "linear"
        assert fields[2] == "500"
        assert fields[5] == "coverage"
        assert fields[8] == "13"

    def test_byte_identical_rewrites(self, tmp_path):
        config = ExperimentConfig(
            mode="estimation_error", preset="linear", sample_sizes=(400,),
            replications=6, base_seed=14,
        )
        one = tmp_path / "a.csv"
        two = tmp_path / "b.csv"
        one.write_text(run_experiment(config).to_csv_text())
        two.write_text(run_experiment(config).to_csv_text())
        assert one.read_bytes() == two.read_bytes()
