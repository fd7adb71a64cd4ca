"""DGP draws, the lockstep replication engine, and the experiment runners."""

import re

import numpy as np
import pytest

from apsgd import (
    ConfigError,
    Constraint,
    CustomModel,
    EstimatorState,
    LearningRate,
    NumericalError,
    chi2_quantile,
)
from apsgd.simulate import (
    _BLOCK,
    _fold_block,
    PRESETS,
    DgpSpec,
    ExperimentConfig,
    draw,
    draw_block,
    full_scale,
    parse_config_text,
    replicate_streams,
    replication_rng,
    resolve_config,
    run_coverage,
    run_estimation_error,
    run_size_power,
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
        dgp = DgpSpec(kind="logistic", theta_star=(0.0, 0.0), covariate_dim=2)
        rng = replication_rng(2, 0, 0)
        ys = draw_block(dgp, rng, 100_000)[:, 0]
        assert set(np.unique(ys)) == {-1.0, 1.0}
        assert abs(np.mean(ys == 1.0) - 0.5) <= 3.0 * np.sqrt(0.25 / ys.size)

    def test_blocking_does_not_change_the_stream(self):
        dgp = PRESETS["linear"].spec(0.0)
        one_rng = replication_rng(3, 0, 0)
        one = np.vstack([draw(dgp, one_rng) for _ in range(64)])
        whole = draw_block(dgp, replication_rng(3, 0, 0), 64)
        split_rng = replication_rng(3, 0, 0)
        split = np.vstack([draw_block(dgp, split_rng, 20), draw_block(dgp, split_rng, 44)])
        np.testing.assert_array_equal(one, whole)
        np.testing.assert_array_equal(split, whole)

    def test_mean_kind(self):
        dgp = DgpSpec(kind="mean", theta_star=(2.0, -1.0), noise_sd=0.5, covariate_dim=2)
        rng = replication_rng(4, 0, 0)
        zs = draw_block(dgp, rng, 50_000)
        np.testing.assert_allclose(zs.mean(axis=0), [2.0, -1.0], atol=0.02)


def assert_lockstep_matches_steps(preset_name, T):
    """The batched engine reproduces step-by-step states at 1e-12."""
    preset = PRESETS[preset_name]
    dgp = preset.spec(0.0)
    con = preset.constraint()
    schedule = LearningRate()
    batch_c, batch_i = replicate_streams(
        dgp, con, schedule, T=T, replications=3, base_seed=17, cell=0,
        include_unconstrained=True,
    )
    for k in range(3):
        rng = replication_rng(17, 0, k)
        seq_c = EstimatorState(dgp.model(), con, schedule, theta0=con.c)
        seq_i = EstimatorState(
            dgp.model(), Constraint.unconstrained(4), schedule, theta0=con.c
        )
        for _ in range(T):
            z = draw(dgp, rng)
            seq_c.step(z)
            seq_i.step(z)
        for batch, seq in (
            (batch_c.theta_bar[k], seq_c.theta_bar),
            (batch_c.g_hat[k], seq_c.g_hat),
            (batch_c.s_hat[k], seq_c.s_hat),
            (batch_i.theta_bar[k], seq_i.theta_bar),
            (batch_i.s_hat[k], seq_i.s_hat),
        ):
            np.testing.assert_allclose(batch, seq, rtol=1e-12, atol=1e-14)


class TestEngineEquivalence:
    @pytest.mark.parametrize("preset_name", ["linear", "logistic"])
    def test_lockstep_matches_sequential_estimator(self, preset_name):
        assert_lockstep_matches_steps(preset_name, T=250)

    @pytest.mark.parametrize("preset_name", ["linear", "logistic"])
    def test_multi_block_folds_match_sequential_estimator(self, preset_name):
        """Two full blocks and a partial one, each folded at once."""
        assert_lockstep_matches_steps(preset_name, T=2 * _BLOCK + 17)

    def test_worker_count_is_invisible(self):
        preset = PRESETS["linear"]
        dgp = preset.spec(0.01)
        con = preset.constraint()
        a, b = replicate_streams(
            dgp, con, LearningRate(), T=400, replications=6, base_seed=21,
            include_unconstrained=True, workers=1,
        )
        a2, b2 = replicate_streams(
            dgp, con, LearningRate(), T=400, replications=6, base_seed=21,
            include_unconstrained=True, workers=3,
        )
        np.testing.assert_array_equal(a.theta_bar, a2.theta_bar)
        np.testing.assert_array_equal(a.s_hat, a2.s_hat)
        np.testing.assert_array_equal(b.g_hat, b2.g_hat)


def failing_step(run):
    """The step named by the ``NumericalError`` that ``run()`` raises."""
    with np.errstate(all="ignore"), pytest.raises(NumericalError) as caught:
        run()
    return int(re.search(r"at step (\d+)", str(caught.value)).group(1))


class TestNonFiniteMoments:
    @pytest.mark.parametrize("gamma,step", [(1e150, 2), (1e300, 1)])
    def test_lockstep_and_step_name_the_same_step(self, gamma, step):
        """An overflowing early step is reported at the row where a moment
        first goes non-finite, whether the moments are folded per row or per
        block (where later rows of the block have already been moved)."""
        preset = PRESETS["linear"]
        dgp = preset.spec(0.0)
        con = preset.constraint()
        schedule = LearningRate(gamma=gamma)

        def sequential(k):
            state = EstimatorState(dgp.model(), con, schedule)
            rng = replication_rng(1, 0, k)
            for _ in range(50):
                state.step(draw(dgp, rng))

        lockstep = failing_step(
            lambda: replicate_streams(dgp, con, schedule, T=50, replications=3, base_seed=1)
        )
        assert lockstep == min(failing_step(lambda: sequential(k)) for k in range(3)) == step

    def test_fold_names_the_row_in_a_later_block(self):
        def hessian(theta, z):
            return np.full((2, 2), np.inf) if z[0] > 0.5 else np.eye(2)

        model = CustomModel(2, 2, lambda theta, z: 0.0, lambda theta, z: theta - z, hessian)
        state = EstimatorState(model, Constraint.unconstrained(2), theta0=np.zeros((3, 2)))
        for z in np.zeros((20, 3, 2)):
            state.step(z)
        block = np.zeros((10, 3, 2))
        block[6, 2, 0] = block[8, 0, 0] = 1.0
        path = np.empty((10, 3, 2))
        for i, z in enumerate(block):
            state._move(z, model._gradient)
            path[i] = state.theta_bar
        g_hat = state.g_hat.copy()
        with pytest.raises(NumericalError, match=r"non-finite moment update at step 27$"):
            _fold_block(state, path, block)
        assert state.t == 30
        np.testing.assert_array_equal(state.g_hat, g_hat)


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
        """Mean |error| tracks s sqrt(2/pi) with the constrained gain on the
        constrained coordinates only (the first coordinate is outside the
        constraint's span, so both estimators share its error scale)."""
        T = 50_000
        by = {(r.coordinate, r.metric): r for r in estimation_cell.rows}
        scale = np.sqrt(2.0 / np.pi)
        expected_uncon = np.sqrt(9.0 / T) * scale
        expected_con_free = np.sqrt(9.0 / T) * scale
        expected_con_tied = np.sqrt(6.0 / T) * scale
        for j in range(1, 5):
            unc = by[(f"theta{j}", "mae_unconstrained")]
            assert abs(unc.value - expected_uncon) <= 4.0 * unc.mc_stderr
            con = by[(f"theta{j}", "mae_constrained")]
            expected = expected_con_free if j == 1 else expected_con_tied
            assert abs(con.value - expected) <= 4.0 * con.mc_stderr

    def test_noise_scale_sanity(self):
        """Shrinking the noise by orders of magnitude shrinks the error likewise."""
        base = ExperimentConfig(
            mode="estimation_error", preset="linear", sample_sizes=(2000,),
            replications=20, base_seed=5,
        )
        noisy = run_estimation_error(base)

        quiet_preset = PRESETS["linear"]
        dgp = DgpSpec(
            kind="linear", theta_star=quiet_preset.theta_base, noise_sd=1e-8,
            covariate_dim=4,
        )
        con, _ = replicate_streams(
            dgp, quiet_preset.constraint(), LearningRate(), T=2000, replications=20,
            base_seed=5, include_unconstrained=False,
        )
        quiet_err = np.abs(con.theta_bar - dgp.theta()).mean()
        noisy_err = np.mean(
            [r.value for r in noisy.rows if r.metric == "mae_constrained"]
        )
        assert noisy_err >= 100.0 * quiet_err


class TestCoverage:
    def test_half_level_interval_is_calibrated(self):
        """At alpha = 0.5 the intervals cover about half the time."""
        config = ExperimentConfig(
            mode="coverage", preset="linear", sample_sizes=(5000,),
            replications=150, alpha=0.5, base_seed=6,
        )
        result = run_coverage(config)
        for row in result.rows:
            se = max(row.mc_stderr, np.sqrt(0.25 / 150))
            assert abs(row.value - 0.5) <= 3.5 * se


class TestSizePower:
    def test_small_sample_size_is_near_alpha(self):
        """Rejection under the true constraint stays below 10% (50 seeds)."""
        config = ExperimentConfig(
            mode="size_power", preset="linear", sample_sizes=(10_000,),
            replications=50, base_seed=7, r_grid=(0.0,),
        )
        result = run_size_power(config)
        assert result.rows[0].value <= 0.10

    def test_power_is_monotone_in_the_shift(self):
        """Rejection frequency non-decreasing in r, two standard errors of slack."""
        config = ExperimentConfig(
            mode="size_power", preset="linear", sample_sizes=(20_000,),
            replications=150, base_seed=8,
            r_grid=(0.0, 0.005, 0.01, 0.015, 0.02, 0.025),
        )
        result = run_size_power(config)
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
            moments, _ = replicate_streams(
                dgp, con, LearningRate(), T=T, replications=50, base_seed=9, cell=cell,
            )
            medians[T] = np.median(
                np.linalg.norm(moments.theta_bar - dgp.theta(), axis=1)
            )
        assert medians[10_000] > medians[100_000]


class TestDeterminism:
    def test_identical_seeds_identical_results(self):
        config = ExperimentConfig(
            mode="size_power", preset="linear", sample_sizes=(1000,),
            replications=10, base_seed=11, r_grid=(0.0, 0.02),
        )
        a = run_size_power(config)
        b = run_size_power(config)
        assert a.rows == b.rows
        assert a.to_csv_text() == b.to_csv_text()
        for key in a.kappa_samples:
            np.testing.assert_array_equal(a.kappa_samples[key], b.kappa_samples[key])

    def test_worker_count_does_not_change_aggregates(self):
        base = dict(
            mode="estimation_error", preset="linear", sample_sizes=(800,),
            replications=12, base_seed=12,
        )
        serial = run_estimation_error(ExperimentConfig(**base, workers=1))
        threaded = run_estimation_error(ExperimentConfig(**base, workers=2))
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

    def test_bundled_configs_resolve(self):
        for name in ("table_s1_desk", "table_s2_desk", "figure_s1_desk"):
            config = resolve_config(name)
            assert config.replications >= 100

    def test_full_scale_override(self):
        config = resolve_config("table_s1_desk")
        big = full_scale(config)
        assert big.sample_sizes[-1] == 1_000_000
        assert big.replications == 500


class TestCsvOutput:
    def test_schema_and_layout(self, tmp_path):
        config = ExperimentConfig(
            mode="coverage", preset="linear", sample_sizes=(500,),
            replications=8, base_seed=13,
        )
        result = run_coverage(config)
        path = tmp_path / "out.csv"
        result.write_csv(str(path))
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
        run_estimation_error(config).write_csv(str(one))
        run_estimation_error(config).write_csv(str(two))
        assert one.read_bytes() == two.read_bytes()
