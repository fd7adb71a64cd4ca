"""Seeded data-generating processes and the Monte Carlo experiment runner.

Replication streams are fully reproducible: replication ``k`` of grid cell
``c`` draws from ``PCG64(SeedSequence((base_seed, c, k)))``, and normal
variates are produced by inverse-CDF from open-interval uniforms, so any
implementation of the same documented scheme reproduces the streams.

For throughput the runner advances all replications of a cell in lockstep as
one batched ``(R, p)`` ``EstimatorState``, so a replication runs the same
recursion as a CSV stream.  It works in blocks of ``_BLOCK`` rows: each step
of a block only moves the iterate and its average, whose path it stores, and
the curvature and gradient-outer-product sums of the whole block are then
evaluated along that path with a few batched matmuls and folded in at once.
Chunking the replications over worker processes cannot change any number
because every replication owns its seed.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from importlib import resources

import numpy as np
from scipy.special import expit, ndtri

from .estimator import EstimatorState, LearningRate
from .exceptions import ConfigError, DimensionError, DomainError, NumericalError
from .inference import asymptotic_covariance, test_from_states
from .distributions import normal_quantile
from .linalg import Constraint
from .models import MODEL_FAMILIES, LossModel, _gram, _outer

_TWO53 = float(1 << 53)

#: Rows per replication drawn, moved and folded at a time.  Larger blocks
#: were no faster and hold more memory: the block, its path of averages and
#: its gradients are ``(_BLOCK, R, p)`` arrays.
_BLOCK = 256

#: Full-scale grid used by ``full_scale``; the default configs are
#: desk-scale so the suite finishes in minutes.
FULL_SAMPLE_SIZES = (100_000, 200_000, 500_000, 1_000_000)
FULL_REPLICATIONS = 500


# -- randomness -----------------------------------------------------------------


def uniform_open(rng: np.random.Generator, size) -> np.ndarray:
    """Uniforms on the open interval (0, 1): ``(k + 0.5) / 2**53``.

    ``k`` is a 53-bit integer from the generator, so 0 and 1 are never
    produced and the inverse normal CDF below is always finite.
    """
    return (rng.integers(0, 1 << 53, size=size) + 0.5) / _TWO53


def standard_normal(rng: np.random.Generator, size) -> np.ndarray:
    """Standard normals via inverse CDF of ``uniform_open`` draws."""
    return ndtri(uniform_open(rng, size))


def replication_rng(base_seed: int, cell: int, rep: int) -> np.random.Generator:
    """Generator for replication ``rep`` of grid cell ``cell``.

    This is the documented seed-splitting function: a PCG64 stream keyed by
    ``SeedSequence((base_seed, cell, rep))``.  Being a pure function of its
    arguments, replications can run in any order or in parallel without
    changing a single draw.
    """
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence((base_seed, cell, rep)))
    )


# -- data-generating processes ----------------------------------------------------


@dataclass(frozen=True)
class DgpSpec:
    """One synthetic data-generating process.

    ``kind`` is ``linear`` (gaussian response), ``logistic`` (labels in
    {-1, +1}) or ``mean`` (the observation is the parameter plus noise).
    ``misspec_r`` records the constraint-violation shift already baked into
    ``theta_star`` so experiment outputs can report it.
    """

    kind: str
    theta_star: tuple[float, ...]
    noise_sd: float = 3.0
    misspec_r: float = 0.0
    covariate_dim: int = 4

    def __post_init__(self):
        if self.kind not in ("linear", "logistic", "mean"):
            raise DomainError(f"unknown dgp kind {self.kind!r}")
        if self.covariate_dim != len(self.theta_star):
            raise DimensionError(
                f"covariate_dim {self.covariate_dim} does not match "
                f"theta_star of length {len(self.theta_star)}"
            )
        if not self.noise_sd > 0.0:
            raise DomainError(f"noise_sd must be positive, got {self.noise_sd}")

    @property
    def obs_dim(self) -> int:
        return self.covariate_dim if self.kind == "mean" else self.covariate_dim + 1

    def theta(self) -> np.ndarray:
        return np.asarray(self.theta_star, dtype=float)

    def model(self) -> LossModel:
        return MODEL_FAMILIES[self.kind](len(self.theta_star))


def draw_block(dgp: DgpSpec, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw ``n`` observations as an ``(n, obs_dim)`` array.

    Each observation consumes its covariate uniforms first and one response
    uniform last, in row order, so splitting a stream into blocks of any
    size yields identical observations.
    """
    k = dgp.covariate_dim
    theta = dgp.theta()
    if dgp.kind == "mean":
        u = uniform_open(rng, (n, k))
        return theta + dgp.noise_sd * ndtri(u)
    u = uniform_open(rng, (n, k + 1))
    x = ndtri(u[:, :k])
    lin = np.vecdot(x, theta)
    if dgp.kind == "linear":
        y = lin + dgp.noise_sd * ndtri(u[:, k])
    else:
        y = np.where(u[:, k] < expit(lin), 1.0, -1.0)
    return np.column_stack([y, x])


def draw(dgp: DgpSpec, rng: np.random.Generator) -> np.ndarray:
    """Draw a single observation (see ``draw_block`` for the stream layout)."""
    return draw_block(dgp, rng, 1)[0]


@dataclass(frozen=True)
class DgpPreset:
    """A named DGP plus the equality constraint its experiments test.

    ``shift_coordinate`` is the entry of ``theta_base`` that receives the
    misspecification shift ``r`` in size/power experiments.
    """

    name: str
    kind: str
    theta_base: tuple[float, ...]
    shift_coordinate: int
    constraint_row: tuple[float, ...]
    noise_sd: float = 3.0

    def spec(self, r: float = 0.0) -> DgpSpec:
        theta = list(self.theta_base)
        theta[self.shift_coordinate] += r
        return DgpSpec(
            kind=self.kind,
            theta_star=tuple(theta),
            noise_sd=self.noise_sd,
            misspec_r=r,
            covariate_dim=len(theta),
        )

    def constraint(self) -> Constraint:
        return Constraint.from_equalities([list(self.constraint_row)], [0.0])


#: The two regression DGPs used throughout, plus the alternative logistic
#: parameterisation used for size/power runs (larger first coefficient).
PRESETS: dict[str, DgpPreset] = {
    "linear": DgpPreset(
        name="linear",
        kind="linear",
        theta_base=(1.5, -3.0, 2.0, 1.0),
        shift_coordinate=3,
        constraint_row=(0.0, 1.0, 1.0, 1.0),
    ),
    "logistic": DgpPreset(
        name="logistic",
        kind="logistic",
        theta_base=(1.0, -2.0, -2.0, 1.5),
        shift_coordinate=2,
        constraint_row=(0.0, 1.0, -1.0, 0.0),
    ),
    "logistic_shift": DgpPreset(
        name="logistic_shift",
        kind="logistic",
        theta_base=(3.0, -2.0, -2.0, 1.0),
        shift_coordinate=2,
        constraint_row=(0.0, 1.0, -1.0, 0.0),
    ),
}


# -- configuration -----------------------------------------------------------------

_MODES = ("estimation_error", "coverage", "size_power")

_CONFIG_KEYS = {
    "mode",
    "preset",
    "sample_sizes",
    "replications",
    "alpha",
    "base_seed",
    "r_grid",
    "gamma",
    "rho",
    "workers",
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Grid, replication count, and seeding for one experiment."""

    mode: str
    preset: str
    sample_sizes: tuple[int, ...]
    replications: int
    alpha: float = 0.05
    base_seed: int = 0
    r_grid: tuple[float, ...] = (0.0,)
    gamma: float = 1.0
    rho: float = 0.505
    workers: int = 1

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ConfigError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.preset not in PRESETS:
            raise ConfigError(
                f"preset must be one of {sorted(PRESETS)}, got {self.preset!r}"
            )
        if self.replications < 1:
            raise ConfigError(f"replications must be >= 1, got {self.replications}")
        sizes = self.sample_sizes
        if not sizes or any(t < 1 for t in sizes) or list(sizes) != sorted(set(sizes)):
            raise ConfigError(
                f"sample_sizes must be positive and strictly increasing, got {sizes}"
            )
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not self.r_grid:
            raise ConfigError("r_grid must not be empty")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")

    def schedule(self) -> LearningRate:
        return LearningRate(gamma=self.gamma, rho=self.rho)


def parse_config_text(text: str, source: str = "<config>") -> ExperimentConfig:
    """Parse a flat ``key = value`` config (``#`` starts a comment)."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigError(
                f"{source}:{lineno}: unknown key {key!r}; valid keys are "
                f"{sorted(_CONFIG_KEYS)}"
            )
        raw[key] = value
    missing = {"mode", "preset", "sample_sizes", "replications"} - raw.keys()
    if missing:
        raise ConfigError(f"{source}: missing required keys {sorted(missing)}")
    try:
        return ExperimentConfig(
            mode=raw["mode"],
            preset=raw["preset"],
            sample_sizes=tuple(int(v) for v in raw["sample_sizes"].split(",") if v.strip()),
            replications=int(raw["replications"]),
            alpha=float(raw.get("alpha", "0.05")),
            base_seed=int(raw.get("base_seed", "0")),
            r_grid=tuple(float(v) for v in raw["r_grid"].split(",") if v.strip())
            if "r_grid" in raw
            else (0.0,),
            gamma=float(raw.get("gamma", "1.0")),
            rho=float(raw.get("rho", "0.505")),
            workers=int(raw.get("workers", "1")),
        )
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config_text(handle.read(), source=path)


def bundled_config_names() -> list[str]:
    root = resources.files("apsgd").joinpath("configs")
    return sorted(entry.name[:-4] for entry in root.iterdir() if entry.name.endswith(".cfg"))


def resolve_config(name_or_path: str) -> ExperimentConfig:
    """Load a bundled config by name, or any path to a config file."""
    root = resources.files("apsgd").joinpath("configs").joinpath(f"{name_or_path}.cfg")
    if root.is_file():
        return parse_config_text(root.read_text(encoding="utf-8"), source=name_or_path)
    return load_config(name_or_path)


def full_scale(config: ExperimentConfig) -> ExperimentConfig:
    """Swap the desk-scale grid for the full one (hours of compute)."""
    return replace(
        config,
        sample_sizes=FULL_SAMPLE_SIZES,
        replications=FULL_REPLICATIONS,
    )


# -- lockstep replication engine ---------------------------------------------------


def _advance_chunk(
    dgp: DgpSpec,
    constraint: Constraint,
    schedule: LearningRate,
    T: int,
    reps: range,
    base_seed: int,
    cell: int,
    include_unconstrained: bool,
) -> list[EstimatorState]:
    rngs = [replication_rng(base_seed, cell, k) for k in reps]
    model = dgp.model()
    # both streams start from the constraint's feasible point
    start = np.tile(constraint.c, (len(reps), 1))
    states = [EstimatorState(model, constraint, schedule, theta0=start)]
    if include_unconstrained:
        free = Constraint.unconstrained(constraint.p)
        states.append(EstimatorState(model, free, schedule, theta0=start))

    obs = np.empty((_BLOCK, len(reps), dgp.obs_dim))
    path = np.empty((_BLOCK, len(reps), constraint.p))
    for t in range(0, T, _BLOCK):
        n = min(_BLOCK, T - t)
        for i, rng in enumerate(rngs):
            obs[:n, i, :] = draw_block(dgp, rng, n)
        block = model._check_obs(obs[:n], (n, len(reps)))
        for state in states:
            try:
                for i, z in enumerate(block):
                    state._move(z, model._gradient)
                    path[i] = state.theta_bar
            except NumericalError:
                # a moment that went non-finite before this step is the first fault
                if i:
                    _fold_block(state, path[:i], block[:i])
                raise
            _fold_block(state, path[:n], block)
    return states


def _fold_block(state: EstimatorState, path: np.ndarray, block: np.ndarray) -> None:
    """Fold the moments of one block, evaluated along its stored ``(n, R, p)``
    path of averages, into ``state``."""
    model = state.model
    grad = model._gradient(path, block)

    def first_bad_row() -> int:
        # the first row at which a running sum of either moment is non-finite
        with np.errstate(all="ignore"):
            sums = (np.cumsum(model._hessian(path, block), 0), np.cumsum(_outer(grad), 0))
        finite = [np.isfinite(s).reshape(len(block), -1).all(1) for s in sums]
        return int(np.argmin(finite[0] & finite[1]))

    state._fold(len(block), model._hessian_sum(path, block), _gram(grad, grad), first_bad_row)


def _chunk_task(args):
    return _advance_chunk(*args)


def replicate_streams(
    dgp: DgpSpec,
    constraint: Constraint,
    schedule: LearningRate,
    T: int,
    replications: int,
    base_seed: int,
    cell: int = 0,
    include_unconstrained: bool = False,
    workers: int = 1,
) -> tuple[EstimatorState, EstimatorState | None]:
    """Advance every replication of one grid cell for ``T`` steps.

    Returns the constrained stream as one batched state whose leading axis
    indexes the replications (``state[k]`` is replication ``k``) and, when
    requested, the unconstrained stream advanced on the same observations.
    ``workers`` only chunks the replications across worker processes; every
    replication owns its seed, so results are identical for any worker count.
    """
    if workers <= 1 or replications == 1:
        states = _advance_chunk(
            dgp, constraint, schedule, T, range(replications), base_seed, cell,
            include_unconstrained,
        )
    else:
        bounds = np.linspace(0, replications, min(workers, replications) + 1).astype(int)
        chunks = [range(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
        tasks = [
            (dgp, constraint, schedule, T, reps, base_seed, cell, include_unconstrained)
            for reps in chunks
        ]
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            parts = list(pool.map(_chunk_task, tasks))
        states = [EstimatorState.concatenate(side) for side in zip(*parts)]
    return states[0], (states[1] if include_unconstrained else None)


# -- experiment runners -------------------------------------------------------------


@dataclass(frozen=True)
class CellStat:
    """One aggregate: a (grid cell, coordinate, metric) triple with its MC error."""

    mode: str
    dgp: str
    T: int
    r: float
    coordinate: str
    metric: str
    value: float
    mc_stderr: float


@dataclass
class ExperimentResult:
    """Aggregates for every grid cell, plus retained test statistics.

    ``kappa_samples`` maps ``(T, r)`` to the per-replication test statistics
    of size/power runs so calibration checks can reuse them without another
    pass.  ``wall_clock`` is informational and never written to CSV.
    """

    config: ExperimentConfig
    rows: list[CellStat]
    wall_clock: float
    kappa_samples: dict[tuple[int, float], np.ndarray] = field(default_factory=dict)

    CSV_HEADER = "mode,dgp,T,r,coordinate,metric,value,mc_stderr,seed"

    def to_csv_text(self) -> str:
        lines = [self.CSV_HEADER]
        for row in self.rows:
            lines.append(
                f"{row.mode},{row.dgp},{row.T},{row.r!r},{row.coordinate},"
                f"{row.metric},{row.value!r},{row.mc_stderr!r},{self.config.base_seed}"
            )
        return "\n".join(lines) + "\n"

    def write_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(self.to_csv_text())


def _coordinate_names(p: int) -> list[str]:
    return [f"theta{j + 1}" for j in range(p)]


def run_estimation_error(config: ExperimentConfig) -> ExperimentResult:
    """Mean absolute error per coordinate, constrained vs unconstrained.

    Every (sample size, replication) pair consumes a fresh stream; both
    estimators see the same observations.
    """
    if config.mode != "estimation_error":
        raise ConfigError(f"config mode is {config.mode!r}, expected estimation_error")
    preset = PRESETS[config.preset]
    dgp = preset.spec(0.0)
    constraint = preset.constraint()
    schedule = config.schedule()
    theta_star = dgp.theta()
    R = config.replications
    names = _coordinate_names(len(theta_star))
    rows: list[CellStat] = []
    start = time.perf_counter()
    for cell, T in enumerate(config.sample_sizes):
        con, uncon = replicate_streams(
            dgp, constraint, schedule, T, R, config.base_seed, cell,
            include_unconstrained=True, workers=config.workers,
        )
        for metric, state in (("mae_constrained", con), ("mae_unconstrained", uncon)):
            err = np.abs(state.theta_bar - theta_star)
            means = err.mean(axis=0)
            stderrs = err.std(axis=0, ddof=1) / np.sqrt(R) if R > 1 else np.zeros_like(means)
            for j, name in enumerate(names):
                rows.append(
                    CellStat(
                        mode=config.mode, dgp=config.preset, T=T, r=0.0,
                        coordinate=name, metric=metric,
                        value=float(means[j]), mc_stderr=float(stderrs[j]),
                    )
                )
    return ExperimentResult(config, rows, time.perf_counter() - start)


def run_coverage(config: ExperimentConfig) -> ExperimentResult:
    """Coverage frequency of per-coordinate intervals from the constrained fit."""
    if config.mode != "coverage":
        raise ConfigError(f"config mode is {config.mode!r}, expected coverage")
    preset = PRESETS[config.preset]
    dgp = preset.spec(0.0)
    constraint = preset.constraint()
    schedule = config.schedule()
    theta_star = dgp.theta()
    p = len(theta_star)
    R = config.replications
    z = normal_quantile(config.alpha / 2.0)
    names = _coordinate_names(p)
    rows: list[CellStat] = []
    start = time.perf_counter()
    for cell, T in enumerate(config.sample_sizes):
        con, _ = replicate_streams(
            dgp, constraint, schedule, T, R, config.base_seed, cell,
            include_unconstrained=False, workers=config.workers,
        )
        covered = np.zeros((R, p), dtype=bool)
        for k in range(R):
            cov = asymptotic_covariance(con[k])
            se = np.sqrt(np.clip(np.diag(cov), 0.0, None) / T)
            covered[k] = np.abs(con.theta_bar[k] - theta_star) <= z * se
        freq = covered.mean(axis=0)
        stderr = np.sqrt(freq * (1.0 - freq) / R)
        for j, name in enumerate(names):
            rows.append(
                CellStat(
                    mode=config.mode, dgp=config.preset, T=T, r=0.0,
                    coordinate=name, metric="coverage",
                    value=float(freq[j]), mc_stderr=float(stderr[j]),
                )
            )
    return ExperimentResult(config, rows, time.perf_counter() - start)


def run_size_power(config: ExperimentConfig) -> ExperimentResult:
    """Rejection frequency of the specification test over the (T, r) grid.

    Grid cells are enumerated sample-size-major (all ``r`` values for the
    first ``T``, then the next ``T``), which fixes each cell's seed stream.
    """
    if config.mode != "size_power":
        raise ConfigError(f"config mode is {config.mode!r}, expected size_power")
    preset = PRESETS[config.preset]
    constraint = preset.constraint()
    schedule = config.schedule()
    R = config.replications
    rows: list[CellStat] = []
    result = ExperimentResult(config, rows, 0.0)
    start = time.perf_counter()
    cell = 0
    for T in config.sample_sizes:
        for r in config.r_grid:
            con, uncon = replicate_streams(
                preset.spec(r), constraint, schedule, T, R, config.base_seed, cell,
                include_unconstrained=True, workers=config.workers,
            )
            kappas = np.empty(R)
            rejects = np.empty(R, dtype=bool)
            for k in range(R):
                outcome = test_from_states(con[k], uncon[k], alpha=config.alpha)
                kappas[k] = outcome.kappa
                rejects[k] = outcome.reject
            freq = float(rejects.mean())
            rows.append(
                CellStat(
                    mode=config.mode, dgp=config.preset, T=T, r=r,
                    coordinate="", metric="rejection_rate",
                    value=freq, mc_stderr=float(np.sqrt(freq * (1.0 - freq) / R)),
                )
            )
            result.kappa_samples[(T, r)] = kappas
            cell += 1
    result.wall_clock = time.perf_counter() - start
    return result


_RUNNERS = {
    "estimation_error": run_estimation_error,
    "coverage": run_coverage,
    "size_power": run_size_power,
}


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Dispatch to the runner matching ``config.mode``."""
    return _RUNNERS[config.mode](config)
