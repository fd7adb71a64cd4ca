"""Seeded data-generating processes and the Monte Carlo experiment runner.

An experiment is a grid of ``(T, r)`` cells in every mode: each sample size
``T`` crossed with each misspecification shift ``r`` of the data-generating
process.  One runner replicates each cell's streams on the same observations,
the constrained one for coverage, the unconstrained one for the
specification test and both for estimation error, then summarises the cell
as estimation error, interval coverage or the rejection rate of the
specification test.

Replication streams are fully reproducible: replication ``k`` of grid cell
``c`` draws from ``PCG64(SeedSequence((base_seed, c, k)))``, and normal
variates are produced by inverse-CDF from open-interval uniforms, so any
implementation of the same documented scheme reproduces the streams.

For throughput the runner advances all replications of a cell in lockstep as
one batched ``(R, p)`` ``EstimatorState`` per stream, so a replication runs
the same block engine as a CSV stream, in blocks of ``_BLOCK`` rows.  A
cell holds two reused buffers of a block's size: the observations
``(_BLOCK, R, obs_dim)`` and the states' path ``(_BLOCK, R, p)``.  Each
replication's generator turns its raw words into uniforms straight in its
column of the observations, and vectorised transforms of the whole buffer
finish the block, which every state moves and folds at once
(``EstimatorState._advance_block``).  The move is the model's ``_walk``:
for the linear and logistic families the projected step directions
``gamma_t x_t P`` of the whole block come from one matrix product, and each
row then costs a margin, a weight and a multiply-subtract.  The fold sums
the block's moments in the path (``LossModel._moment_sums``).
Inference then runs once per cell on the batched states: one
``coordinate_report`` (coverage) or ``spec_test_from_state`` (size/power).
Each cell's wall time is kept on the result (``cell_seconds``).
Chunking the replications over worker processes cannot change any number
because every replication owns its seed.
"""

from __future__ import annotations

import itertools
import numbers
import pathlib
import time
import typing
from dataclasses import MISSING, dataclass, field, fields, replace
from importlib import resources

import numpy as np
from scipy.special import expit, ndtri

from .estimator import _BLOCK, EstimatorState, LearningRate
from .exceptions import ConfigError, DomainError
from .inference import _check_alpha, coordinate_report, spec_test_from_state
from .distributions import normal_quantile
from .linalg import Constraint
from .models import MODEL_FAMILIES, LossModel

_TWO53 = float(1 << 53)

#: Full-scale grid used by ``full_scale``; the default configs are
#: desk-scale so the suite finishes in minutes.
FULL_SAMPLE_SIZES = (100_000, 200_000, 500_000, 1_000_000)
FULL_REPLICATIONS = 500


# -- randomness -----------------------------------------------------------------


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
    """One synthetic regression data-generating process.

    ``kind`` is ``linear`` (gaussian response) or ``logistic`` (labels in
    {-1, +1}); an observation is ``(y, x_1, ..., x_p)`` with standard normal
    covariates.
    """

    kind: str
    theta_star: tuple[float, ...]
    noise_sd: float = 3.0

    def __post_init__(self):
        if self.kind not in ("linear", "logistic"):
            raise DomainError(f"unknown dgp kind {self.kind!r}")
        if not self.noise_sd > 0.0:
            raise DomainError(f"noise_sd must be positive, got {self.noise_sd}")

    @property
    def covariate_dim(self) -> int:
        return len(self.theta_star)

    @property
    def obs_dim(self) -> int:
        return self.covariate_dim + 1

    def theta(self) -> np.ndarray:
        return np.asarray(self.theta_star, dtype=float)

    def model(self) -> LossModel:
        return MODEL_FAMILIES[self.kind](len(self.theta_star))


def _draw_replications(dgp: DgpSpec, rngs, out: np.ndarray) -> np.ndarray:
    """The next ``n = len(out)`` observations of every generator in ``rngs``,
    written to ``out`` of shape ``(n, R, obs_dim)``.

    Generator ``i`` draws its ``n * obs_dim`` raw 64-bit words with one call
    and writes their uniforms straight into its column ``out[:, i]`` (not
    through a ``uint64`` view of ``out``: numpy copies an input that overlaps
    an output of another type whole).  A word ``w`` gives the open-interval
    uniform ``(k + 0.5) / 2**53`` with ``k = w >> 11``, which is bit for bit
    ``Generator.integers(0, 2**53)`` (its bounded draw never rejects for a
    power-of-two range), so 0 and 1 never occur and the inverse normal CDF
    is always finite.  Each observation consumes its covariate uniforms
    first and one response uniform last, in row order, so splitting a
    stream into blocks of any size yields identical observations.
    """
    n, k = len(out), dgp.covariate_dim
    y, x = out[..., 0], out[..., 1:]
    for i, rng in enumerate(rngs):
        raw = rng.bit_generator.random_raw((n, k + 1))
        raw >>= 11
        np.add(raw[:, :k], 0.5, out=x[:, i])
        np.add(raw[:, k], 0.5, out=y[:, i])
    out /= _TWO53
    if dgp.kind == "linear":
        ndtri(out, out=out)
        y *= dgp.noise_sd
        y += np.vecdot(x, dgp.theta())
    else:
        ndtri(x, out=x)
        y[...] = np.where(y < expit(np.vecdot(x, dgp.theta())), 1.0, -1.0)
    return out


def draw_block(dgp: DgpSpec, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw ``n >= 0`` observations as an ``(n, obs_dim)`` array.

    This is the one-stream case of the Monte Carlo lockstep's draws; see
    ``_draw_replications`` for the documented scheme.
    """
    if not (isinstance(n, numbers.Integral) and n >= 0):
        raise DomainError(f"the number of draws must be a non-negative integer, got {n!r}")
    return _draw_replications(dgp, [rng], np.empty((n, 1, dgp.obs_dim)))[:, 0]


@dataclass(frozen=True)
class DgpPreset:
    """A DGP plus the equality constraint its experiments test; its name is
    its key in ``PRESETS``.

    ``shift_coordinate`` is the entry of ``theta_base`` that receives the
    misspecification shift ``r`` of an experiment's grid cell.
    """

    kind: str
    theta_base: tuple[float, ...]
    shift_coordinate: int
    constraint_row: tuple[float, ...]
    noise_sd: float = 3.0

    def spec(self, r: float = 0.0) -> DgpSpec:
        theta = list(self.theta_base)
        theta[self.shift_coordinate] += r
        return DgpSpec(kind=self.kind, theta_star=tuple(theta), noise_sd=self.noise_sd)

    def constraint(self) -> Constraint:
        return Constraint.from_equalities([list(self.constraint_row)], [0.0])


#: The two regression DGPs used throughout, plus the alternative logistic
#: parameterisation used for size/power runs (larger first coefficient).
PRESETS: dict[str, DgpPreset] = {
    "linear": DgpPreset(
        kind="linear",
        theta_base=(1.5, -3.0, 2.0, 1.0),
        shift_coordinate=3,
        constraint_row=(0.0, 1.0, 1.0, 1.0),
    ),
    "logistic": DgpPreset(
        kind="logistic",
        theta_base=(1.0, -2.0, -2.0, 1.5),
        shift_coordinate=2,
        constraint_row=(0.0, 1.0, -1.0, 0.0),
    ),
    "logistic_shift": DgpPreset(
        kind="logistic",
        theta_base=(3.0, -2.0, -2.0, 1.0),
        shift_coordinate=2,
        constraint_row=(0.0, 1.0, -1.0, 0.0),
    ),
}


# -- configuration -----------------------------------------------------------------

_MODES = ("estimation_error", "coverage", "size_power")


@dataclass(frozen=True)
class ExperimentConfig:
    """Grid, replication count, and seeding for one experiment.

    The grid's cells are ``(T, r)`` for every sample size ``T`` and every
    shift ``r`` in ``r_grid`` (see ``DgpPreset.spec``), in every mode;
    ``mode`` only chooses how a cell is summarised.
    """

    mode: str
    preset: str
    sample_sizes: tuple[int, ...]
    replications: int
    alpha: float = 0.05
    base_seed: int = 0
    r_grid: tuple[float, ...] = (0.0,)
    gamma: float = LearningRate.gamma
    rho: float = LearningRate.rho
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
        if self.base_seed < 0:
            raise ConfigError(f"base_seed must be >= 0, got {self.base_seed}")
        sizes = self.sample_sizes
        if not sizes or any(t < 1 for t in sizes) or list(sizes) != sorted(set(sizes)):
            raise ConfigError(
                f"sample_sizes must be positive and strictly increasing, got {sizes}"
            )
        grid = self.r_grid
        if not grid or not np.isfinite(grid).all() or len(set(grid)) != len(grid):
            raise ConfigError(f"r_grid must be non-empty, finite and without repeats, got {grid}")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        try:
            _check_alpha(self.alpha)
            self.schedule()
        except DomainError as exc:
            raise ConfigError(str(exc)) from exc

    def schedule(self) -> LearningRate:
        return LearningRate(gamma=self.gamma, rho=self.rho)


#: Config keys in field order with their annotated types; the defaults of
#: keys a config leaves out live on ``ExperimentConfig`` only.
_FIELDS = fields(ExperimentConfig)
_CONFIG_KEYS = {f.name: typing.get_type_hints(ExperimentConfig)[f.name] for f in _FIELDS}
_REQUIRED_KEYS = {f.name for f in _FIELDS if f.default is MISSING}


def _config_value(kind, text: str):
    """``text`` as the annotated field type ``kind``; a tuple is comma-separated."""
    if typing.get_origin(kind) is tuple:
        item = typing.get_args(kind)[0]
        return tuple(item(v) for v in text.split(",") if v.strip())
    return kind(text)


def parse_config_text(text: str, source: str = "<config>") -> ExperimentConfig:
    """Parse a flat ``key = value`` config (``#`` starts a comment), each key
    at most once; keys left out keep the defaults of ``ExperimentConfig``."""
    raw: dict[str, str] = {}
    first_line: dict[str, int] = {}
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
        if key in raw:
            raise ConfigError(
                f"{source}:{lineno}: key {key!r} is already set on line {first_line[key]}"
            )
        raw[key], first_line[key] = value, lineno
    missing = _REQUIRED_KEYS - raw.keys()
    if missing:
        raise ConfigError(f"{source}: missing required keys {sorted(missing)}")
    try:
        return ExperimentConfig(
            **{k: _config_value(kind, raw[k]) for k, kind in _CONFIG_KEYS.items() if k in raw}
        )
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def resolve_config(name_or_path: str) -> ExperimentConfig:
    """Load a bundled config by name, or any path to a config file."""
    bundled = resources.files("apsgd").joinpath("configs").joinpath(f"{name_or_path}.cfg")
    source = bundled if bundled.is_file() else pathlib.Path(name_or_path)
    try:
        text = source.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {name_or_path}: {exc}") from exc
    return parse_config_text(text, source=name_or_path)


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
    constraints: tuple[Constraint, ...],
    schedule: LearningRate,
    T: int,
    reps: range,
    base_seed: int,
    cell: int,
) -> list[EstimatorState]:
    rngs = [replication_rng(base_seed, cell, k) for k in reps]
    states = [
        EstimatorState(dgp.model(), con, schedule, theta0=np.tile(con.c, (len(reps), 1)))
        for con in constraints
    ]
    # the only block-sized buffers: the observations, drawn once every state
    # has consumed the last block, and one path, in which each state in turn
    # walks and then sums its moments
    obs = np.empty((_BLOCK, len(reps), dgp.obs_dim))
    path = np.empty((_BLOCK,) + states[0].theta.shape)
    for t in range(0, T, _BLOCK):
        block = _draw_replications(dgp, rngs, obs[: min(_BLOCK, T - t)])
        for state in states:
            state._advance_block(block, path)
    return states


def replicate_streams(
    dgp: DgpSpec,
    constraints: tuple[Constraint, ...],
    schedule: LearningRate,
    T: int,
    replications: int,
    base_seed: int,
    cell: int = 0,
    workers: int = 1,
) -> tuple[EstimatorState, ...]:
    """Advance every replication of one grid cell for ``T`` steps, once per
    constraint in ``constraints``.

    Returns one batched ``(R, p)`` state per constraint, in order, which the
    inference functions take whole (``state[k]`` is replication ``k``).
    Every block of observations is drawn once and fed to each state, and
    each state starts at its own constraint's feasible point ``c``.
    ``workers`` only chunks the replications across worker processes; every
    replication owns its seed, so results are identical for any worker count.
    """
    if workers <= 1 or replications == 1:
        return tuple(
            _advance_chunk(dgp, constraints, schedule, T, range(replications), base_seed, cell)
        )
    bounds = np.linspace(0, replications, min(workers, replications) + 1).astype(int)
    chunks = [range(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
    tasks = [(dgp, constraints, schedule, T, reps, base_seed, cell) for reps in chunks]
    # imported here so that only a run with workers loads multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
        parts = list(pool.map(_advance_chunk, *zip(*tasks)))
    return tuple(EstimatorState.concatenate(chunk) for chunk in zip(*parts))


# -- experiment runners -------------------------------------------------------------


@dataclass(frozen=True)
class CellStat:
    """One aggregate: a (grid cell, coordinate, metric) triple with its MC error."""

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
    pass.  ``wall_clock`` (the whole run) and ``cell_seconds`` (each
    ``(T, r)`` cell, replication and summary) are wall seconds; they are
    informational and never written to CSV.
    """

    config: ExperimentConfig
    rows: list[CellStat]
    wall_clock: float
    kappa_samples: dict[tuple[int, float], np.ndarray] = field(default_factory=dict)
    cell_seconds: dict[tuple[int, float], float] = field(default_factory=dict)

    CSV_HEADER = "mode,dgp,T,r,coordinate,metric,value,mc_stderr,seed"

    def to_csv_text(self) -> str:
        config = self.config
        lines = [self.CSV_HEADER]
        for row in self.rows:
            lines.append(
                f"{config.mode},{config.preset},{row.T},{row.r!r},{row.coordinate},"
                f"{row.metric},{row.value!r},{row.mc_stderr!r},{config.base_seed}"
            )
        return "\n".join(lines) + "\n"


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Replicate every ``(T, r)`` cell of ``config`` and summarise it per mode.

    Cells are enumerated sample-size-major (all ``r`` values for the first
    ``T``, then the next ``T``), which fixes each cell's seed stream.  Both
    estimators see the same observations, and the specification test reads
    only the unconstrained one.  ``estimation_error`` reports the
    mean absolute error per coordinate of the constrained and unconstrained
    averages, with the sample standard error; ``coverage`` the frequency with
    which the constrained fit's per-coordinate intervals cover the truth;
    ``size_power`` the rejection frequency of the specification test.  Rates
    carry binomial standard errors.
    """
    preset = PRESETS[config.preset]
    constraint = preset.constraint()
    free = Constraint.unconstrained(constraint.p)
    streams = {
        "estimation_error": (constraint, free), "coverage": (constraint,), "size_power": (free,)
    }[config.mode]
    schedule = config.schedule()
    R = config.replications
    z = normal_quantile(config.alpha / 2.0)
    coordinates = [f"theta{j + 1}" for j in range(constraint.p)]
    result = ExperimentResult(config, [], 0.0)

    def add(T, r, names, metric, values, stderrs):
        for name, value, stderr in zip(names, values, stderrs):
            result.rows.append(
                CellStat(
                    T=T, r=r, coordinate=name, metric=metric,
                    value=float(value), mc_stderr=float(stderr),
                )
            )

    def rate(hits):
        freq = hits.mean(axis=0)
        return freq, np.sqrt(freq * (1.0 - freq) / R)

    start = time.perf_counter()
    for cell, (T, r) in enumerate(itertools.product(config.sample_sizes, config.r_grid)):
        cell_start = time.perf_counter()
        dgp = preset.spec(r)
        theta_star = dgp.theta()
        states = replicate_streams(
            dgp, streams, schedule, T, R, config.base_seed, cell, workers=config.workers
        )
        if config.mode == "estimation_error":
            for metric, state in zip(("mae_constrained", "mae_unconstrained"), states):
                err = np.abs(state.theta_bar - theta_star)
                means = err.mean(axis=0)
                stderrs = err.std(axis=0, ddof=1) / np.sqrt(R) if R > 1 else np.zeros_like(means)
                add(T, r, coordinates, metric, means, stderrs)
        elif config.mode == "coverage":
            report = coordinate_report(states[0], alpha=config.alpha)
            covered = np.abs(report.theta_bar - theta_star) <= z * report.std_error
            add(T, r, coordinates, "coverage", *rate(covered))
        else:
            test = spec_test_from_state(states[0], constraint, alpha=config.alpha)
            result.kappa_samples[(T, r)] = test.kappa
            add(T, r, [""], "rejection_rate", *rate(test.reject[:, None]))
        result.cell_seconds[(T, r)] = time.perf_counter() - cell_start
    result.wall_clock = time.perf_counter() - start
    return result
