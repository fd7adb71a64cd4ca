"""Seeded data-generating processes and the Monte Carlo experiment runner.

An experiment is a grid of ``(T, r)`` cells in every mode: each sample size
``T`` crossed with each misspecification shift ``r`` of the data-generating
process.  One runner replicates each cell's constrained stream and, except
for coverage, the unconstrained stream on the same observations, then
summarises the cell as estimation error, interval coverage or the rejection
rate of the specification test.

Replication streams are fully reproducible: replication ``k`` of grid cell
``c`` draws from ``PCG64(SeedSequence((base_seed, c, k)))``, and normal
variates are produced by inverse-CDF from open-interval uniforms, so any
implementation of the same documented scheme reproduces the streams.

For throughput the runner advances all replications of a cell in lockstep as
one batched ``(R, p)`` ``EstimatorState`` (``(2, R, p)`` with both sides), so
a replication runs the same block engine as a CSV stream, in blocks of
``_BLOCK`` rows (``(_BLOCK, R, obs_dim)``-sized, as are the raw words).  Each
replication's generator fills its row of one reused buffer of raw words, and
one vectorised transform turns the buffer into the block's observations,
which the state moves and folds at once (``EstimatorState.run_stream``).
The move is the model's ``_walk``: for the linear and logistic families the
projected step directions ``gamma_t x_t P`` of the whole block come from one
matrix product, and each row then costs a margin, a weight and a
multiply-subtract.
Inference then runs once per cell on the batched states: one
``coordinate_report`` (coverage) or ``test_from_states`` (size/power).
Each cell's wall time is kept on the result (``cell_seconds``).
Chunking the replications over worker processes cannot change any number
because every replication owns its seed.
"""

from __future__ import annotations

import itertools
import time
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, field, fields, replace
from importlib import resources

import numpy as np
from scipy.special import expit, ndtri

from .estimator import _BLOCK, EstimatorState, LearningRate
from .exceptions import ConfigError, DomainError
from .inference import coordinate_report, test_from_states
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
    """One synthetic data-generating process.

    ``kind`` is ``linear`` (gaussian response), ``logistic`` (labels in
    {-1, +1}) or ``mean`` (the observation is the parameter plus noise).
    """

    kind: str
    theta_star: tuple[float, ...]
    noise_sd: float = 3.0

    def __post_init__(self):
        if self.kind not in ("linear", "logistic", "mean"):
            raise DomainError(f"unknown dgp kind {self.kind!r}")
        if not self.noise_sd > 0.0:
            raise DomainError(f"noise_sd must be positive, got {self.noise_sd}")

    @property
    def covariate_dim(self) -> int:
        return len(self.theta_star)

    @property
    def obs_dim(self) -> int:
        return self.covariate_dim if self.kind == "mean" else self.covariate_dim + 1

    def theta(self) -> np.ndarray:
        return np.asarray(self.theta_star, dtype=float)

    def model(self) -> LossModel:
        return MODEL_FAMILIES[self.kind](len(self.theta_star))


def _draw_replications(dgp: DgpSpec, rngs, words: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The next ``n = len(out)`` observations of every generator in ``rngs``,
    written to ``out`` of shape ``(n, R, obs_dim)``.

    Each generator fills its row of ``words``, a reused ``(R, m, obs_dim)``
    buffer of 64-bit integers with ``m >= n``, with one call for raw words.
    A word ``w`` gives the open-interval uniform ``(k + 0.5) / 2**53`` with
    ``k = w >> 11``, which is bit for bit ``Generator.integers(0, 2**53)``
    (its bounded draw never rejects for a power-of-two range), so 0 and 1
    never occur and the inverse normal CDF is always finite.  Each
    observation consumes its covariate uniforms first and, for the
    regression kinds, one response uniform last, in row order, so splitting
    a stream into blocks of any size yields identical observations.
    """
    n, k = len(out), dgp.covariate_dim
    for i, rng in enumerate(rngs):
        words[i, :n] = rng.bit_generator.random_raw(n * dgp.obs_dim).reshape(n, -1)
    words = words[:, :n]
    words >>= 11
    words = words.transpose(1, 0, 2)
    theta = dgp.theta()
    if dgp.kind == "mean":
        np.add(words, 0.5, out=out)
        out /= _TWO53
        ndtri(out, out=out)
        out *= dgp.noise_sd
        out += theta
        return out
    y, x = out[..., 0], out[..., 1:]
    np.add(words[..., :k], 0.5, out=x)
    np.add(words[..., k], 0.5, out=y)
    out /= _TWO53
    ndtri(x, out=x)
    lin = np.vecdot(x, theta)
    if dgp.kind == "linear":
        ndtri(y, out=y)
        y *= dgp.noise_sd
        y += lin
    else:
        y[...] = np.where(y < expit(lin), 1.0, -1.0)
    return out


def draw_block(dgp: DgpSpec, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw ``n`` observations as an ``(n, obs_dim)`` array.

    This is the one-stream case of the Monte Carlo lockstep's draws; see
    ``_draw_replications`` for the documented scheme.
    """
    words = np.empty((1, n, dgp.obs_dim), dtype=np.uint64)
    return _draw_replications(dgp, [rng], words, np.empty((n, 1, dgp.obs_dim)))[:, 0]


@dataclass(frozen=True)
class DgpPreset:
    """A named DGP plus the equality constraint its experiments test.

    ``shift_coordinate`` is the entry of ``theta_base`` that receives the
    misspecification shift ``r`` of an experiment's grid cell.
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
        return DgpSpec(kind=self.kind, theta_star=tuple(theta), noise_sd=self.noise_sd)

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
    """Parse a flat ``key = value`` config (``#`` starts a comment); keys left
    out keep the defaults of ``ExperimentConfig``."""
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
    missing = _REQUIRED_KEYS - raw.keys()
    if missing:
        raise ConfigError(f"{source}: missing required keys {sorted(missing)}")
    try:
        return ExperimentConfig(
            **{k: _config_value(kind, raw[k]) for k, kind in _CONFIG_KEYS.items() if k in raw}
        )
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config_text(handle.read(), source=path)


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
) -> EstimatorState:
    rngs = [replication_rng(base_seed, cell, k) for k in reps]
    # both sides start from the constraint's feasible point
    start = np.tile(constraint.c, (len(reps), 1))
    build = EstimatorState.paired if include_unconstrained else EstimatorState
    state = build(dgp.model(), constraint, schedule, theta0=start)
    # one reused buffer each for the raw words and the observations; the
    # stream draws each block only once the state has consumed the last one
    words = np.empty((len(reps), _BLOCK, dgp.obs_dim), dtype=np.uint64)
    obs = np.empty((_BLOCK, len(reps), dgp.obs_dim))
    blocks = (
        _draw_replications(dgp, rngs, words, obs[: min(_BLOCK, T - t)])
        for t in range(0, T, _BLOCK)
    )
    return state.run_stream(blocks)


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

    Returns the constrained stream as one batched ``(R, p)`` state, which
    the inference functions take whole (``state[k]`` is replication ``k``),
    and, when requested, the unconstrained stream advanced on the same
    observations: the sides ``pair[0]`` and ``pair[1]`` of one ``(2, R, p)``
    ``EstimatorState.paired`` state.
    ``workers`` only chunks the replications across worker processes; every
    replication owns its seed, so results are identical for any worker count.
    """
    if workers <= 1 or replications == 1:
        state = _advance_chunk(
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
            state = EstimatorState.concatenate(list(pool.map(_advance_chunk, *zip(*tasks))))
    return (state[0], state[1]) if include_unconstrained else (state, None)


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


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Replicate every ``(T, r)`` cell of ``config`` and summarise it per mode.

    Cells are enumerated sample-size-major (all ``r`` values for the first
    ``T``, then the next ``T``), which fixes each cell's seed stream.  Both
    estimators see the same observations.  ``estimation_error`` reports the
    mean absolute error per coordinate of the constrained and unconstrained
    averages, with the sample standard error; ``coverage`` the frequency with
    which the constrained fit's per-coordinate intervals cover the truth;
    ``size_power`` the rejection frequency of the specification test.  Rates
    carry binomial standard errors.
    """
    preset = PRESETS[config.preset]
    constraint = preset.constraint()
    schedule = config.schedule()
    R = config.replications
    z = normal_quantile(config.alpha / 2.0)
    coordinates = [f"theta{j + 1}" for j in range(constraint.p)]
    result = ExperimentResult(config, [], 0.0)

    def add(T, r, names, metric, values, stderrs):
        for name, value, stderr in zip(names, values, stderrs):
            result.rows.append(
                CellStat(
                    mode=config.mode, dgp=config.preset, T=T, r=r,
                    coordinate=name, metric=metric,
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
        con, uncon = replicate_streams(
            dgp, constraint, schedule, T, R, config.base_seed, cell,
            include_unconstrained=config.mode != "coverage", workers=config.workers,
        )
        if config.mode == "estimation_error":
            for metric, state in (("mae_constrained", con), ("mae_unconstrained", uncon)):
                err = np.abs(state.theta_bar - theta_star)
                means = err.mean(axis=0)
                stderrs = err.std(axis=0, ddof=1) / np.sqrt(R) if R > 1 else np.zeros_like(means)
                add(T, r, coordinates, metric, means, stderrs)
        elif config.mode == "coverage":
            report = coordinate_report(con, alpha=config.alpha)
            covered = np.abs(report.theta_bar - theta_star) <= z * report.std_error
            add(T, r, coordinates, "coverage", *rate(covered))
        else:
            test = test_from_states(con, uncon, alpha=config.alpha)
            result.kappa_samples[(T, r)] = test.kappa
            add(T, r, [""], "rejection_rate", *rate(test.reject[:, None]))
        result.cell_seconds[(T, r)] = time.perf_counter() - cell_start
    result.wall_clock = time.perf_counter() - start
    return result
