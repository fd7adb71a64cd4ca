"""The four benchmark workloads and their seeded inputs.

Every input is made from the ``--seed`` the benchmark is given: the CSV rows
come from ``apsgd.simulate.draw_block`` and the Monte Carlo configs carry the
seed as their ``base_seed``.  Floats are written as ``repr(float(v))``, which
round-trips exactly and never spells a numpy scalar type into the data.

Model family, parameter dimension (p = 4), constraint and replication count
are the traffic dimensions and stay fixed.  Row counts and T are chosen so
that one command takes about one to three seconds on one core, which gives
several commands per measured run.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Column names of every generated CSV: the response first, then p = 4 features.
CSV_COLUMNS = ("y", "x1", "x2", "x3", "x4")

#: Shorthand constraint of the logistic preset, ``theta2 = theta3``.
SPEC_TEST_CONSTRAINT = "x2 - x3 = 0\n"

#: Why each workload is in the benchmark; copied into BENCHMARK.json.
WHY = {
    "csv_estimate_linear": (
        "Simplest analyst path: per-row CSV parsing and one EstimatorState.step "
        "per row do nearly all the work; no constraint, and simulate is bypassed."
    ),
    "csv_spectest_logistic": (
        "Same layers used differently: two streams per row, a theta-dependent "
        "Hessian, a real projection and two ingest passes (feature_moments, then "
        "the stream)."
    ),
    "mc_size_power_linear": (
        "Wide vectorised lockstep (R = 200, both streams, R paired tests per cell) "
        "where array math dominates; bypasses ingest and EstimatorState.step."
    ),
    "mc_coverage_logistic": (
        "Narrow lockstep (R = 20, one stream) where per-step Python overhead "
        "dominates, plus the logistic batch path and R covariance assemblies."
    ),
}


@dataclass(frozen=True)
class Workload:
    """One CLI command shape and the size of its input."""

    name: str
    command: str  # estimate | spec-test | simulate
    preset: str
    rows: int = 0  # CSV data rows (csv workloads)
    config: dict = field(default_factory=dict)  # simulate config (mc workloads)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("csv_estimate_linear", "estimate", "linear", rows=20_000),
        Workload("csv_spectest_logistic", "spec-test", "logistic", rows=10_000),
        Workload(
            "mc_size_power_linear", "simulate", "linear",
            config={
                "mode": "size_power", "preset": "linear", "sample_sizes": (5_000,),
                "replications": 200, "alpha": 0.05, "r_grid": (0.0, 0.025),
                "workers": 1,
            },
        ),
        Workload(
            "mc_coverage_logistic", "simulate", "logistic",
            config={
                "mode": "coverage", "preset": "logistic", "sample_sizes": (20_000,),
                "replications": 20, "alpha": 0.05, "r_grid": (0.0,), "workers": 1,
            },
        ),
    )
}


@dataclass
class Prepared:
    """Generated inputs of one workload run, and how to invoke the CLI on them."""

    workload: Workload
    seed: int
    argv: list[str]  # CLI arguments; commands that write a file get --output per run
    writes_output: bool
    units_rows: int  # CSV rows, or simulated observations x replications
    units_cells: int  # simulate grid cells; a CSV command is one cell
    data: np.ndarray | None  # the CSV rows as floats, for the reference values
    config: dict | None  # the simulate config, base_seed included
    digests: dict[str, str]  # file name -> SHA-256 of its bytes


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, stream])))


def csv_text(rows: np.ndarray) -> str:
    lines = [",".join(CSV_COLUMNS)]
    lines.extend(",".join(repr(float(v)) for v in row) for row in rows.tolist())
    return "\n".join(lines) + "\n"


def config_text(config: dict) -> str:
    def fmt(value):
        if isinstance(value, tuple):
            return ", ".join(repr(v) for v in value)
        return repr(value) if isinstance(value, float) else str(value)

    return "".join(f"{key} = {fmt(value)}\n" for key, value in config.items())


def _write(directory: Path, name: str, text: str, digests: dict[str, str]) -> Path:
    path = directory / name
    data = text.encode("utf-8")
    path.write_bytes(data)
    digests[name] = hashlib.sha256(data).hexdigest()
    return path


def prepare(name: str, seed: int, directory: Path) -> Prepared:
    """Write the inputs of workload ``name`` for ``seed`` into ``directory``."""
    from apsgd.simulate import PRESETS, draw_block

    workload = WORKLOADS[name]
    directory.mkdir(parents=True, exist_ok=True)
    digests: dict[str, str] = {}
    if workload.command == "simulate":
        config = dict(workload.config, base_seed=seed)
        path = _write(directory, "experiment.cfg", config_text(config), digests)
        cells = len(config["sample_sizes"]) * len(config["r_grid"])
        rows = sum(config["sample_sizes"]) * len(config["r_grid"]) * config["replications"]
        return Prepared(
            workload, seed, ["simulate", str(path)], True, rows, cells, None, config,
            digests,
        )

    stream = list(WORKLOADS).index(name)  # each CSV workload draws its own stream
    data = draw_block(PRESETS[workload.preset].spec(0.0), _rng(seed, stream), workload.rows)
    path = _write(directory, "data.csv", csv_text(data), digests)
    argv = [workload.command, str(path), "--model", workload.preset]
    if workload.command == "spec-test":
        constraint = _write(directory, "constraint.txt", SPEC_TEST_CONSTRAINT, digests)
        argv += ["--standardize", "--constraint", str(constraint)]
    return Prepared(
        workload, seed, argv, workload.command == "estimate", workload.rows, 1, data,
        None, digests,
    )
