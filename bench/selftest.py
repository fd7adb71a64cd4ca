"""The benchmark's own tests.

Run from the root of the checkout with ``python3 -m pytest bench/selftest.py``.
The file name keeps these tests out of the package's default test run: they
launch the benchmark, which takes about a minute.
"""

from __future__ import annotations

import csv
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

#: Workload and metric names the benchmark was specified with.
WORKLOAD_NAMES = [
    "csv_estimate_linear", "csv_spectest_logistic", "mc_size_power_linear",
    "mc_coverage_logistic",
]
END_TO_END_NAMES = ["setup_s", "us_per_row", "cell_s", "peak_rss_mb"]
PER_LAYER_NAMES = [
    "ingest.parse_us_per_row", "ingest.rows", "ingest.moments_us_per_row",
    "estimator.steps", "estimator.step_us_p50", "estimator.step_us_p99",
    "models.gradient_calls", "models.hessian_calls", "models.gradient_us_p50",
    "models.hessian_us_p50", "linalg.project_calls", "linalg.project_us_p50",
    "linalg.project_noop_share", "linalg.eigen_calls", "inference.assemble_ms",
    "distributions.calls", "distributions.us_p50", "simulate.draw_block_ns_per_row_rep",
    "simulate.lockstep_ns_per_step_rep", "simulate.per_rep_inference_ms", "cli.self_ms",
    *(f"{layer}.share" for layer in (
        "ingest", "estimator", "models", "linalg", "inference", "distributions",
        "simulate", "cli",
    )),
    "trace.overhead_pct",
]


def benchmark(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=300,
    )


def result_line(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


# -- inputs ----------------------------------------------------------------------------


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_one_seed_gives_the_same_bytes(tmp_path, name):
    first = workloads.prepare(name, 7, tmp_path / "first")
    second = workloads.prepare(name, 7, tmp_path / "second")
    other = workloads.prepare(name, 8, tmp_path / "other")
    assert first.digests == second.digests
    for file in first.digests:
        assert (tmp_path / "first" / file).read_bytes() == (tmp_path / "second" / file).read_bytes()
    assert other.digests != first.digests


def test_csv_holds_exact_plain_floats(tmp_path):
    prepared = workloads.prepare("csv_estimate_linear", 3, tmp_path)
    text = (tmp_path / "data.csv").read_text(encoding="utf-8")
    assert "np." not in text
    rows = list(csv.reader(io.StringIO(text)))
    assert tuple(rows[0]) == workloads.CSV_COLUMNS
    assert [[float(v) for v in row] for row in rows[1:]] == prepared.data.tolist()


# -- BENCHMARK.json ----------------------------------------------------------------------


def test_every_name_is_in_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == WORKLOAD_NAMES == list(workloads.WORKLOADS)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WHY
    assert sorted(m["name"] for m in spec["end_to_end"]) == sorted(END_TO_END_NAMES)
    assert [m["name"] for m in spec["per_layer"]] == PER_LAYER_NAMES
    assert [tuple(m.values()) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [tuple(m.values()) for m in spec["per_layer"]] == list(tracing.PER_LAYER)


# -- output checks ------------------------------------------------------------------------


def _corrupt_estimate(op):
    rows = op["output"].splitlines()
    cells = rows[1].split(",")
    cells[1] = repr(float(cells[1]) + 1e-4)
    rows[1] = ",".join(cells)
    return dict(op, output="\n".join(rows) + "\n")


def _corrupt_spec_test(op):
    lines = op["stdout"].splitlines()
    kappa = float(lines[0].split(" = ")[1])
    lines[0] = f"kappa = {kappa + 0.01:.6f}"
    return dict(op, stdout="\n".join(lines) + "\n")


def _corrupt_simulate(op):
    rows = op["output"].splitlines()
    cells = rows[1].split(",")
    value = float(cells[6])
    cells[6] = repr(value - 0.05 if value > 0.5 else value + 0.05)
    rows[1] = ",".join(cells)
    return dict(op, output="\n".join(rows) + "\n")


CORRUPT = {
    "estimate": _corrupt_estimate,
    "spec-test": _corrupt_spec_test,
    "simulate": _corrupt_simulate,
}


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_a_corrupted_output_is_counted_as_failed(tmp_path, name):
    import apsgd.cli

    prepared = workloads.prepare(name, 5, tmp_path)
    output = tmp_path / "output.csv" if prepared.writes_output else None
    good = worker.run_command(apsgd.cli.main, prepared.argv, output)
    ref = checks.reference(prepared)
    bad_exit = dict(good, exit_code=1)
    raised = dict(good, exit_code=None, error="DataError('line 2: bad row')")
    corrupted = CORRUPT[prepared.workload.command](good)
    assert checks.failures(prepared, ref, [good]) == []
    problems = checks.failures(prepared, ref, [good, corrupted, bad_exit, raised, good])
    assert [p.split(":")[0] for p in problems] == ["command 1", "command 2", "command 3"]


# -- whole runs --------------------------------------------------------------------------------


def test_untraced_run_reports_every_end_to_end_metric():
    result = result_line(
        benchmark("--workload", "csv_estimate_linear", "--seed", "2", "--seconds", "1")
    )
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    assert list(result["metrics"]) == [name for name, *_ in run.END_TO_END]
    for entry in result["metrics"].values():
        assert entry["value"] > 0 and math.isfinite(entry["value"])


@pytest.mark.parametrize(
    "name, used, bypassed",
    [
        ("csv_estimate_linear", ["ingest.rows", "estimator.steps"], ["simulate.share"]),
        (
            "csv_spectest_logistic",
            ["ingest.moments_us_per_row", "estimator.steps"],
            ["simulate.share"],
        ),
        (
            "mc_coverage_logistic",
            ["simulate.lockstep_ns_per_step_rep", "simulate.per_rep_inference_ms"],
            ["ingest.rows", "estimator.steps"],
        ),
    ],
)
def test_traced_run_reports_every_per_layer_metric(name, used, bypassed):
    result = result_line(
        benchmark("--workload", name, "--seed", "4", "--seconds", "1", "--trace", "1")
    )
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert list(metrics) == PER_LAYER_NAMES
    assert all(math.isfinite(v) for v in metrics.values())
    assert all(metrics[k] > 0 for k in used)
    assert all(metrics[k] == 0 for k in bypassed)
    shares = sum(metrics[f"{layer}.share"] for layer in tracing.LAYERS)
    assert 0.95 < shares <= 1.0


def test_csv_estimate_makes_the_documented_calls_per_row():
    result = result_line(
        benchmark("--workload", "csv_estimate_linear", "--seed", "6", "--seconds", "1",
                  "--trace", "1")
    )
    m = {k: v["value"] for k, v in result["metrics"].items()}
    rows = workloads.WORKLOADS["csv_estimate_linear"].rows
    assert m["ingest.rows"] == m["estimator.steps"] == rows
    assert m["models.gradient_calls"] == 2 * rows and m["models.hessian_calls"] == rows
    assert m["linalg.project_noop_share"] == 1.0


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = benchmark("--workload", "csv_estimate_linear", "--seed", "1", "--seconds", "1",
                     cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
