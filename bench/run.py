"""Benchmark of the apsgd command line: CSV streams and lockstep Monte Carlo.

Run from the root of a source checkout::

    python3 bench/run.py --workload csv_estimate_linear --seed 1 --seconds 12 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 12

For one workload it writes seeded inputs, times the start-up of a fresh
interpreter importing ``apsgd.cli``, then runs the workload's command through
``apsgd.cli.main`` in one worker process for ``--seconds`` seconds, checks
every command's output against independently computed references, and
prints the metrics.  Command times are CPU seconds of the worker process:
the program is single-threaded and never waits, so on an unshared core this
is its wall time, while CPU time also leaves out the time a shared host gives
the core to other tenants, which made wall-time medians drift by 15 to 30 %
between runs.  Wall times are printed alongside.  Set-up is wall time.
``--trace 0`` reports the end-to-end metrics;
``--trace 1`` wraps each layer's public functions and reports the per-layer
metrics instead.  The last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload all``
runs every workload untraced and traced and ends with one combined object.

BLAS is pinned to one thread and simulate uses one worker, so at most one
core is busy; the process pool is left out because wall-clock scaling on a
small shared machine is not measurable.  Nothing is read from the network
and nothing is written outside ``.bench_work`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"

THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: Fresh interpreters started per run to time ``import apsgd.cli``; one more
#: is started first and not timed, so bytecode caches exist.
SETUP_LAUNCHES = 5

#: The worker stops starting commands after 100 s; this bounds the rest.
WORKER_TIMEOUT = 150

#: (name, unit, better, bound) of every end-to-end metric.
END_TO_END = (
    ("us_per_row", "us", "lower", 0.25),
    ("cell_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
)


def child_environment() -> dict[str, str]:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARIABLES})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup(env: dict[str, str]) -> list[float]:
    """Seconds from launching an interpreter to ``import apsgd.cli`` returning."""
    code = "import time, apsgd.cli; print(time.monotonic_ns())"
    samples = []
    for launch in range(SETUP_LAUNCHES + 1):
        start = time.monotonic_ns()
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True,
            timeout=60, check=True,
        )
        if launch:
            samples.append((int(done.stdout.split()[-1]) - start) / 1e9)
    return samples


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text(encoding="utf-8").strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unknown ({ref})"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "git_commit": git_commit(),
        "seed": seed,
    }


def run_worker(job: dict, env: dict[str, str]) -> dict:
    workdir = Path(job["workdir"])
    job_path = workdir / "job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    done = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(job_path)], env=env,
        capture_output=True, text=True, timeout=WORKER_TIMEOUT,
    )
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with {done.returncode}:\n{done.stderr}")
    return json.loads((workdir / "result.json").read_text(encoding="utf-8"))


def summary(label: str, seconds: list[float], what: str) -> str:
    q1, _, q3 = statistics.quantiles(seconds, n=4) if len(seconds) > 1 else seconds * 3
    return (
        f"{label}: median {statistics.median(seconds):.6g} s, quartiles {q1:.6g} .. "
        f"{q3:.6g} s, {len(seconds)} {what}"
    )


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    """Run one workload and print its report; returns the result object."""
    import checks
    import tracing
    import workloads

    env = child_environment()
    WORKDIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-{seed}-", dir=WORKDIR))
    try:
        prepared = workloads.prepare(name, seed, workdir)
        setup = measure_setup(env)
        result = run_worker(
            {
                "src": str(SRC), "argv": prepared.argv, "writes_output": prepared.writes_output,
                "workdir": str(workdir), "seconds": seconds, "trace": trace,
            },
            env,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ops = result["warmup"] + result["timed"]
    problems = checks.failures(prepared, checks.reference(prepared), ops)

    print(f"workload {name}: seed {seed}, {seconds} s, trace {int(trace)}")
    print("environment " + json.dumps(environment(seed), sort_keys=True))
    print("inputs sha256 " + json.dumps(prepared.digests, sort_keys=True))
    if prepared.writes_output:
        digest = hashlib.sha256(ops[0]["output"].encode("utf-8")).hexdigest()
        print(f"output sha256 {digest} (drift digest, informational)")
    for problem in problems:
        print(f"FAILED {problem}")
    print(
        f"error_rate = {len(problems) / len(ops):.6g} ratio "
        f"({len(problems)} failed of {len(ops)} commands)"
    )

    if trace:
        metrics = {
            metric: {"value": result["layers"][metric], "unit": unit}
            for metric, unit, _ in tracing.PER_LAYER
        }
    else:
        timed = result["timed"]
        cpu = [op["cpu_s"] for op in timed]
        print(summary("command CPU time", cpu, "commands after one warm-up"))
        print(summary("command wall time", [op["wall_s"] for op in timed], "commands"))
        print(summary("setup", setup, "launches"))
        print(f"work per command: {prepared.units_rows} rows, {prepared.units_cells} cells")
        values = {
            "us_per_row": statistics.median(cpu) / prepared.units_rows * 1e6,
            "cell_s": statistics.median(cpu) / prepared.units_cells,
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": statistics.median(setup),
        }
        metrics = {
            metric: {"value": values[metric], "unit": unit} for metric, unit, _, _ in END_TO_END
        }
    for metric, entry in metrics.items():
        print(f"{metric} = {entry['value']:.6g} {entry['unit']}")
    return {
        "correct": not problems,
        "attempted": len(ops),
        "failed": len(problems),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    sys.path.insert(0, str(BENCH))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "apsgd" / "cli.py").is_file():
        print(f"error: no apsgd sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
        return 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        for trace in (False, True):
            result = run_workload(name, args.seed, args.seconds, trace)
            print()
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, entry in result["metrics"].items():
                combined["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    # Pin BLAS before numpy is first imported, here and in every child.
    os.environ.update({name: "1" for name in THREAD_VARIABLES})
    sys.exit(main())
