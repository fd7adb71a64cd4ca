"""Runs one workload's CLI commands in-process and records what they did.

Usage: ``python3 bench/worker.py JOB.json`` where the job file holds
``src`` (the directory that contains ``apsgd``), ``argv`` (CLI arguments),
``writes_output``, ``workdir``, ``seconds`` and ``trace``.  The result is
written to ``result.json`` in ``workdir``.

One warm-up command runs first; its output is checked like every other, but
it is not timed, because it also pays for first-call work in the interpreter
and the libraries, which the median should not depend on.  Commands then run
back to back through ``apsgd.cli.main`` until ``seconds`` have passed, at
least ``MIN_COMMANDS`` times.  With tracing on, the first half of the time
runs untraced commands and the second half traced ones, so the tracing
overhead is measured in the same process.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

MIN_COMMANDS = 3

#: Stop starting commands after this long, whatever ``seconds`` says, so a
#: much slower program still ends within the benchmark's time limit.
MAX_SECONDS = 100.0


def run_command(main, argv: list[str], output: Path | None) -> dict:
    """One CLI command: its wall and CPU time, exit code, stdout and written file."""
    if output is not None:
        argv = argv + ["--output", str(output)]
    stdout = io.StringIO()
    error = None
    exit_code = None
    start, start_cpu = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            exit_code = main(argv)
    except (Exception, SystemExit) as exc:  # any escape from the CLI fails the command
        error = repr(exc)
    wall, cpu = time.perf_counter() - start, time.process_time() - start_cpu
    text = output.read_text(encoding="utf-8") if output is not None and output.exists() else ""
    return {
        "wall_s": wall, "cpu_s": cpu, "exit_code": exit_code, "stdout": stdout.getvalue(),
        "output": text, "error": error,
    }


def run_for(main, job: dict, seconds: float, first: int, minimum: int) -> list[dict]:
    """Run commands until ``seconds`` have passed and at least ``minimum`` ran."""
    workdir = Path(job["workdir"])
    ops: list[dict] = []
    start = time.perf_counter()
    while len(ops) < minimum or time.perf_counter() - start < seconds:
        if time.perf_counter() - start > MAX_SECONDS:
            break
        index = first + len(ops)
        output = workdir / f"output_{index}.csv" if job["writes_output"] else None
        ops.append(run_command(main, job["argv"], output))
        if output is not None and output.exists():
            output.unlink()
    return ops


def run(job: dict) -> dict:
    sys.path.insert(0, job["src"])
    import apsgd.cli

    warmup = run_for(apsgd.cli.main, job, 0, 0, 1)
    if not job["trace"]:
        timed = run_for(apsgd.cli.main, job, job["seconds"], 1, MIN_COMMANDS)
        layers = None
    else:
        import tracing

        untraced = run_for(apsgd.cli.main, job, job["seconds"] / 2, 1, 2)
        tracer = tracing.Tracer()
        tracer.install()
        traced = run_for(apsgd.cli.main, job, job["seconds"] / 2, 1 + len(untraced), 2)
        timed = untraced + traced
        layers = tracer.metrics(
            [op["wall_s"] for op in traced],
            [op["cpu_s"] for op in traced],
            [op["cpu_s"] for op in untraced],
        )
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"warmup": warmup, "timed": timed, "peak_rss_mb": peak_kib / 1024.0, "layers": layers}


if __name__ == "__main__":
    job_path = Path(sys.argv[1])
    job = json.loads(job_path.read_text(encoding="utf-8"))
    result = run(job)
    (Path(job["workdir"]) / "result.json").write_text(json.dumps(result), encoding="utf-8")
