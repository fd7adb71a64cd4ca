"""Output checks: each CLI command either matches its reference or counts as failed.

Tolerances (the reference is computed by ``oracle``, with its own arithmetic):

- ``estimate``: estimates, standard errors, interval bounds and p-values,
  read from the ``--output`` CSV, agree with the reference within
  ``RTOL`` relative plus ``ATOL`` absolute.
- ``spec-test``: kappa and the p-value, printed with six decimals, agree
  within ``PRINTED_ATOL``; df is exact; the exit code is 3 when the
  reference rejects and 0 when it does not (either, with the matching
  decision, when kappa sits on the threshold).
- ``simulate``: the rows, their keys and the seed are exact; a rate may
  differ only by the share of replications the reference marks as on the
  threshold; ``mc_stderr`` is ``sqrt(v (1 - v) / R)`` of the printed value.

ROADMAP allows refactors to drift in the last digits, so these are
tolerances, not byte equality; the SHA-256 of each ``simulate`` CSV is
reported separately as a drift digest.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

import oracle
from workloads import CSV_COLUMNS

RTOL = 1e-7
ATOL = 1e-9
PRINTED_ATOL = 2e-6

EXIT_OK = 0
EXIT_REJECT = 3

SIMULATE_HEADER = "mode,dgp,T,r,coordinate,metric,value,mc_stderr,seed"


def reference(prepared):
    """Reference values for the commands of one prepared workload run."""
    w = prepared.workload
    if w.command == "estimate":
        return oracle.estimate(prepared.data, w.preset)
    if w.command == "spec-test":
        _, _, _, row, _ = oracle.PRESETS[w.preset]
        return oracle.spec_test(prepared.data, w.preset, [row], [0.0], standardize=True)
    return oracle.simulate(prepared.config)


def _close(got, want, rtol=RTOL, atol=ATOL) -> bool:
    return bool(np.all(np.abs(np.asarray(got) - np.asarray(want)) <= atol + rtol * np.abs(want)))


def _check_estimate(op, ref) -> str | None:
    if op["exit_code"] != EXIT_OK:
        return f"exit code {op['exit_code']}, expected {EXIT_OK}"
    rows = list(csv.DictReader(io.StringIO(op["output"])))
    if [r["coefficient"] for r in rows] != list(CSV_COLUMNS[1:]):
        return f"report rows {[r.get('coefficient') for r in rows]}"
    for column in ("estimate", "std_error", "ci_lower", "ci_upper", "p_value"):
        got = [float(r[column]) for r in rows]
        if not _close(got, getattr(ref, column)):
            return f"{column} {got} differs from reference {getattr(ref, column).tolist()}"
    return None


def _printed(stdout: str) -> dict[str, str]:
    fields = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            fields[key.strip()] = value.strip()
    return fields


def _check_spec_test(op, ref) -> str | None:
    fields = _printed(op["stdout"])
    try:
        kappa, df, p_value = float(fields["kappa"]), int(fields["df"]), float(fields["p_value"])
        decision = fields["decision"]
    except (KeyError, ValueError):
        return f"unreadable spec-test output {op['stdout']!r}"
    rejected = decision.startswith("reject")
    if op["exit_code"] != (EXIT_REJECT if rejected else EXIT_OK):
        return f"exit code {op['exit_code']} contradicts decision {decision!r}"
    if not ref.ambiguous and rejected != ref.reject:
        return f"decision {decision!r} but the reference {'rejects' if ref.reject else 'does not'}"
    if df != ref.df:
        return f"df {df}, expected {ref.df}"
    if not _close(kappa, ref.kappa, atol=PRINTED_ATOL):
        return f"kappa {kappa} differs from reference {ref.kappa}"
    if not _close(p_value, ref.p_value, atol=PRINTED_ATOL):
        return f"p_value {p_value} differs from reference {ref.p_value}"
    return None


def _check_simulate(op, ref, seed: int, replications: int) -> str | None:
    if op["exit_code"] != EXIT_OK:
        return f"exit code {op['exit_code']}, expected {EXIT_OK}"
    lines = op["output"].splitlines()
    if not lines or lines[0] != SIMULATE_HEADER:
        return f"header {lines[:1]}"
    rows = list(csv.reader(lines[1:]))
    if len(rows) != len(ref):
        return f"{len(rows)} rows, expected {len(ref)}"
    for row, want in zip(rows, ref):
        try:
            key = (row[0], row[1], int(row[2]), float(row[3]), row[4], row[5])
            value, stderr, row_seed = float(row[6]), float(row[7]), int(row[8])
        except (IndexError, ValueError):
            return f"malformed row {row}"
        if key != want.key or row_seed != seed:
            return f"row {row[:6] + row[8:]} where {list(want.key)} with seed {seed} was expected"
        if abs(value - want.value) > want.slack + ATOL:
            return f"{key}: value {value}, reference {want.value} (slack {want.slack})"
        if not _close(stderr, math.sqrt(value * (1.0 - value) / replications)):
            return f"{key}: mc_stderr {stderr} does not match value {value}"
    return None


def check(prepared, ref, op) -> str | None:
    """Why ``op`` (one recorded CLI command) is wrong, or None when it is right."""
    if op["error"] is not None:
        return f"raised {op['error']}"
    command = prepared.workload.command
    if command == "estimate":
        return _check_estimate(op, ref)
    if command == "spec-test":
        return _check_spec_test(op, ref)
    return _check_simulate(op, ref, prepared.seed, prepared.config["replications"])


def failures(prepared, ref, ops) -> list[str]:
    """One message per failed command; ``len(failures) / len(ops)`` is the error rate."""
    problems = []
    for i, op in enumerate(ops):
        try:
            problem = check(prepared, ref, op)
        except Exception as exc:  # a check that cannot read the output fails the command
            problem = f"output could not be checked: {exc!r}"
        if problem is not None:
            problems.append(f"command {i}: {problem}")
    return problems
