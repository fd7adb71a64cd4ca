"""Command-line interface: streaming fits, constraint tests, experiments.

Exit codes are part of the contract so shell scripts can sequence tests:
0 success (for ``spec-test``: fail to reject), 1 usage error, 2 data or
configuration error, 3 constraint rejected.  Only diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from dataclasses import replace

from . import ingest
from .estimator import EstimatorState, LearningRate
from .exceptions import ApsgdError, DataError
from .inference import InferenceReport, _check_alpha, coordinate_report, specification_test
from .linalg import Constraint
from .models import MODEL_FAMILIES
from .simulate import full_scale, resolve_config, run_experiment

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_REJECT = 3


def significance_marker(p_value: float) -> str:
    """``*`` below 0.05, a bullet below 0.1, nothing otherwise (or for NaN)."""
    if math.isnan(p_value):
        return ""
    if p_value < 0.05:
        return "*"
    if p_value < 0.1:
        return "•"
    return ""


class _Parser(argparse.ArgumentParser):
    """ArgumentParser whose usage failures exit with code 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _add_data_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("data", help="CSV file, or '-' for stdin")
    sub.add_argument(
        "--model", required=True, choices=sorted(MODEL_FAMILIES),
        help="loss family fitted to each observation",
    )
    sub.add_argument(
        "--constraint", default="none",
        help="constraint file (shorthand or matrix format), or 'none'",
    )
    sub.add_argument("--gamma", type=float, default=LearningRate.gamma, help="learning-rate scale")
    sub.add_argument("--rho", type=float, default=LearningRate.rho, help="learning-rate decay in (1/2, 1)")
    sub.add_argument("--alpha", type=float, default=0.05, help="significance level")
    sub.add_argument(
        "--schema", default="",
        help="column layout, e.g. 'response=RMSD;features=F1,F2;header=auto'",
    )
    sub.add_argument(
        "--standardize", action="store_true",
        help="standardize the features (response untouched); the first pass "
        "parses the file and the stream replays its parsed blocks",
    )
    sub.add_argument(
        "--shuffle-seed", type=int, default=None,
        help="permute row order reproducibly before streaming",
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="apsgd", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    est = commands.add_parser(
        "estimate", help="stream a constrained fit and report coefficient inference"
    )
    _add_data_options(est)
    est.add_argument("--output", default=None, help="also write the report as CSV")
    est.set_defaults(func=cmd_estimate)

    test = commands.add_parser(
        "spec-test", help="test the constraint against the unconstrained fit"
    )
    _add_data_options(test)
    test.set_defaults(func=cmd_spec_test)

    sim = commands.add_parser("simulate", help="run a Monte Carlo experiment config")
    sim.add_argument("config", help="bundled config name or a path to one")
    sim.add_argument("--output", required=True, help="destination CSV")
    sim.add_argument(
        "--full", action="store_true",
        help="swap the desk-scale grid for the full one (hours of compute)",
    )
    sim.add_argument("--seed", type=int, default=None, help="override the config's base seed")
    sim.set_defaults(func=cmd_simulate)
    return parser


def _format_table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [
        max(len(headers[i]), max((len(r[i]) for r in rows), default=0))
        for i in range(len(headers))
    ]
    def fmt(cells):
        first = cells[0].ljust(widths[0])
        rest = [c.rjust(w) for c, w in zip(cells[1:], widths[1:])]
        return "  ".join([first] + rest).rstrip()
    return "\n".join([fmt(headers)] + [fmt(r) for r in rows])


@contextlib.contextmanager
def _prepare_stream(args):
    """Shared ingestion: yields (model, constraint, schedule, names, blocks).

    The data are read in one pass over the input.  With ``--standardize``
    the blocks are replayed from the standardization pass's spill file.
    The input and the spill are closed when the caller's ``with`` exits.
    ``--alpha``, ``--gamma`` and ``--rho`` are checked before the input is
    opened.
    """
    _check_alpha(args.alpha)
    schedule = LearningRate(gamma=args.gamma, rho=args.rho)
    schema = ingest.parse_schema(args.schema)
    with contextlib.ExitStack() as stack:
        source = stack.enter_context(contextlib.closing(ingest.RowSource(args.data)))
        resolved = ingest.resolve_schema(source, schema)
        family = args.model
        needs_response = family != "mean"
        p = len(resolved.feature_indices)
        model = MODEL_FAMILIES[family](p)
        if args.constraint == "none":
            constraint = Constraint.unconstrained(p)
        else:
            constraint = ingest.load_constraint(args.constraint, resolved.feature_names)
        moments = None
        if args.standardize:
            moments = stack.enter_context(ingest.feature_moments(source, resolved))
        blocks = ingest.load_observations(
            source, resolved, needs_response, moments, shuffle_seed=args.shuffle_seed
        )
        yield model, constraint, schedule, resolved.feature_names, blocks


@contextlib.contextmanager
def _output(path: str | None):
    """Yield ``write(text)``, which writes ``path`` whole (nothing without a path).

    ``path`` is opened for appending before the work starts, so that an
    unwritable one fails first while an existing file keeps its bytes until
    ``write``.  A command that fails removes the file if it created it.
    """
    def write(text: str, mode: str = "w") -> None:
        if path is None:
            return
        try:
            with open(path, mode, encoding="utf-8", newline="\n") as handle:
                handle.write(text)
        except OSError as exc:
            raise DataError(f"cannot write {path}: {exc.strerror}") from exc

    created = path is not None and not os.path.lexists(path)
    write("", "a")
    try:
        yield write
    except BaseException:
        if created:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise


def _print_report(report: InferenceReport) -> None:
    rows = []
    for name, est, se, p_value in zip(report.names, report.theta_bar, report.std_error, report.p_value):
        p_txt = "--" if math.isnan(p_value) else f"{p_value:.4f}"
        rows.append([name, f"{est:.4f}", f"{se:.4f}", p_txt, significance_marker(p_value)])
    print(f"T = {report.sample_size} observations, alpha = {report.alpha}")
    print(_format_table(["coefficient", "estimate", "std_error", "p_value", ""], rows))


def _report_csv_text(report: InferenceReport) -> str:
    columns = (report.theta_bar, report.std_error, report.ci_lower, report.ci_upper, report.p_value)
    lines = ["coefficient,estimate,std_error,ci_lower,ci_upper,p_value"]
    # tolist() gives Python floats, whose repr is the shortest round-trip text
    for name, *values in zip(report.names, *(column.tolist() for column in columns)):
        lines.append(",".join([name, *map(repr, values)]))
    return "\n".join(lines) + "\n"


def cmd_estimate(args) -> int:
    with _output(args.output) as write:
        with _prepare_stream(args) as (model, constraint, schedule, names, blocks):
            state = EstimatorState(model, constraint, schedule).run_stream(blocks)
        report = coordinate_report(state, alpha=args.alpha, names=list(names))
        _print_report(report)
        write(_report_csv_text(report))
    return EXIT_OK


def cmd_spec_test(args) -> int:
    if args.constraint == "none":
        print(
            "apsgd: error: spec-test requires a constraint file (got 'none')",
            file=sys.stderr,
        )
        return EXIT_USAGE
    with _prepare_stream(args) as (model, constraint, schedule, _, blocks):
        result = specification_test(blocks, model, constraint, schedule=schedule, alpha=args.alpha)
    decision = "reject" if result.reject else "fail to reject"
    print(f"kappa = {result.kappa:.6f}")
    print(f"df = {result.df}")
    print(f"p_value = {result.p_value:.6f}")
    print(f"decision = {decision} at alpha = {result.alpha}")
    return EXIT_REJECT if result.reject else EXIT_OK


def cmd_simulate(args) -> int:
    config = resolve_config(args.config)
    if args.seed is not None:
        config = replace(config, base_seed=args.seed)
    if args.full:
        config = full_scale(config)
    with _output(args.output) as write:
        result = run_experiment(config)
        write(result.to_csv_text())
    print(
        f"mode = {config.mode}, preset = {config.preset}, "
        f"replications = {config.replications}, seed = {config.base_seed}"
    )
    rows = [
        [
            str(row.T),
            f"{row.r:g}",
            row.coordinate or "-",
            row.metric,
            f"{row.value:.4f}",
            f"{row.mc_stderr:.4f}",
        ]
        for row in result.rows
    ]
    print(_format_table(["T", "r", "coordinate", "metric", "value", "mc_stderr"], rows))
    for (T, r), seconds in result.cell_seconds.items():
        ns = seconds * 1e9 / (T * config.replications)
        print(f"cell T = {T}, r = {r:g}: {seconds:.3f}s, {ns:.1f} ns per step*rep", file=sys.stderr)
    print(f"wall clock: {result.wall_clock:.1f}s", file=sys.stderr)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ApsgdError as exc:
        print(f"apsgd: error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
