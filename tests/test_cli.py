"""The command line reports bad data and numerical faults as typed errors only."""

import io
import re
import sys
import tempfile
import warnings

import numpy as np
import pytest

from apsgd import LearningRate, ingest
from apsgd.cli import EXIT_DATA, EXIT_OK, EXIT_REJECT, build_parser, main
from apsgd.simulate import PRESETS, draw_block, parse_config_text, replication_rng, run_experiment


def run(argv, capsys):
    """Exit code and standard error of ``apsgd argv``, with warnings as errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    return code, capsys.readouterr().err


def test_non_finite_cell_names_line_and_column(tmp_path, capsys):
    path = tmp_path / "nan.csv"
    path.write_text("y,x1\n1.0,2.0\n2.0,nan\n3.0,1.0\n", encoding="utf-8")
    code, err = run(["estimate", str(path), "--model", "linear"], capsys)
    assert code == EXIT_DATA
    assert err == "apsgd: error: line 3: column 'x1' is not a finite number: 'nan'\n"


@pytest.mark.parametrize("standardize", [[], ["--standardize"]])
def test_overflow_is_one_error_line_without_a_runtime_warning(tmp_path, capsys, standardize):
    path = tmp_path / "big.csv"
    path.write_text("y,x1\n1.0,2.0\n2.0,1e200\n3.0,-1e200\n", encoding="utf-8")
    code, err = run(["estimate", str(path), "--model", "linear", *standardize], capsys)
    assert code == EXIT_DATA
    assert err.startswith("apsgd: error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["estimate", "spec-test"])
def test_stream_errors_name_the_observation(tmp_path, capsys, command):
    """Both data commands step their streams through one loop that names the
    observation at which a numerical fault arose."""
    path = tmp_path / "big.csv"
    path.write_text("y,x1\n1.0,2.0\n2.0,1e200\n3.0,-1e200\n", encoding="utf-8")
    constraint = tmp_path / "constraint.txt"
    constraint.write_text("x1 = 0\n", encoding="utf-8")
    argv = [command, str(path), "--model", "linear"]
    if command == "spec-test":
        argv += ["--constraint", str(constraint)]
    code, err = run(argv, capsys)
    assert code == EXIT_DATA
    assert re.fullmatch(r"apsgd: error: observation 1: non-finite .* at step 2.*\n", err)


@pytest.mark.parametrize("command", ["estimate", "spec-test"])
def test_learning_rate_defaults_are_the_schedule_defaults(command):
    args = build_parser().parse_args([command, "data.csv", "--model", "linear"])
    assert LearningRate(gamma=args.gamma, rho=args.rho) == LearningRate()


def linear_csv(rows: int = 300) -> str:
    rng = np.random.default_rng(4)
    x = rng.normal(size=(rows, 3))
    y = x @ [1.0, -0.5, -0.5] + rng.normal(size=rows)
    lines = ["y,x1,x2,x3"] + [",".join(map(repr, row)) for row in np.column_stack([y, x]).tolist()]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", "--model", "linear", "--shuffle-seed", "3"],
        ["spec-test", "--model", "linear", "--standardize"],
    ],
    ids=["estimate_shuffled", "spec_test_standardized"],
)
def test_stdin_matches_the_same_file_by_path(tmp_path, capsys, monkeypatch, argv):
    """``-`` reads the CSV from standard input, which is buffered once so
    that the schema's first row and the data can both be read; both
    commands print the same bytes and write the same report as from the
    file's path."""
    text = linear_csv()
    path = tmp_path / "data.csv"
    path.write_text(text, encoding="utf-8")
    constraint = tmp_path / "constraint.txt"
    constraint.write_text("x2 - x3 = 0\n", encoding="utf-8")
    command, *options = argv
    options += ["--constraint", str(constraint)]

    def outputs(source, report):
        extra = ["--output", str(report)] if command == "estimate" else []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, source, *options, *extra])
        captured = capsys.readouterr()
        assert captured.err == ""
        return code, captured.out, report.read_bytes() if extra else b""

    by_path = outputs(str(path), tmp_path / "by_path.csv")
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    from_stdin = outputs("-", tmp_path / "from_stdin.csv")
    assert by_path[1].startswith("T = 300" if command == "estimate" else "kappa = ")
    assert from_stdin == by_path


def test_spec_test_stdout_is_pinned(tmp_path, capsys):
    """``spec-test --standardize`` on a seeded 600-row logistic CSV prints the
    bytes recorded before its two streams were paired into one state."""
    rows = draw_block(PRESETS["logistic"].spec(0.0), replication_rng(5, 0, 0), 600)
    path = tmp_path / "data.csv"
    path.write_text(
        "y,x1,x2,x3,x4\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows.tolist()),
        encoding="utf-8",
    )
    constraint = tmp_path / "constraint.txt"
    constraint.write_text("x2 - x3 = 0\n", encoding="utf-8")
    argv = ["spec-test", str(path), "--model", "logistic", "--constraint", str(constraint)]
    assert main(argv + ["--standardize"]) == EXIT_OK
    assert capsys.readouterr().out == (
        "kappa = 2.778754\ndf = 1\np_value = 0.095522\n"
        "decision = fail to reject at alpha = 0.05\n"
    )


def test_simulate_reports_each_cell_on_stderr_only(tmp_path, capsys):
    """One stderr line per ``(T, r)`` cell with its wall time; standard
    output and the result CSV do not depend on the timings."""
    text = (
        "mode = size_power\npreset = linear\nsample_sizes = 300, 600\n"
        "replications = 4\nbase_seed = 2\nr_grid = 0.0, 0.05, 0.1\n"
    )
    config = tmp_path / "experiment.cfg"
    config.write_text(text, encoding="utf-8")

    def simulate(name):
        output = tmp_path / name
        assert main(["simulate", str(config), "--output", str(output)]) == EXIT_OK
        captured = capsys.readouterr()
        return captured.out, output.read_bytes(), captured.err.splitlines()

    first, second = simulate("a.csv"), simulate("b.csv")
    assert first[:2] == second[:2]
    assert first[1].decode() == run_experiment(parse_config_text(text)).to_csv_text()
    cells = [f"T = {T}, r = {r}" for T in (300, 600) for r in ("0", "0.05", "0.1")]
    for err in (first[2], second[2]):
        assert len(err) == len(cells) + 1
        for line, cell in zip(err, cells):
            assert re.fullmatch(rf"cell {cell}: \d+\.\d{{3}}s, \d+\.\d ns per step\*rep", line)
        assert re.fullmatch(r"wall clock: \d+\.\ds", err[-1])


@pytest.mark.parametrize(
    "options, bad_cell, expected",
    [
        (["estimate", "--model", "linear"], False, EXIT_OK),
        (["estimate", "--model", "linear", "--shuffle-seed", "3"], False, EXIT_OK),
        (["spec-test", "--model", "linear"], False, EXIT_REJECT),
        (["estimate", "--model", "linear"], True, EXIT_DATA),
        (["estimate", "--model", "linear", "--schema", "response=none"], False, EXIT_DATA),
        (["spec-test", "--model", "logistic"], False, EXIT_DATA),
    ],
    ids=["estimate", "shuffled", "spec_test", "bad_cell", "no_response", "bad_label"],
)
def test_standardize_closes_its_one_spill_file(
    tmp_path, capsys, monkeypatch, options, bad_cell, expected
):
    """``--standardize`` opens one spill file and closes it on success and on
    an error in the first pass, between the passes and in the stream (a
    logistic label that is not +-1)."""
    text = linear_csv()
    if bad_cell:
        text = text.replace("\n", "\nnan,1,2,3\n", 1)
    path = tmp_path / "data.csv"
    path.write_text(text, encoding="utf-8")
    constraint = tmp_path / "constraint.txt"
    constraint.write_text("x2 - x3 = 0\n", encoding="utf-8")
    spills = []

    def temporary_file(make=tempfile.TemporaryFile):
        spills.append(make())
        return spills[-1]

    monkeypatch.setattr(ingest.tempfile, "TemporaryFile", temporary_file)
    command, *rest = options
    argv = [command, str(path), "--standardize", "--constraint", str(constraint), *rest]
    code, _ = run(argv, capsys)
    assert code == expected
    assert len(spills) == 1 and spills[0].closed


def test_coordinate_pinned_by_a_combination_has_no_p_value(tmp_path, capsys):
    """``x1 - x2 = 0`` and ``x1 + x2 = 0`` pin both coordinates: standard
    error 0 and no p-value or significance marker, although rounding leaves
    entries of about 1e-17 in their columns of the projection."""
    path = tmp_path / "data.csv"
    path.write_text(linear_csv(), encoding="utf-8")
    constraint = tmp_path / "constraint.txt"
    constraint.write_text("x1 - x2 = 0\nx1 + x2 = 0\n", encoding="utf-8")
    report = tmp_path / "report.csv"
    argv = ["estimate", str(path), "--model", "linear", "--constraint", str(constraint)]
    assert main(argv + ["--output", str(report)]) == EXIT_OK
    table = capsys.readouterr().out.splitlines()
    for name in ("x1", "x2"):
        line = next(line for line in table if line.startswith(name))
        assert line.split()[2:] == ["0.0000", "--"]
    rows = report.read_text(encoding="utf-8").splitlines()[1:3]
    assert [row.split(",")[2] for row in rows] == ["0.0", "0.0"]
    assert [row.split(",")[5] for row in rows] == ["nan", "nan"]
