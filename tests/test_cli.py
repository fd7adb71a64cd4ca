"""The command line reports bad data and numerical faults as typed errors only."""

import builtins
import contextlib
import hashlib
import io
import os
import re
import sys
import tempfile
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest

from apsgd import LearningRate, NumericalError, cli, ingest, simulate
from apsgd.cli import (
    EXIT_DATA,
    EXIT_OK,
    EXIT_REJECT,
    EXIT_USAGE,
    build_parser,
    main,
    significance_marker,
)
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
    path.write_text("y,x1,x2\n1.0,2.0,1.0\n2.0,1e200,1e308\n3.0,-1e200,1e308\n", encoding="utf-8")
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


def test_a_fault_at_an_earlier_step_is_named_before_a_later_bad_cell(tmp_path, capsys):
    """Row 300 overflows the iterate and line 4000 holds a bad cell.  Both
    are read in one chunk of lines, but the estimator fails on row 300 before
    the reader names line 4000, as when each block is parsed alone."""
    rows = [f"{i % 7}.0,{i % 5}.0" for i in range(5000)]
    rows[299] = "2.0,1e200"
    rows[3998] = "1.0,oops"
    path = tmp_path / "late.csv"
    path.write_text("y,x1\n" + "\n".join(rows) + "\n", encoding="utf-8")
    code, err = run(["estimate", str(path), "--model", "linear"], capsys)
    assert code == EXIT_DATA
    assert re.fullmatch(r"apsgd: error: observation 299: non-finite .* at step 300.*\n", err)


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
    """``-`` reads the CSV from standard input in one pass, as a path is
    read; both commands print the same bytes and write the same report as
    from the file's path."""
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


def feed_fifo(path, data: bytes, done: threading.Event) -> None:
    """Write ``data`` once into the named pipe at ``path`` and close it.

    A reader that opens the pipe again would wait for a writer forever, so
    until ``done`` is set any such reader is released with an end of file.
    """
    fd = None
    while fd is None:  # without a reader the open fails (ENXIO) rather than block
        try:
            fd = os.open(path, os.O_WRONLY | os.O_NONBLOCK)
        except OSError:
            if done.wait(0.01):
                return
    os.set_blocking(fd, True)
    view = memoryview(data)
    try:
        while view:
            view = view[os.write(fd, view):]
    except BrokenPipeError:
        pass
    finally:
        os.close(fd)
    while not done.wait(0.05):
        with contextlib.suppress(OSError):
            os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))


@pytest.mark.parametrize(
    "argv",
    [["estimate", "--model", "linear"], ["spec-test", "--model", "linear", "--standardize"]],
    ids=["estimate", "spec_test_standardized"],
)
def test_named_pipe_matches_the_same_file_by_path(tmp_path, capsys, argv):
    """A named pipe (or ``<(...)`` in a shell) can be read only once: all
    3000 rows reach the stream, and both commands print the same bytes and
    write the same report as from the file's path."""
    text = linear_csv(3000)
    path = tmp_path / "data.csv"
    path.write_text(text, encoding="utf-8")
    fifo = tmp_path / "data.fifo"
    os.mkfifo(fifo)
    constraint = tmp_path / "constraint.txt"
    constraint.write_text("x2 - x3 = 0\n", encoding="utf-8")
    command, *options = argv
    options += ["--constraint", str(constraint)]

    def outputs(source, report):
        extra = ["--output", str(report)] if command == "estimate" else []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([command, str(source), *options, *extra])
        captured = capsys.readouterr()
        return code, captured.err, captured.out, report.read_bytes() if report.exists() else b""

    by_path = outputs(path, tmp_path / "by_path.csv")
    done = threading.Event()
    writer = threading.Thread(target=feed_fifo, args=(fifo, text.encode(), done))
    writer.start()
    try:
        from_fifo = outputs(fifo, tmp_path / "from_fifo.csv")
    finally:
        done.set()
        writer.join(10)
    assert not writer.is_alive()
    assert by_path[2].startswith("T = 3000" if command == "estimate" else "kappa = ")
    assert from_fifo == by_path


@pytest.mark.parametrize(
    "options",
    [[], ["--standardize"], ["--shuffle-seed", "3"], ["--standardize", "--shuffle-seed", "3"]],
    ids=["plain", "standardized", "shuffled", "standardized_shuffled"],
)
@pytest.mark.parametrize("command", ["estimate", "spec-test"])
def test_each_command_opens_its_data_file_once(tmp_path, capsys, monkeypatch, command, options):
    path = tmp_path / "data.csv"
    path.write_text(linear_csv(), encoding="utf-8")
    constraint = tmp_path / "constraint.txt"
    constraint.write_text("x2 - x3 = 0\n", encoding="utf-8")
    opened = []

    def counting_open(file, *args, _open=open, **kwargs):
        opened.append(file)
        return _open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    argv = [command, str(path), "--model", "linear", "--constraint", str(constraint), *options]
    code, _ = run(argv, capsys)
    monkeypatch.undo()
    assert code in (EXIT_OK, EXIT_REJECT)
    assert opened.count(str(path)) == 1


def test_alpha_outside_the_unit_interval_exits_with_a_data_error(tmp_path, capsys):
    """``--alpha 1.5`` would give intervals with their ends swapped."""
    path = tmp_path / "data.csv"
    path.write_text(linear_csv(200), encoding="utf-8")
    report = tmp_path / "report.csv"
    argv = ["estimate", str(path), "--model", "linear", "--alpha", "1.5", "--output", str(report)]
    code, err = run(argv, capsys)
    assert code == EXIT_DATA
    assert err == "apsgd: error: alpha must lie strictly in (0, 1), got 1.5\n"
    assert not report.exists()


@pytest.mark.parametrize(
    "option, message",
    [
        (["--alpha", "1.5"], "alpha must lie strictly in (0, 1), got 1.5"),
        (["--gamma", "-1"], "gamma must be positive and finite, got -1.0"),
        (["--rho", "1.5"], "rho must lie strictly in (1/2, 1), got 1.5"),
    ],
    ids=["alpha", "gamma", "rho"],
)
@pytest.mark.parametrize("command", ["estimate", "spec-test"])
def test_alpha_is_checked_before_the_data_are_opened(tmp_path, capsys, command, option, message):
    """A bad ``--alpha``, ``--gamma`` or ``--rho`` is named before a missing
    data file would be."""
    constraint = tmp_path / "constraint.txt"
    constraint.write_text("x1 = 0\n", encoding="utf-8")
    argv = [command, str(tmp_path / "missing.csv"), "--model", "linear", *option]
    if command == "spec-test":
        argv += ["--constraint", str(constraint)]
    code, err = run(argv, capsys)
    assert code == EXIT_DATA
    assert err == f"apsgd: error: {message}\n"


def test_spec_test_stdout_is_pinned(tmp_path, capsys):
    """``spec-test --standardize`` on a seeded 600-row logistic CSV prints
    these bytes."""
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


@pytest.mark.parametrize(
    "preset, constraint, digest",
    [
        (
            "linear", "x2 + x3 + x4 = 0\n",
            "606c34074a6e8f35a24bce639439c8dbcce7a1d661f4b5589b3b43161b87123a",
        ),
        ("logistic", None, "61bc2714b70f04e272e77e959fd584322cb2f7640c2baf199d8ba0ffa79c9e5d"),
    ],
    ids=["constrained_linear", "free_logistic"],
)
def test_estimate_output_is_pinned(tmp_path, capsys, preset, constraint, digest):
    """``estimate --output`` on a seeded 2000-row CSV writes these bytes: a
    constrained linear fit and a free logistic one, each a ``(p,)`` stream
    walked block by block."""
    rows = draw_block(PRESETS[preset].spec(0.0), replication_rng(7, 0, 0), 2000)
    path = tmp_path / "data.csv"
    path.write_text(
        "y,x1,x2,x3,x4\n" + "".join(",".join(map(repr, row)) + "\n" for row in rows.tolist()),
        encoding="utf-8",
    )
    report = tmp_path / "report.csv"
    argv = ["estimate", str(path), "--model", preset, "--output", str(report)]
    if constraint is not None:
        (tmp_path / "constraint.txt").write_text(constraint, encoding="utf-8")
        argv += ["--constraint", str(tmp_path / "constraint.txt")]
    assert main(argv) == EXIT_OK
    capsys.readouterr()
    assert hashlib.sha256(report.read_bytes()).hexdigest() == digest


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


def test_fully_pinned_constraint_fits_and_tests(tmp_path, capsys):
    """Three rows pinning all three coefficients leave no free direction
    (d = 0): ``estimate`` reports standard errors 0 and no p-values, and
    ``spec-test`` has df = p = 3."""
    path = tmp_path / "data.csv"
    path.write_text(linear_csv(), encoding="utf-8")
    constraint = tmp_path / "constraint.txt"
    constraint.write_text("x1 = 1\nx2 - x3 = 0\nx2 + x3 = -1\n", encoding="utf-8")
    argv = [str(path), "--model", "linear", "--constraint", str(constraint)]
    assert main(["estimate", *argv]) == EXIT_OK
    table = capsys.readouterr().out.splitlines()
    for name, value in (("x1", "1.0000"), ("x2", "-0.5000"), ("x3", "-0.5000")):
        line = next(line for line in table if line.startswith(name))
        assert line.split()[1:] == [value, "0.0000", "--"]
    assert main(["spec-test", *argv]) in (EXIT_OK, EXIT_REJECT)
    assert "df = 3\n" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, code, line",
    [
        (["estimate", "{d}/data.csv"], EXIT_USAGE,
         "apsgd estimate: error: the following arguments are required: --model"),
        (["spec-test", "{d}/data.csv", "--model", "linear"], EXIT_USAGE,
         "apsgd: error: spec-test requires a constraint file (got 'none')"),
        (["estimate", "{d}/empty.csv", "--model", "linear"], EXIT_DATA,
         "apsgd: error: {d}/empty.csv: file is empty"),
        (["estimate", "{d}/one_row.csv", "--model", "linear", "--standardize"], EXIT_DATA,
         "apsgd: error: {d}/one_row.csv: need at least 2 data rows, got 1"),
        (["estimate", "{d}/data.csv", "--model", "linear", "--schema", "header=maybe"], EXIT_DATA,
         "apsgd: error: schema header must be yes/no/auto, got 'maybe'"),
        (["estimate", "{d}/missing.csv", "--model", "linear"], EXIT_DATA,
         "apsgd: error: cannot open {d}/missing.csv: [Errno 2] No such file or directory: "
         "'{d}/missing.csv'"),
        (["estimate", "{d}/data.csv", "--model", "linear", "--constraint", "{d}/missing.txt"],
         EXIT_DATA,
         "apsgd: error: cannot open constraint file {d}/missing.txt: [Errno 2] No such file "
         "or directory: '{d}/missing.txt'"),
        (["spec-test", "{d}/data.csv", "--model", "linear", "--constraint", "{d}/latin1.txt"],
         EXIT_DATA,
         "apsgd: error: cannot open constraint file {d}/latin1.txt: 'utf-8' codec can't "
         "decode byte 0xe9 in position 7: invalid continuation byte"),
        (["estimate", "{d}/data.csv", "--model", "linear", "--gamma", "inf"], EXIT_DATA,
         "apsgd: error: gamma must be positive and finite, got inf"),
        (["estimate", "{d}/data.csv", "--model", "linear", "--output", "{d}/no/report.csv"],
         EXIT_DATA, "apsgd: error: cannot write {d}/no/report.csv: No such file or directory"),
        (["simulate", "{d}/missing.cfg", "--output", "{d}/out.csv"], EXIT_DATA,
         "apsgd: error: cannot read config {d}/missing.cfg: [Errno 2] No such file or "
         "directory: '{d}/missing.cfg'"),
        (["simulate", "{d}/latin1.cfg", "--output", "{d}/out.csv"], EXIT_DATA,
         "apsgd: error: cannot read config {d}/latin1.cfg: 'utf-8' codec can't decode byte "
         "0xe9 in position 18: invalid continuation byte"),
        (["simulate", "{d}/rho.cfg", "--output", "{d}/out.csv"], EXIT_DATA,
         "apsgd: error: {d}/rho.cfg: rho must lie strictly in (1/2, 1), got 0.4"),
        (["simulate", "table_s1_desk", "--output", "{d}/out.csv", "--seed", "-1"], EXIT_DATA,
         "apsgd: error: base_seed must be >= 0, got -1"),
        (["simulate", "{d}/seed.cfg", "--output", "{d}/out.csv"], EXIT_DATA,
         "apsgd: error: {d}/seed.cfg: base_seed must be >= 0, got -1"),
        (["estimate", "{d}/data.csv", "--model", "linear", "--shuffle-seed", "-2"], EXIT_DATA,
         "apsgd: error: shuffle seed must be >= 0, got -2"),
    ],
    ids=[
        "usage", "spec_test_without_constraint", "empty_file", "one_row_standardized",
        "bad_header", "missing_data", "missing_constraint", "non_utf8_constraint",
        "infinite_gamma",
        "unwritable_report", "missing_config", "non_utf8_config", "config_rho",
        "negative_seed", "config_negative_seed", "negative_shuffle_seed",
    ],
)
def test_each_error_exits_with_its_code_and_one_line(tmp_path, capsys, argv, code, line):
    """A usage error exits 1 and a data or configuration error 2 with one
    ``error:`` line on stderr (after argparse's usage line for a parse
    error), and no output file is left behind."""
    (tmp_path / "data.csv").write_text(linear_csv(20), encoding="utf-8")
    (tmp_path / "empty.csv").write_text("", encoding="utf-8")
    (tmp_path / "one_row.csv").write_text("y,x1\n1.0,2.0\n", encoding="utf-8")
    (tmp_path / "latin1.cfg").write_bytes("mode = coverage # \xe9\n".encode("latin-1"))
    (tmp_path / "latin1.txt").write_bytes("x1 - x2\xe9 = 0\n".encode("latin-1"))
    config = "mode = coverage\npreset = linear\nsample_sizes = 10\nreplications = 2\n"
    (tmp_path / "rho.cfg").write_text(config + "rho = 0.4\n", encoding="utf-8")
    (tmp_path / "seed.cfg").write_text(config + "base_seed = -1\n", encoding="utf-8")
    before = set(os.listdir(tmp_path))
    try:
        got, err = run([arg.format(d=tmp_path) for arg in argv], capsys)
    except SystemExit as exc:  # argparse's usage errors
        got, err = exc.code, capsys.readouterr().err
    assert got == code
    assert err.splitlines()[-1] == line.format(d=tmp_path)
    assert code == EXIT_USAGE or err.count("\n") == 1
    assert set(os.listdir(tmp_path)) == before


@pytest.mark.parametrize("p_value, marker", [(0.01, "*"), (0.07, "•"), (0.5, ""), (np.nan, "")])
def test_significance_marker(p_value, marker):
    assert significance_marker(p_value) == marker


SMALL_CONFIG = "mode = size_power\npreset = linear\nsample_sizes = 200\nreplications = 3\n"


def test_simulate_seed_overrides_the_config(tmp_path, capsys):
    config = tmp_path / "experiment.cfg"
    config.write_text(SMALL_CONFIG, encoding="utf-8")
    output = tmp_path / "out.csv"
    assert main(["simulate", str(config), "--output", str(output), "--seed", "5"]) == EXIT_OK
    expected = run_experiment(replace(parse_config_text(SMALL_CONFIG), base_seed=5))
    assert output.read_text(encoding="utf-8") == expected.to_csv_text()
    assert "seed = 5" in capsys.readouterr().out


def test_simulate_full_swaps_in_the_full_grid(tmp_path, capsys, monkeypatch):
    """``--full`` replaces the config's sample sizes and replication count
    with the full grid's, here shrunk to a tiny one."""
    monkeypatch.setattr(simulate, "FULL_SAMPLE_SIZES", (300, 600))
    monkeypatch.setattr(simulate, "FULL_REPLICATIONS", 4)
    config = tmp_path / "experiment.cfg"
    config.write_text(SMALL_CONFIG, encoding="utf-8")
    output = tmp_path / "out.csv"
    assert main(["simulate", str(config), "--output", str(output), "--full"]) == EXIT_OK
    rows = output.read_text(encoding="utf-8").splitlines()[1:]
    assert sorted({int(row.split(",")[2]) for row in rows}) == [300, 600]
    expected = replace(parse_config_text(SMALL_CONFIG), sample_sizes=(300, 600), replications=4)
    assert output.read_text(encoding="utf-8") == run_experiment(expected).to_csv_text()
    assert "replications = 4" in capsys.readouterr().out


def test_simulate_checks_its_output_before_the_first_cell(tmp_path, capsys, monkeypatch):
    config = tmp_path / "experiment.cfg"
    config.write_text(SMALL_CONFIG, encoding="utf-8")
    monkeypatch.setattr(cli, "run_experiment", lambda config: pytest.fail("a cell ran"))
    output = tmp_path / "missing" / "out.csv"
    code, err = run(["simulate", str(config), "--output", str(output)], capsys)
    assert code == EXIT_DATA
    assert err == f"apsgd: error: cannot write {output}: No such file or directory\n"


@pytest.mark.parametrize("command", ["estimate", "simulate"])
def test_a_failing_command_leaves_no_output_file(tmp_path, capsys, monkeypatch, command):
    """The output is claimed before the work; a failure removes a file that
    the command created and leaves one that existed untouched."""
    if command == "estimate":
        data = tmp_path / "data.csv"
        data.write_text("y,x1\n1.0,2.0\n2.0,oops\n", encoding="utf-8")
        argv = ["estimate", str(data), "--model", "linear"]
    else:
        (tmp_path / "experiment.cfg").write_text(SMALL_CONFIG, encoding="utf-8")
        argv = ["simulate", str(tmp_path / "experiment.cfg")]

        def fail(config):
            raise NumericalError("a cell failed")

        monkeypatch.setattr(cli, "run_experiment", fail)
    created, kept = tmp_path / "created.csv", tmp_path / "kept.csv"
    kept.write_text("old report\n", encoding="utf-8")
    for output in (created, kept):
        code, err = run(argv + ["--output", str(output)], capsys)
        assert code == EXIT_DATA and err.count("\n") == 1
    assert not created.exists()
    assert kept.read_text(encoding="utf-8") == "old report\n"
