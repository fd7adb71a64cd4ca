"""The command line reports bad data and numerical faults as typed errors only."""

import re
import warnings

import pytest

from apsgd import LearningRate
from apsgd.cli import EXIT_DATA, build_parser, main


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
