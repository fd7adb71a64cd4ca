"""The command line reports bad data and numerical faults as typed errors only."""

import warnings

import pytest

from apsgd.cli import EXIT_DATA, main


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
