"""The package's public names and what importing it loads."""

import os
import subprocess
import sys
from pathlib import Path

import apsgd

SRC = str(Path(apsgd.__file__).resolve().parent.parent)


def test_every_exported_name_resolves_once():
    assert len(apsgd.__all__) == len(set(apsgd.__all__))
    missing = [name for name in apsgd.__all__ if not hasattr(apsgd, name)]
    assert missing == []


def test_no_exported_name_looks_like_a_test():
    """Pytest collects a ``test*`` function from any test module that imports it."""
    assert [name for name in apsgd.__all__ if name.startswith("test")] == []


def test_the_cli_does_not_import_scipy_linalg_or_stats():
    """Every command line run pays for what ``apsgd.cli`` imports; importing
    ``scipy.linalg`` alone costs tens of milliseconds at start-up."""
    code = (
        "import sys, apsgd.cli; "
        "print(sorted(m for m in ('scipy.linalg', 'scipy.stats') if m in sys.modules))"
    )
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout.strip() == "[]"
