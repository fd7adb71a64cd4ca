"""The package's public names and what importing it loads."""

import functools
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import apsgd

SRC = str(Path(apsgd.__file__).resolve().parent.parent)

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_exported_name_resolves_once():
    assert len(apsgd.__all__) == len(set(apsgd.__all__))
    missing = [name for name in apsgd.__all__ if not hasattr(apsgd, name)]
    assert missing == []


def test_no_exported_name_looks_like_a_test():
    """Pytest collects a ``test*`` function from any test module that imports it."""
    assert [name for name in apsgd.__all__ if name.startswith("test")] == []


def test_the_cli_does_not_import_scipy_linalg_or_stats():
    """Every command line run pays for what ``apsgd.cli`` imports; importing
    ``scipy.linalg`` alone costs tens of milliseconds at start-up.  The
    process pool, and the ``multiprocessing`` it loads, is imported only by a
    Monte Carlo run with ``workers > 1``."""
    unwanted = ("scipy.linalg", "scipy.stats", "concurrent.futures.process", "multiprocessing")
    code = f"import sys, apsgd.cli; print(sorted(m for m in {unwanted} if m in sys.modules))"
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert done.stdout.strip() == "[]"


def bench_module(name: str, monkeypatch):
    """``bench/<name>.py``, loaded under a name of its own that is registered
    (dataclasses look their module up) until the test ends."""
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_benchmark_reads_resolves(monkeypatch):
    """The benchmark draws its CSV inputs with ``PRESETS``, ``DgpPreset.spec``
    and ``draw_block``, writes its Monte Carlo configs for
    ``parse_config_text`` (``workers`` included), imports the layer modules
    by name and hooks some of their functions by qualified name; a deletion
    of any of these would break a benchmark run."""
    from apsgd.simulate import PRESETS, draw_block, parse_config_text

    tracing, workloads = (bench_module(name, monkeypatch) for name in ("tracing", "workloads"))
    assert len(tracing.LAYERS) == 8
    for layer in tracing.LAYERS:
        importlib.import_module(f"apsgd.{layer}")
    for name in [*tracing.Tracer()._hooks, *tracing._STREAM_DRIVERS]:
        layer, qualname = name.split(".", 1)
        module = importlib.import_module(f"apsgd.{layer}")
        assert callable(functools.reduce(getattr, qualname.split("."), module)), name
    for workload in workloads.WORKLOADS.values():
        dgp = PRESETS[workload.preset].spec(0.0)
        assert draw_block(dgp, np.random.default_rng(0), 3).shape == (3, dgp.obs_dim)
        if workload.config:
            text = workloads.config_text(dict(workload.config, base_seed=1))
            assert parse_config_text(text).workers == workload.config["workers"]
