"""Shared Monte Carlo cells, computed once per session.

Replication k of a cell draws from PCG64(SeedSequence((base_seed, cell, k))),
so slicing the first R replications of a larger run is bit-identical to
running that cell with `replications=R`.  Tests exploit that to share cells
at different stated replication counts.
"""

import pytest

from apsgd.simulate import ExperimentConfig, run_experiment


@pytest.fixture(scope="session")
def null_cell():
    """Specification-test statistics under the true constraint, T=5e4, R=500."""
    config = ExperimentConfig(
        mode="size_power",
        preset="linear",
        sample_sizes=(50_000,),
        replications=500,
        alpha=0.05,
        base_seed=90210,
        r_grid=(0.0,),
    )
    return run_experiment(config)


@pytest.fixture(scope="session")
def alt_cell():
    """Statistics under the shifted coefficient (r=0.025), T=5e4, R=300."""
    config = ExperimentConfig(
        mode="size_power",
        preset="linear",
        sample_sizes=(50_000,),
        replications=300,
        alpha=0.05,
        base_seed=90211,
        r_grid=(0.025,),
    )
    return run_experiment(config)


@pytest.fixture(scope="session")
def alt_cell_large():
    """Same shifted coefficient at T=1e5, R=300 (noncentral comparison point)."""
    config = ExperimentConfig(
        mode="size_power",
        preset="linear",
        sample_sizes=(100_000,),
        replications=300,
        alpha=0.05,
        base_seed=90212,
        r_grid=(0.025,),
    )
    return run_experiment(config)


@pytest.fixture(scope="session")
def estimation_cell():
    """Constrained-vs-unconstrained absolute errors at T=5e4, R=200."""
    config = ExperimentConfig(
        mode="estimation_error",
        preset="linear",
        sample_sizes=(50_000,),
        replications=200,
        alpha=0.05,
        base_seed=90213,
    )
    return run_experiment(config)
