"""Shared fixtures for the benchmark harness.

Every module regenerates one of the paper's tables or figures: it prints
the same rows/series the paper reports (via ``repro.analysis.report``) and
times the computation that produces them with pytest-benchmark.
"""

import pytest

from repro.par.decomposition import build_decomposition, equal_cell_assignment
from repro.topo import build_kochi_grid


@pytest.fixture(scope="session")
def kochi_grid():
    return build_kochi_grid()


@pytest.fixture(scope="session")
def decomp16(kochi_grid):
    return build_decomposition(kochi_grid, 16)


@pytest.fixture(scope="session")
def decomp16_blockwise(kochi_grid):
    return equal_cell_assignment(kochi_grid, 16, split_blocks=False)


def emit(text: str) -> None:
    """Print a figure/table reproduction with a separator."""
    print("\n" + "=" * 72)
    print(text)
    print("=" * 72)
