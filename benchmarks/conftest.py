"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper.  Results are
printed as text tables and also written to ``benchmarks/results/`` as CSV/JSON
so they can be inspected after the run (the NeuraViz replacement).

The dataset scale is deliberately small (hundreds of nodes) so the pure-Python
cycle simulator finishes each figure in seconds, so each benchmark checks
the shape of the paper's result (orderings, trends, calibrated averages)
rather than its full-scale numbers.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from _harness import SIM_MAX_NODES, STATS_MAX_NODES  # noqa: E402

from repro.datasets import load_dataset  # noqa: E402


@pytest.fixture(scope="session")
def cora_sim():
    """The Cora workload used by the DSE figures (11, 14, 15)."""
    return load_dataset("cora", max_nodes=SIM_MAX_NODES, seed=11)


@pytest.fixture(scope="session")
def table1_datasets():
    """All 20 Table-1 datasets at statistics scale."""
    from repro.datasets.suite import TABLE1_SUITE

    return [load_dataset(name, max_nodes=STATS_MAX_NODES, seed=1)
            for name in sorted(TABLE1_SUITE)]
