"""Table 1: SpGEMM memory-bloat analysis across the hyper-sparse dataset suite.

Regenerates, for every Table-1 dataset (synthetic stand-in at reduced scale),
the node count, edge count, sparsity and bloat percentage of the A @ A
workload, and compares the measured bloat against the paper's value for the
real matrix.
"""

import numpy as np
import pytest

from repro.datasets.suite import TABLE1_SUITE, degree_statistics
from repro.sparse.bloat import analytic_bloat_estimate, bloat_report

from _harness import emit


@pytest.fixture(scope="module")
def bloat_rows(table1_datasets):
    rows = []
    for dataset in table1_datasets:
        report = bloat_report(dataset.name, dataset.adjacency_csr())
        spec = TABLE1_SUITE[dataset.name]
        degree_cv = degree_statistics(dataset.adjacency)["degree_cv"]
        rows.append({
            "dataset": dataset.name,
            "nodes": report.node_count,
            "edges": report.edge_count,
            "sparsity_pct": round(report.sparsity_percent, 4),
            "bloat_pct": round(report.bloat_percent, 2),
            "analytic_estimate_pct": round(
                analytic_bloat_estimate(report.node_count, report.edge_count,
                                        degree_cv), 2),
            "paper_bloat_pct": spec.paper_bloat_percent,
            "paper_nodes": spec.paper_nodes,
            "paper_scale_estimate_pct": round(
                analytic_bloat_estimate(spec.paper_nodes, spec.paper_edges,
                                        degree_cv), 2),
        })
    return rows


def test_table1_memory_bloat(benchmark, bloat_rows, table1_datasets):
    """Time one bloat analysis and regenerate the full Table 1."""
    sample = table1_datasets[0]
    benchmark.pedantic(bloat_report, args=(sample.name, sample.adjacency_csr()),
                       rounds=3, iterations=1)
    emit("table1_bloat", bloat_rows)

    bloats = {row["dataset"]: row["bloat_pct"] for row in bloat_rows}
    assert len(bloats) == 20
    # Memory bloat is prevalent: every A @ A workload produces more partial
    # products than output non-zeros (the premise of the rolling-eviction
    # mechanism).
    assert all(value > 0.0 for value in bloats.values())

    # Extremes of the paper's ordering survive the scale reduction: facebook
    # (2872% in the paper) bloats far more than the paper's two least-bloated
    # datasets (p2p-Gnutella31 at 10.2% and patents_main at 14.2%).
    assert bloats["facebook"] > bloats["p2p-Gnutella31"]
    assert bloats["facebook"] > bloats["patents_main"]
    assert bloats["facebook"] > bloats["cit-Patents"]

    # At paper scale the closed-form density/skew estimate singles out
    # facebook as by far the most bloat-prone workload, matching the paper's
    # outlier; full structural rank agreement is not expected at reduced
    # scale, so only the outlier is checked.
    estimates = {row["dataset"]: row["paper_scale_estimate_pct"]
                 for row in bloat_rows}
    assert estimates["facebook"] == max(estimates.values())
