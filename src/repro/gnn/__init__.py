"""Graph neural network workloads: the GCN reference layer (Equation 2 of
the paper) and the resident-graph multi-layer pipeline executor."""

from repro.gnn.gcn import (
    GCNLayer,
    GCNWorkload,
    adjacency_cache_stats,
    clear_adjacency_cache,
    gcn_forward_reference,
    normalize_adjacency,
    normalize_adjacency_cached,
    relu,
)
from repro.gnn.pipeline import full_structure_csr, run_gnn_model

__all__ = [
    "GCNLayer",
    "GCNWorkload",
    "adjacency_cache_stats",
    "clear_adjacency_cache",
    "full_structure_csr",
    "gcn_forward_reference",
    "normalize_adjacency",
    "normalize_adjacency_cached",
    "relu",
    "run_gnn_model",
]
