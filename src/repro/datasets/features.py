"""Node feature and weight matrix generation for GNN workloads.

The aggregation phase multiplies the adjacency matrix by the node feature
matrix X (Equation 2).  Real GNN feature matrices (e.g. Cora's 1433-wide
bag-of-words features) are themselves sparse; the generator exposes the
density so both sparse-feature and dense-feature regimes can be exercised.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.csr import CSRMatrix


def feature_matrix(n_nodes: int, dim: int, density: float = 0.3,
                   seed: int = 7) -> CSRMatrix:
    """Generate a sparse node-feature matrix X of shape (n_nodes, dim).

    Every row's ``max(1, round(dim * density))`` columns are the first of
    an argsort of one ``(n_nodes, dim)`` uniform block, drawn at once.

    Args:
        n_nodes: number of graph nodes (rows).
        dim: feature width (columns).
        density: fraction of non-zero entries per row, clipped to
            ``[1 / dim, 1]``.
        seed: RNG seed.

    Returns:
        CSR feature matrix with values drawn uniformly from [0.001, 1.001).
    """
    if n_nodes <= 0 or dim <= 0:
        raise ValueError("n_nodes and dim must be positive")
    density = float(np.clip(density, 1.0 / dim, 1.0))
    rng = np.random.default_rng(seed)
    nnz_per_row = max(1, int(round(dim * density)))
    order = np.argsort(rng.random((n_nodes, dim)), axis=1)
    cols = np.sort(order[:, :nnz_per_row], axis=1).astype(np.int64)
    data = rng.random(cols.size) + 1e-3
    indptr = np.arange(n_nodes + 1, dtype=np.int64) * nnz_per_row
    return CSRMatrix.from_canonical(indptr, cols.reshape(-1), data,
                                    (n_nodes, dim))


def gcn_weight_matrix(in_dim: int, out_dim: int, seed: int = 11) -> np.ndarray:
    """Glorot-initialised GCN layer weight matrix W of shape (in_dim, out_dim)."""
    if in_dim <= 0 or out_dim <= 0:
        raise ValueError("dimensions must be positive")
    rng = np.random.default_rng(seed)
    limit = np.sqrt(6.0 / (in_dim + out_dim))
    return rng.uniform(-limit, limit, size=(in_dim, out_dim))
