"""Graph Convolutional Network layer reference (Equation 2).

A GCN layer computes ``X' = sigma(A_hat @ X @ W)``: the *aggregation* phase is
the sparse product ``A_hat @ X`` (lowered onto NeuraChip via the compiler) and
the *combination* phase is the dense product with the weight matrix followed
by the non-linearity.  The reference implementation here is used to validate
the accelerator output and to size the combination-phase work for the GNN
baseline models.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.arch.config import NeuraChipConfig
from repro.datasets.features import feature_matrix, gcn_weight_matrix
from repro.datasets.suite import GraphDataset
from repro.sparse.convert import coo_to_csr, csr_to_csc
from repro.sparse.coo import COOMatrix
from repro.sparse.csc import CSCMatrix
from repro.sparse.csr import CSRMatrix


#: Activation names a GCN layer applies; ``None`` is the identity too.
ACTIVATIONS = ("relu", "identity", "none")


def check_activation(activation: str | None) -> None:
    """Refuse an activation name outside :data:`ACTIVATIONS`; specs call
    this too, so a bad name fails before any work runs."""
    if activation is not None and activation not in ACTIVATIONS:
        raise ValueError(f"unknown activation {activation!r}; expected one "
                         f"of {ACTIVATIONS} or None")


def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear unit."""
    return np.maximum(x, 0.0)


def normalize_adjacency(adjacency: COOMatrix, add_self_loops: bool = True) -> CSRMatrix:
    """Symmetrically normalised adjacency A_hat = D^-1/2 (A + I) D^-1/2.

    This is the propagation matrix of Kipf & Welling's GCN; the paper's
    aggregation phase multiplies it with the feature matrix.
    """
    n = adjacency.shape[0]
    rows = adjacency.rows
    cols = adjacency.cols
    data = adjacency.data
    if add_self_loops:
        eye = np.arange(n, dtype=np.int64)
        rows = np.concatenate([rows, eye])
        cols = np.concatenate([cols, eye])
        data = np.concatenate([data, np.ones(n)])
    combined = COOMatrix(rows, cols, data, (n, n)).sum_duplicates()
    csr = coo_to_csr(combined)
    degrees = csr.row_nnz_counts().astype(np.float64)
    degrees[degrees == 0] = 1.0
    inv_sqrt = 1.0 / np.sqrt(degrees)
    # A_hat[i, j] = inv_sqrt[i] * A[i, j] * inv_sqrt[j]
    scaled = csr.copy()
    row_factors = np.repeat(inv_sqrt, scaled.row_nnz_counts())
    scaled.data = scaled.data * row_factors * inv_sqrt[scaled.indices]
    return scaled


#: Bound on memoized normalised adjacencies (LRU).  Entries are the size of
#: the graph's CSR, so the cap is deliberately small: 32 resident graphs
#: comfortably covers a serving host's hot set without unbounded growth.
ADJACENCY_CACHE_CAPACITY = 32

_adjacency_cache: OrderedDict[tuple[str, bool], CSRMatrix] = OrderedDict()  # guarded-by: _adjacency_cache_lock
_adjacency_cache_lock = threading.Lock()
_adjacency_cache_hits = 0  # guarded-by: _adjacency_cache_lock
_adjacency_cache_misses = 0  # guarded-by: _adjacency_cache_lock


def adjacency_digest(adjacency: COOMatrix) -> str:
    """Content digest of a raw adjacency (shape plus COO entries).

    The one graph identity: the normalisation memo keys on it, and so does
    the serving coalescer for GNN requests.  It is memoized on the matrix,
    so a graph is hashed once however many requests touch it; like the
    memo's normalised CSR, an adjacency is read-only once built.
    """
    if adjacency.content_digest is None:
        digest = hashlib.sha1()
        digest.update(str(adjacency.shape).encode())
        for array in (adjacency.rows, adjacency.cols, adjacency.data):
            digest.update(str(array.dtype).encode())
            digest.update(array.tobytes())
        adjacency.content_digest = digest.hexdigest()
    return adjacency.content_digest


def normalize_adjacency_cached(adjacency: COOMatrix,
                               add_self_loops: bool = True) -> CSRMatrix:
    """Memoized :func:`normalize_adjacency` (bounded, LRU, thread-safe).

    Serving traffic hits the same resident graphs over and over; hashing the
    raw COO (one pass over the entries) is far cheaper than re-running the
    duplicate merge + sort + degree scaling per request.  The returned CSR
    is shared between callers and must be treated as read-only — every
    consumer in the repository only reads it.
    """
    global _adjacency_cache_hits, _adjacency_cache_misses
    key = (adjacency_digest(adjacency), bool(add_self_loops))
    with _adjacency_cache_lock:
        cached = _adjacency_cache.get(key)
        if cached is not None:
            _adjacency_cache.move_to_end(key)
            _adjacency_cache_hits += 1
            return cached
        _adjacency_cache_misses += 1
    a_hat = normalize_adjacency(adjacency, add_self_loops=add_self_loops)
    with _adjacency_cache_lock:
        _adjacency_cache[key] = a_hat
        _adjacency_cache.move_to_end(key)
        while len(_adjacency_cache) > ADJACENCY_CACHE_CAPACITY:
            _adjacency_cache.popitem(last=False)
    return a_hat


def adjacency_cache_stats() -> dict:
    """Hit / miss / size counters for the normalised-adjacency memo."""
    with _adjacency_cache_lock:
        return {"entries": len(_adjacency_cache),
                "capacity": ADJACENCY_CACHE_CAPACITY,
                "hits": _adjacency_cache_hits,
                "misses": _adjacency_cache_misses}


def clear_adjacency_cache() -> None:
    """Drop every memoized adjacency and reset the counters (benchmarks
    use this to measure cold-path normalisation honestly)."""
    global _adjacency_cache_hits, _adjacency_cache_misses
    with _adjacency_cache_lock:
        _adjacency_cache.clear()
        _adjacency_cache_hits = 0
        _adjacency_cache_misses = 0


@dataclass
class GCNLayer:
    """One GCN layer: holds the weight matrix and applies Equation 2."""

    weight: np.ndarray
    activation: str = "relu"

    @classmethod
    def create(cls, in_dim: int, out_dim: int, seed: int = 11,
               activation: str = "relu") -> "GCNLayer":
        """Glorot-initialised layer."""
        return cls(weight=gcn_weight_matrix(in_dim, out_dim, seed=seed),
                   activation=activation)

    @property
    def in_dim(self) -> int:
        return self.weight.shape[0]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[1]

    def _activate(self, x: np.ndarray) -> np.ndarray:
        check_activation(self.activation)
        return relu(x) if self.activation == "relu" else x

    def forward(self, a_hat: CSRMatrix, features: np.ndarray) -> np.ndarray:
        """Full layer forward pass on dense features."""
        return self.combination(self.aggregation(a_hat, features))

    def aggregation(self, a_hat: CSRMatrix, features: np.ndarray) -> np.ndarray:
        """Aggregation phase only (the part NeuraChip accelerates as SpGEMM)."""
        return a_hat.to_dense() @ features

    def combination(self, aggregated: np.ndarray) -> np.ndarray:
        """Combination phase: dense GEMM with W plus the non-linearity."""
        return self._activate(aggregated @ self.weight)


def combination_cycles(config: NeuraChipConfig, n_nodes: int,
                       layer: GCNLayer) -> float:
    """Dense combination phase (``n_nodes`` rows times ``layer``'s
    weights) modelled at ``config``'s peak throughput, bounded by HBM
    streaming of the aggregated features."""
    flops = 2 * n_nodes * layer.in_dim * layer.out_dim
    compute_cycles = flops / max(config.peak_gflops, 1e-9)
    traffic = 4.0 * (n_nodes * (layer.in_dim + layer.out_dim))
    memory_cycles = traffic / max(config.peak_bandwidth_bytes_per_cycle, 1e-9)
    return max(compute_cycles, memory_cycles)


@dataclass
class GCNWorkload:
    """A GCN-layer workload bound to a dataset.

    Attributes:
        dataset: the graph dataset.
        a_hat: normalised adjacency (CSR).
        features: sparse node features (CSR) used by the aggregation phase.
        layer: the GCN layer (weights).
    """

    dataset: GraphDataset
    a_hat: CSRMatrix
    features: CSRMatrix
    layer: GCNLayer

    @classmethod
    def build(cls, dataset: GraphDataset, feature_dim: int = 32,
              hidden_dim: int = 16, feature_density: float = 0.3,
              seed: int = 7, weight_seed: int | None = None,
              activation: str | None = "relu") -> "GCNWorkload":
        """Construct a layer workload with synthetic features and weights.

        ``feature_dim`` defaults to a reduced width so the cycle simulator can
        execute the aggregation phase quickly; the paper-scale width is kept in
        the dataset spec for the analytic models.  The normalised adjacency
        comes from the bounded :func:`normalize_adjacency_cached` memo, so
        repeated requests against a resident graph skip the rebuild.
        """
        a_hat = normalize_adjacency_cached(dataset.adjacency)
        features = feature_matrix(dataset.n_nodes, feature_dim,
                                  density=feature_density, seed=seed)
        layer = GCNLayer.create(
            feature_dim, hidden_dim,
            seed=seed + 1 if weight_seed is None else weight_seed,
            activation=activation)
        return cls(dataset=dataset, a_hat=a_hat, features=features, layer=layer)

    @property
    def adjacency_csc(self) -> CSCMatrix:
        """Normalised adjacency in CSC (operand A of the accelerator)."""
        return csr_to_csc(self.a_hat)

    def aggregation_flops(self) -> int:
        """Multiply-accumulate FLOPs of the aggregation phase."""
        from repro.sparse.bloat import partial_product_count

        return 2 * partial_product_count(self.a_hat, self.features)

    def combination_flops(self) -> int:
        """Multiply-accumulate FLOPs of the combination phase."""
        return 2 * self.dataset.n_nodes * self.layer.in_dim * self.layer.out_dim

    def reference_output(self) -> np.ndarray:
        """Dense reference of the full layer output."""
        return self.layer.forward(self.a_hat, self.features.to_dense())


def gcn_forward_reference(adjacency: COOMatrix, features: np.ndarray,
                          weights: list[np.ndarray]) -> np.ndarray:
    """Multi-layer GCN forward pass in numpy (used as an end-to-end oracle)."""
    a_hat = normalize_adjacency(adjacency)
    x = np.asarray(features, dtype=np.float64)
    dense_a = a_hat.to_dense()
    for index, weight in enumerate(weights):
        x = dense_a @ x @ weight
        if index < len(weights) - 1:
            x = relu(x)
    return x
