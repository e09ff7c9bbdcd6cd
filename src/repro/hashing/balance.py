"""Load-balance metrics and compute-mapping heat maps (Figures 12 and 13).

Given a workload (the multiplication/accumulation task stream of an SpGEMM
execution) and a mapping scheme, this module measures how evenly work lands
on the NeuraCore and NeuraMem units and extracts the 2-D heat map the paper
uses to visualise hot spots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hashing.mappings import drhm_gamma, map_tags
from repro.sparse.csc import CSCMatrix
from repro.sparse.csr import CSRMatrix


@dataclass
class LoadBalanceReport:
    """Summary statistics of how tasks were distributed over resources.

    Attributes:
        scheme: mapping scheme name.
        counts: per-resource task counts.
        mean: mean tasks per resource.
        std: standard deviation of tasks per resource.
        max_over_mean: hot-spot factor (1.0 is perfectly balanced).
        coefficient_of_variation: std / mean.
        gini: Gini coefficient of the task distribution (0 = perfectly even).
    """

    scheme: str
    counts: np.ndarray
    mean: float
    std: float
    max_over_mean: float
    coefficient_of_variation: float
    gini: float

    @property
    def n_resources(self) -> int:
        return int(self.counts.size)


def _gini(counts: np.ndarray) -> float:
    """Gini coefficient of a non-negative count vector."""
    if counts.size == 0:
        return 0.0
    sorted_counts = np.sort(counts.astype(np.float64))
    total = sorted_counts.sum()
    if total == 0:
        return 0.0
    n = sorted_counts.size
    cum = np.cumsum(sorted_counts)
    return float((n + 1 - 2 * (cum / total).sum()) / n)


def summarize_counts(scheme_name: str, counts: np.ndarray) -> LoadBalanceReport:
    """Build a :class:`LoadBalanceReport` from raw per-resource counts."""
    counts = np.asarray(counts, dtype=np.int64)
    mean = float(counts.mean()) if counts.size else 0.0
    std = float(counts.std()) if counts.size else 0.0
    max_over_mean = float(counts.max()) / mean if mean > 0 else 0.0
    cv = std / mean if mean > 0 else 0.0
    return LoadBalanceReport(scheme=scheme_name, counts=counts, mean=mean,
                             std=std, max_over_mean=max_over_mean,
                             coefficient_of_variation=cv, gini=_gini(counts))


def mapping_heatmap(scheme: str, a_csc: CSCMatrix, b_csr: CSRMatrix,
                    n_cores: int, n_mems: int | None = None) -> np.ndarray:
    """Compute the (NeuraCore x NeuraMem) heat map of Figures 12 / 13.

    Every partial product ``A[i, k] * B[k, j]`` of A @ B is one
    accumulation task with TAG ``i * n_cols + j``, in Gustavson order (A
    column ``k``, then A's rows, then B's columns).  Multiplications are
    assigned to NeuraCore ``k mod n_cores`` (the dispatcher's task
    distribution); accumulations to a NeuraMem by :func:`map_tags` on the
    TAG column, with seed 0.  DRHM reseeds after each A column: the first
    non-empty column uses ``drhm_gamma(0)``, and each later one
    ``drhm_gamma((k_prev + 1) * 2_246_822_519 mod 2^32)`` of the non-empty
    column ``k_prev`` before it.  ``heatmap[core, mem]`` counts partial
    products generated on ``core`` and accumulated on ``mem``.

    Args:
        scheme: accumulation mapping scheme name.
        a_csc: left operand in CSC.
        b_csr: right operand in CSR.
        n_cores: number of NeuraCore units (heat map rows).
        n_mems: number of NeuraMem units (heat map columns; defaults to
            ``n_cores``).

    Returns:
        int64 array of shape (n_cores, n_mems).
    """
    n_mems = n_mems or n_cores
    a_counts = np.diff(a_csc.indptr)
    b_counts = np.diff(b_csr.indptr)
    products = a_counts * b_counts
    column = np.repeat(np.arange(products.size), products)
    # Offset of each partial product within its column's a x b block.
    offset = np.arange(column.size) - (np.cumsum(products) - products)[column]
    width = b_counts[column]
    rows = a_csc.indices[a_csc.indptr[column] + offset // width]
    cols = b_csr.indices[b_csr.indptr[column] + offset % width]
    tags = rows * b_csr.shape[1] + cols
    gamma: np.ndarray | None = None
    if scheme == "drhm":
        busy = np.flatnonzero(products)
        column_gamma = np.zeros(products.size, dtype=np.uint64)
        seeds = [0] + [(k + 1) * 2_246_822_519 % (1 << 32)
                       for k in busy.tolist()]
        column_gamma[busy] = [drhm_gamma(s) for s in seeds[:busy.size]]
        gamma = column_gamma[column]
    mems = map_tags(scheme, tags, n_mems, gamma=gamma)
    return np.bincount((column % n_cores) * n_mems + mems,
                       minlength=n_cores * n_mems).reshape(n_cores, n_mems)
