"""Memory-bloat analysis (Table 1 / Equation 1 of the paper).

Bloat percent is defined as::

    bloat = (pp_interim - nnz_output) / nnz_output * 100

where ``pp_interim`` is the number of intermediate partial products produced
by the multiplication phase and ``nnz_output`` is the number of non-zeros in
the result matrix.  For C = A @ B, ``pp_interim`` depends only on the operand
structures: sum over k of nnz(A[:, k]) * nnz(B[k, :]).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sparse.csr import CSRMatrix
from repro.sparse.symbolic import symbolic_spgemm


@dataclass
class BloatReport:
    """Bloat analysis of a single SpGEMM workload.

    Attributes:
        name: workload name (dataset name for Table 1).
        node_count: number of rows of the (square) operand.
        edge_count: number of stored non-zeros of the operand.
        sparsity_percent: percentage of zero entries in the operand.
        partial_products: intermediate partial products of A @ A.
        output_nnz: non-zeros of the product.
        bloat_percent: Equation 1 value.
    """

    name: str
    node_count: int
    edge_count: int
    sparsity_percent: float
    partial_products: int
    output_nnz: int
    bloat_percent: float

    def as_row(self) -> dict[str, float | int | str]:
        """Flatten to a Table-1-style row."""
        return {
            "dataset": self.name,
            "node_count": self.node_count,
            "edge_count": self.edge_count,
            "sparsity_percent": round(self.sparsity_percent, 4),
            "bloat_percent": round(self.bloat_percent, 2),
        }


def partial_product_count(a_csr: CSRMatrix, b_csr: CSRMatrix) -> int:
    """Number of intermediate partial products of A @ B.

    Computed structurally as sum_k nnz(A[:, k]) * nnz(B[k, :]) which equals
    sum over non-zeros A[i, k] of nnz(B[k, :]).
    """
    if a_csr.shape[1] != b_csr.shape[0]:
        raise ValueError("dimension mismatch")
    b_row_nnz = b_csr.row_nnz_counts()
    # For each non-zero of A with column index k we emit nnz(B[k, :]) products.
    return int(b_row_nnz[a_csr.indices].sum())


def bloat_percent(a_csr: CSRMatrix, b_csr: CSRMatrix | None = None) -> float:
    """Equation 1 bloat percentage for A @ B (defaults to A @ A)."""
    return bloat_report("", a_csr, b_csr).bloat_percent


def bloat_report(name: str, a_csr: CSRMatrix,
                 b_csr: CSRMatrix | None = None) -> BloatReport:
    """Full bloat report for one workload (a Table-1 row)."""
    if b_csr is None:
        b_csr = a_csr
    pp = partial_product_count(a_csr, b_csr)
    nnz_out = symbolic_spgemm(a_csr, b_csr).nnz
    bloat = 0.0 if nnz_out == 0 else (pp - nnz_out) / nnz_out * 100.0
    return BloatReport(
        name=name,
        node_count=a_csr.shape[0],
        edge_count=a_csr.nnz,
        sparsity_percent=a_csr.sparsity * 100.0,
        partial_products=pp,
        output_nnz=nnz_out,
        bloat_percent=bloat,
    )


def analytic_bloat_estimate(node_count: int, edge_count: int,
                            degree_cv: float = 1.0) -> float:
    """Closed-form bloat estimate from dataset summary statistics.

    Used to sanity-check Table 1 at the paper's original (unscaled) dataset
    sizes, where materialising the matrix would be too slow in pure Python.
    With average degree d = edge_count / node_count and squared coefficient
    of variation ``degree_cv**2`` of the degree distribution, the expected
    partial-product count of A @ A is ``edge_count * d * (1 + cv^2)`` and the
    expected output nnz is approximately ``min(pp, node_count**2)`` discounted
    by collision probability.  The estimate is deliberately coarse; it is only
    used to show that bloat grows with density and degree skew.
    """
    if node_count <= 0 or edge_count <= 0:
        return 0.0
    avg_degree = edge_count / node_count
    pp = edge_count * avg_degree * (1.0 + degree_cv ** 2)
    # Expected distinct outputs under random collision model.
    cells = float(node_count) * float(node_count)
    expected_out = cells * (1.0 - np.exp(-pp / cells))
    if expected_out <= 0:
        return 0.0
    return (pp - expected_out) / expected_out * 100.0
