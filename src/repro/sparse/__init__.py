"""Sparse matrix substrate used by the NeuraChip reproduction.

This subpackage implements, from scratch, the three compressed storage
formats the paper relies on (COO, CSR, CSC), a symbolic (structure-only)
SpGEMM pass used to derive the rolling-eviction counters, the memory-bloat
analysis of Table 1, and one vectorised row-wise SpGEMM oracle
(:mod:`repro.sparse.kernels`) that the program replay is checked against.
NeuraChip's own tiled Gustavson dataflow lives in the compiler.
"""

from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.csc import CSCMatrix
from repro.sparse.convert import (
    coo_to_csc,
    coo_to_csr,
    csc_to_coo,
    csc_to_csr,
    csr_to_coo,
    csr_to_csc,
    dense_to_coo,
)
from repro.sparse.symbolic import SymbolicProduct, symbolic_spgemm
from repro.sparse.bloat import BloatReport, bloat_percent, bloat_report

__all__ = [
    "COOMatrix",
    "CSRMatrix",
    "CSCMatrix",
    "coo_to_csr",
    "coo_to_csc",
    "csr_to_coo",
    "csc_to_coo",
    "csr_to_csc",
    "csc_to_csr",
    "dense_to_coo",
    "SymbolicProduct",
    "symbolic_spgemm",
    "BloatReport",
    "bloat_percent",
    "bloat_report",
]
