"""Conversions between the COO, CSR and CSC sparse formats.

All conversions sum duplicate coordinates (the behaviour graph adjacency
construction expects when an edge list contains repeated edges) and produce
indices sorted within each compressed row/column.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.coo import COOMatrix
from repro.sparse.csc import CSCMatrix
from repro.sparse.csr import CSRMatrix


def dense_to_coo(dense: np.ndarray) -> COOMatrix:
    """Build a COO matrix from a dense array (alias of COOMatrix.from_dense)."""
    return COOMatrix.from_dense(dense)


def _compress(major: np.ndarray, minor: np.ndarray, data: np.ndarray,
              n_major: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Compress (major, minor, data) triplets along the major axis.

    Returns (indptr, indices, values) with duplicates summed and minor
    indices sorted within each major slice.
    """
    if data.size == 0:
        return (np.zeros(n_major + 1, dtype=np.int64),
                np.zeros(0, dtype=np.int64),
                np.zeros(0, dtype=np.float64))
    n_minor = int(minor.max()) + 1 if minor.size else 1
    keys = major * n_minor + minor
    order = np.argsort(keys, kind="stable")
    keys_sorted = keys[order]
    data_sorted = data[order]
    unique_keys, start = np.unique(keys_sorted, return_index=True)
    summed = np.add.reduceat(data_sorted, start)
    major_u = unique_keys // n_minor
    minor_u = unique_keys % n_minor
    counts = np.bincount(major_u, minlength=n_major)
    indptr = np.zeros(n_major + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, minor_u.astype(np.int64), summed.astype(np.float64)


def coo_to_csr(coo: COOMatrix) -> CSRMatrix:
    """Convert COO to CSR, summing duplicate coordinates."""
    indptr, indices, data = _compress(coo.rows, coo.cols, coo.data, coo.shape[0])
    return CSRMatrix(indptr, indices, data, coo.shape)


def coo_to_csc(coo: COOMatrix) -> CSCMatrix:
    """Convert COO to CSC, summing duplicate coordinates."""
    indptr, indices, data = _compress(coo.cols, coo.rows, coo.data, coo.shape[1])
    return CSCMatrix(indptr, indices, data, coo.shape)


def csr_to_coo(csr: CSRMatrix) -> COOMatrix:
    """Convert CSR to COO."""
    rows = np.repeat(np.arange(csr.shape[0], dtype=np.int64), csr.row_nnz_counts())
    return COOMatrix(rows, csr.indices.copy(), csr.data.copy(), csr.shape)


def csc_to_coo(csc: CSCMatrix) -> COOMatrix:
    """Convert CSC to COO."""
    cols = np.repeat(np.arange(csc.shape[1], dtype=np.int64), csc.col_nnz_counts())
    return COOMatrix(csc.indices.copy(), cols, csc.data.copy(), csc.shape)


def csr_to_csc(csr: CSRMatrix) -> CSCMatrix:
    """Convert CSR to CSC of the *same* matrix."""
    return coo_to_csc(csr_to_coo(csr))


def csc_to_csr(csc: CSCMatrix) -> CSRMatrix:
    """Convert CSC to CSR of the *same* matrix."""
    return coo_to_csr(csc_to_coo(csc))


def as_csr(matrix) -> CSRMatrix:
    """Accept CSR/CSC/COO/dense and return CSR."""
    if isinstance(matrix, CSRMatrix):
        return matrix
    if isinstance(matrix, CSCMatrix):
        return coo_to_csr(matrix.to_coo())
    if isinstance(matrix, COOMatrix):
        return coo_to_csr(matrix)
    if isinstance(matrix, np.ndarray):
        return coo_to_csr(dense_to_coo(matrix))
    raise TypeError(f"unsupported matrix type {type(matrix)!r}")


def csr_vstack(blocks: list[CSRMatrix]) -> CSRMatrix:
    """Stack CSR matrices vertically (shared column dimension).

    The inverse of :meth:`CSRMatrix.row_slice`: stacking the row slices of a
    matrix in order reproduces it exactly, which lets the sharding planner
    reduce per-shard SpGEMM outputs into the unsharded product.
    """
    if not blocks:
        raise ValueError("csr_vstack requires at least one block")
    n_cols = blocks[0].shape[1]
    for block in blocks[1:]:
        if block.shape[1] != n_cols:
            raise ValueError("csr_vstack blocks must share the column "
                             f"dimension; got {block.shape[1]} != {n_cols}")
    indptrs = [blocks[0].indptr]
    offset = blocks[0].indptr[-1]
    for block in blocks[1:]:
        indptrs.append(block.indptr[1:] + offset)
        offset += block.indptr[-1]
    return CSRMatrix(np.concatenate(indptrs),
                     np.concatenate([b.indices for b in blocks]),
                     np.concatenate([b.data for b in blocks]),
                     (sum(b.shape[0] for b in blocks), n_cols))
