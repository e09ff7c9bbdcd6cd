"""The SpGEMM oracle: C = A @ B by vectorised row-wise (Gustavson) expansion.

NeuraChip runs one dataflow, the tiled Gustavson order that the compiler
lowers to MMH instructions and every backend replays.  This module holds an
independent implementation of the same product, used to check that replay:
:func:`spgemm` expands every partial product of C = A @ B with numpy and
merges them by output coordinate.  It shares no code with the compiler or
the program replay.

The expansion works per A entry: every non-zero ``A[i, k]`` pairs with every
non-zero ``B[k, j]``.  Each A entry is repeated ``nnz(B[k, :])`` times and
the matching B slice is gathered through a cumulative-offset index (the same
block-expansion idea the Accel-GCN style SpMM kernels use on GPUs), so no
Python-level loop touches a partial product.  Within one output row the
partial products of each output coordinate appear in ascending ``k``, the
order in which a row-wise accumulator and the program replay both sum them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sparse.csr import CSRMatrix


@dataclass(frozen=True)
class SpGEMMProduct:
    """Outcome of one oracle product.

    Attributes:
        matrix: the numeric product C = A @ B in CSR.  Coordinates whose
            partial products cancel keep an explicit zero.
        partial_products: scalar multiply results of the multiplication
            phase (``pp_interim`` in Equation 1).
    """

    matrix: CSRMatrix
    partial_products: int


def spgemm(a_csr: CSRMatrix, b_csr: CSRMatrix,
           dataflow: str = "row_wise") -> SpGEMMProduct:
    """C = A @ B through the vectorised row-wise oracle.

    ``dataflow`` exists only for the benchmark harness, which passes
    ``dataflow="row_wise"``; any other value raises ``ValueError``.
    """
    if dataflow != "row_wise":
        raise ValueError(f"no SpGEMM dataflow {dataflow!r}; the oracle "
                         "runs only 'row_wise'")
    if a_csr.shape[1] != b_csr.shape[0]:
        raise ValueError(f"dimension mismatch: A is {a_csr.shape}, "
                         f"B is {b_csr.shape}")
    keys, vals, row_ptr = _expand_partial_products(a_csr, b_csr)
    matrix = _merge_partials(keys, vals, row_ptr,
                             (a_csr.shape[0], b_csr.shape[1]))
    return SpGEMMProduct(matrix=matrix, partial_products=int(keys.size))


def _expand_partial_products(a_csr: CSRMatrix, b_csr: CSRMatrix
                             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Materialise every partial product of C = A @ B without Python loops.

    Walks A's entries in row-major (CSR) order; each entry ``A[i, k]``
    pairs with the whole row ``k`` of B, gathered through a cumulative-
    offset index.  Within one A row, entries are sorted by ``k``, so the
    partial products of each output coordinate appear in ascending-``k``
    order — the order in which a row-wise accumulator sums them, which
    keeps the floating-point sums equivalent to within association error
    (a few ulp).

    Returns ``(keys, vals, row_ptr)`` where ``keys[p] = i * n_cols + j`` is
    the flattened output coordinate of partial product ``p`` and
    ``row_ptr`` delimits each output row's contiguous run of partial
    products (CSR-style, length ``n_rows + 1``).
    """
    nb = b_csr.row_nnz_counts()
    n_cols = b_csr.shape[1]
    # Row index and inner index of every A entry, in CSR order.
    row_of_a = np.repeat(np.arange(a_csr.shape[0], dtype=np.int64),
                         a_csr.row_nnz_counts())
    k_of_a = a_csr.indices
    # Each A entry generates one partial product per B entry of row k.
    rep = nb[k_of_a]
    total = int(rep.sum())
    if total == 0:
        return (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64),
                np.zeros(a_csr.shape[0] + 1, dtype=np.int64))
    # Partial products of output row r occupy keys[row_ptr[r]:row_ptr[r+1]].
    row_ptr = np.zeros(a_csr.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(row_of_a, weights=rep,
                          minlength=a_csr.shape[0]).astype(np.int64),
              out=row_ptr[1:])
    # Gather the B slice of row k for every A entry: slice start offset
    # rebased by the cumulative repeat counts, plus a running position.
    ends = np.cumsum(rep)
    b_index = np.arange(total, dtype=np.int64)
    b_index += np.repeat(b_csr.indptr[k_of_a] - ends + rep, rep)
    keys = np.repeat(row_of_a * n_cols, rep)
    keys += b_csr.indices[b_index]
    vals = np.repeat(a_csr.data, rep)
    vals *= b_csr.data[b_index]
    return keys, vals, row_ptr


#: Use the dense-bin merge when the flattened output space is at most this
#: many times the partial-product count (bounds its transient memory to a
#: small multiple of the expansion itself) ...
_DENSE_MERGE_EXPANSION_LIMIT = 8
#: ... or when the output space is outright small.
_DENSE_MERGE_ABSOLUTE_LIMIT = 1 << 22
#: Row-block size target for the dense merge: bins per block, sized to keep
#: the per-block scatter arrays cache-resident.
_DENSE_MERGE_BLOCK_BINS = 1 << 19


def _merge_dense_blocked(keys: np.ndarray, vals: np.ndarray,
                         row_ptr: np.ndarray,
                         shape: tuple[int, int]) -> CSRMatrix:
    """Dense-bin merge: scatter partial products straight into row blocks.

    Processes blocks of output rows (whose partial products are contiguous
    in ``keys`` thanks to the row-major expansion) so each ``np.bincount``
    scatter stays within a cache-resident bin array.  ``np.bincount`` adds
    over its input in encounter (ascending-``k``) order per output element,
    so the sums match a row-wise accumulator up to summation-association
    error (a few ulp — the sorted merge reduces with ``np.add.reduceat``,
    which may associate additions differently).
    """
    n_rows, n_cols = shape
    block_rows = max(1, min(n_rows, _DENSE_MERGE_BLOCK_BINS // max(1, n_cols)))
    minor_parts: list[np.ndarray] = []
    data_parts: list[np.ndarray] = []
    counts_per_row = np.zeros(n_rows, dtype=np.int64)
    for row0 in range(0, n_rows, block_rows):
        row1 = min(row0 + block_rows, n_rows)
        lo, hi = int(row_ptr[row0]), int(row_ptr[row1])
        if lo == hi:
            continue
        block_keys = keys[lo:hi] - row0 * n_cols
        bins = (row1 - row0) * n_cols
        sums = np.bincount(block_keys, weights=vals[lo:hi], minlength=bins)
        counts = np.bincount(block_keys, minlength=bins)
        unique = np.flatnonzero(counts > 0)
        data_parts.append(sums[unique])
        local_major = unique // n_cols
        counts_per_row[row0:row1] = np.bincount(local_major,
                                                minlength=row1 - row0)
        minor_parts.append(unique - local_major * n_cols)
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(counts_per_row, out=indptr[1:])
    indices = (np.concatenate(minor_parts) if minor_parts
               else np.zeros(0, dtype=np.int64))
    data = (np.concatenate(data_parts) if data_parts
            else np.zeros(0, dtype=np.float64))
    return CSRMatrix(indptr, indices, data, shape)


def _merge_sorted(keys: np.ndarray, vals: np.ndarray,
                  shape: tuple[int, int]) -> CSRMatrix:
    """Sort-based merge: stable sort by coordinate + ``np.add.reduceat``.

    Memory scales with the partial products only, so this is the fallback
    when the flattened output space is too large for dense bins.  The
    stable sort preserves encounter (ascending-``k``) order per output
    coordinate, keeping the sums equivalent to a row-wise accumulator
    (within a few ulp of association error).
    """
    order = np.argsort(keys, kind="stable")
    keys_sorted = keys[order]
    vals_sorted = vals[order]
    boundaries = np.empty(keys_sorted.size, dtype=bool)
    boundaries[0] = True
    np.not_equal(keys_sorted[1:], keys_sorted[:-1], out=boundaries[1:])
    starts = np.flatnonzero(boundaries)
    summed = np.add.reduceat(vals_sorted, starts)
    unique_keys = keys_sorted[starts]
    major = unique_keys // shape[1]
    minor = unique_keys - major * shape[1]
    counts_per_row = np.bincount(major, minlength=shape[0])
    indptr = np.zeros(shape[0] + 1, dtype=np.int64)
    np.cumsum(counts_per_row, out=indptr[1:])
    return CSRMatrix(indptr, minor, summed, shape)


def _merge_partials(keys: np.ndarray, vals: np.ndarray,
                    row_ptr: np.ndarray,
                    shape: tuple[int, int]) -> CSRMatrix:
    """Merge flattened-coordinate partial products into CSR.

    Picks the dense-bin strategy when the flattened output space is small
    relative to the partial-product count, the sort strategy otherwise.
    Both accumulate each output element's partial products in expansion
    (ascending-``k``) order, so the floating-point sums agree with a
    row-wise accumulator to within a few ulp (the reduction primitives may
    associate additions differently).
    """
    if keys.size == 0:
        return CSRMatrix.empty(shape)
    flat_space = shape[0] * shape[1]
    if (flat_space <= _DENSE_MERGE_EXPANSION_LIMIT * keys.size
            or flat_space <= _DENSE_MERGE_ABSOLUTE_LIMIT):
        return _merge_dense_blocked(keys, vals, row_ptr, shape)
    return _merge_sorted(keys, vals, shape)
