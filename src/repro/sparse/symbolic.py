"""Symbolic (structure-only) SpGEMM.

The rolling-eviction mechanism of NeuraChip (Section 3.4) relies on a
per-output-element counter: the number of partial products that will be
accumulated into each non-zero of C = A @ B.  This module computes them
with a symbolic pass over the operand structures; the production compiler
counts the same counters from its own op stream, through the chunked
reduction (:func:`count_keys_chunked`, :func:`output_structure`) shared
here.

The pass is *columnar*: its result is a CSR-shaped structure-of-arrays
(``indptr`` / ``indices`` / ``counts``) rather than a ``(row, col) -> count``
dict, computed with the same ``np.repeat`` / cumulative-offset expansion the
vectorized SpGEMM oracle uses (:mod:`repro.sparse.kernels`), so no Python
loop ever touches a partial product.  Dict-style accessors are kept as thin
lazy views for compatibility with existing callers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.sparse.csc import CSCMatrix
from repro.sparse.csr import CSRMatrix

#: Cap on partial products expanded per reduction chunk (~256 MiB of int64
#: keys), here and in the compiler's rolling-counter count; above this the
#: reduction goes chunk by chunk so peak memory stays bounded by the chunk
#: size plus the accumulated per-chunk unique sets, instead of the full
#: O(total_partial_products) expansion.
SYMBOLIC_CHUNK_PARTIAL_PRODUCTS = 1 << 25


def row_per_slot(indptr: np.ndarray, n_rows: int) -> np.ndarray:
    """Output row index of every slot (CSR indptr run-length expansion).

    This is *the* slot-order convention of the compile pipeline: counters,
    rolling-counter addresses and output write-back addresses are all laid
    out in the ascending ``row * n_cols + col`` order this expansion
    induces.  Every consumer (symbolic views, ``Program`` flat keys,
    lazy dict views) must derive it from this one helper.
    """
    return np.repeat(np.arange(n_rows, dtype=np.int64), np.diff(indptr))


@dataclass
class SymbolicProduct:
    """Structure of C = A @ B without numeric values, in CSR-shaped arrays.

    Attributes:
        shape: shape of C.
        indptr: int64 array of length ``n_rows + 1``; output row ``i``
            occupies the half-open slice ``indices[indptr[i]:indptr[i+1]]``.
        indices: int64 column index per output non-zero, sorted within each
            row — the canonical (row, col) slot order the compiler lays
            counters and output elements out in.
        counts: int64 rolling counter per output non-zero (number of partial
            products accumulated into that element), aligned with
            ``indices``.
        total_partial_products: total count of scalar multiply results
            produced by the multiplication phase (the ``pp_interim`` of
            Equation 1).
    """

    shape: tuple[int, int]
    indptr: np.ndarray
    indices: np.ndarray
    counts: np.ndarray
    total_partial_products: int
    _entries: dict | None = field(default=None, repr=False, compare=False)

    @property
    def nnz(self) -> int:
        """Number of non-zeros in the output matrix."""
        return int(self.indices.size)

    def _row_per_slot(self) -> np.ndarray:
        """Output row index of every slot (indptr run-length expansion)."""
        return row_per_slot(self.indptr, self.shape[0])

    @property
    def entries(self) -> dict[tuple[int, int], int]:
        """Dict view mapping (row, col) -> rolling counter (lazily built).

        Kept for compatibility; the arrays are the primary representation.
        """
        if self._entries is None:
            rows = self._row_per_slot()
            self._entries = dict(zip(zip(rows.tolist(), self.indices.tolist()),
                                     self.counts.tolist()))
        return self._entries

    def counter(self, row: int, col: int) -> int:
        """Rolling counter for output element (row, col); 0 if structurally zero."""
        if not 0 <= row < self.shape[0]:
            return 0
        lo, hi = int(self.indptr[row]), int(self.indptr[row + 1])
        hit = lo + int(np.searchsorted(self.indices[lo:hi], col))
        if hit < hi and self.indices[hit] == col:
            return int(self.counts[hit])
        return 0

    def counters_for_row(self, row: int) -> dict[int, int]:
        """All column -> counter pairs for one output row ({} if out of range)."""
        if not 0 <= row < self.shape[0]:
            return {}
        lo, hi = int(self.indptr[row]), int(self.indptr[row + 1])
        return dict(zip(self.indices[lo:hi].tolist(),
                        self.counts[lo:hi].tolist()))

    def row_nnz_counts(self) -> np.ndarray:
        """Per-row output non-zero counts."""
        return np.diff(self.indptr)

    def flat_keys(self) -> np.ndarray:
        """Flattened output coordinates ``row * n_cols + col`` per slot,
        ascending — the canonical slot order."""
        return self._row_per_slot() * self.shape[1] + self.indices


def count_keys_chunked(ends: np.ndarray,
                       expand: Callable[[int, int], np.ndarray]
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Reduce the flattened output keys of items ``[0, ends.size)`` to
    (sorted unique keys, per-key counts).

    ``ends`` holds the items' cumulative partial-product counts and
    ``expand(lo, hi)`` returns the keys of items ``[lo, hi)``.  The items
    expand in ranges of about :data:`SYMBOLIC_CHUNK_PARTIAL_PRODUCTS`
    partial products (a single item may exceed the cap), and only each
    range's unique set stays resident.
    """
    if not ends.size:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    targets = np.arange(SYMBOLIC_CHUNK_PARTIAL_PRODUCTS, int(ends[-1]),
                        SYMBOLIC_CHUNK_PARTIAL_PRODUCTS, dtype=np.int64)
    cuts = np.unique([0, *np.searchsorted(ends, targets) + 1, ends.size])
    parts = [np.unique(expand(lo, hi), return_counts=True)
             for lo, hi in zip(cuts[:-1].tolist(), cuts[1:].tolist())]
    if len(parts) == 1:
        return parts[0]
    # Merge the ranges' sets, summing the counts of keys in several.
    keys = np.concatenate([part[0] for part in parts])
    counts = np.concatenate([part[1] for part in parts])
    order = np.argsort(keys, kind="stable")
    keys, counts = keys[order], counts[order]
    boundaries = np.empty(keys.size, dtype=bool)
    boundaries[0] = True
    np.not_equal(keys[1:], keys[:-1], out=boundaries[1:])
    starts = np.flatnonzero(boundaries)
    return keys[starts], np.add.reduceat(counts, starts)


def output_structure(unique: np.ndarray, shape: tuple[int, int]
                     ) -> tuple[np.ndarray, np.ndarray]:
    """CSR ``(indptr, indices)`` of ascending flattened output keys; keys
    ascend row-major, so each row's first slot is one binary search."""
    n_rows, n_cols = shape
    row_starts = np.arange(n_rows + 1, dtype=unique.dtype) * n_cols
    indptr = np.searchsorted(unique, row_starts)
    return indptr, unique - np.repeat(row_starts[:-1], np.diff(indptr))


def _symbolic_from_pairs(row_of_a: np.ndarray, k_of_a: np.ndarray,
                         b_csr: CSRMatrix,
                         shape: tuple[int, int]) -> SymbolicProduct:
    """Shared vectorized core: expand every (A-entry, B-entry) pairing into
    a flattened output coordinate, then reduce to per-coordinate counts.

    ``row_of_a[e]`` / ``k_of_a[e]`` give the output row and inner index of
    A entry ``e`` (any entry order works — the reduction sorts).  Very
    high-bloat workloads (partial products far above
    :data:`SYMBOLIC_CHUNK_PARTIAL_PRODUCTS`) are reduced chunk by chunk so
    the transient expansion never materialises all partial products at
    once.
    """
    n_cols = shape[1]
    nb = b_csr.row_nnz_counts()
    rep = nb[k_of_a] if k_of_a.size else np.zeros(0, dtype=np.int64)
    ends = np.cumsum(rep)

    def expand(lo: int, hi: int) -> np.ndarray:
        # Rebase each B slice by the cumulative repeat counts plus a
        # running position (the oracle's cumulative-offset expansion).
        rep_c = rep[lo:hi]
        base = int(ends[lo - 1]) if lo else 0
        b_index = np.arange(int(ends[hi - 1]) - base, dtype=np.int64) + base
        b_index += np.repeat(b_csr.indptr[k_of_a[lo:hi]] - ends[lo:hi]
                             + rep_c, rep_c)
        keys = np.repeat(row_of_a[lo:hi] * n_cols, rep_c)
        keys += b_csr.indices[b_index]
        return keys

    unique, counts = count_keys_chunked(ends, expand)
    indptr, indices = output_structure(unique, shape)
    return SymbolicProduct(shape=shape, indptr=indptr, indices=indices,
                           counts=counts.astype(np.int64),
                           total_partial_products=int(rep.sum()))


def symbolic_spgemm(a_csr: CSRMatrix, b_csr: CSRMatrix) -> SymbolicProduct:
    """Compute the structure and rolling counters of C = A @ B.

    Both operands are given row-major; the expansion enumerates exactly the
    (i, k, j) triples Gustavson's row order would touch and counts, for
    every output coordinate, how many of them land on it.

    Args:
        a_csr: left operand in CSR.
        b_csr: right operand in CSR.

    Returns:
        A :class:`SymbolicProduct` describing the output structure.

    Raises:
        ValueError: if the inner dimensions do not match.
    """
    if a_csr.shape[1] != b_csr.shape[0]:
        raise ValueError(
            f"dimension mismatch: A is {a_csr.shape}, B is {b_csr.shape}")
    row_of_a = np.repeat(np.arange(a_csr.shape[0], dtype=np.int64),
                         a_csr.row_nnz_counts())
    return _symbolic_from_pairs(row_of_a, a_csr.indices, b_csr,
                                (a_csr.shape[0], b_csr.shape[1]))


def symbolic_spgemm_from_csc(a_csc: CSCMatrix, b_csr: CSRMatrix) -> SymbolicProduct:
    """Symbolic SpGEMM with A in CSC (the storage NeuraChip actually uses).

    Pairs the columns of A with the rows of B — the outer-product order in
    which the MMH instructions are generated — and produces the same
    counters as :func:`symbolic_spgemm` (the reduction is order-insensitive).
    """
    if a_csc.shape[1] != b_csr.shape[0]:
        raise ValueError(
            f"dimension mismatch: A is {a_csc.shape}, B is {b_csr.shape}")
    k_of_a = np.repeat(np.arange(a_csc.shape[1], dtype=np.int64),
                       a_csc.col_nnz_counts())
    return _symbolic_from_pairs(a_csc.indices, k_of_a, b_csr,
                                (a_csc.shape[0], b_csr.shape[1]))
