"""Compressed Sparse Row (CSR) matrix.

The feature matrix B of the aggregation phase is stored in CSR in the paper
(Section 3.1): Gustavson's algorithm walks a row of A and, for each non-zero
A[i, k], streams the entire row k of B.  CSR gives O(1) access to that row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class CSRMatrix:
    """A sparse matrix in compressed sparse row format.

    Attributes:
        indptr: int64 array of length ``n_rows + 1``; row i occupies the
            half-open slice ``indices[indptr[i]:indptr[i + 1]]``.
        indices: int64 array of column indices, sorted within each row.
        data: float64 array of values aligned with ``indices``.
        shape: (n_rows, n_cols).
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]
    _validated: bool = field(default=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.indptr = np.asarray(self.indptr, dtype=np.int64)
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.data = np.asarray(self.data, dtype=np.float64)
        self.shape = (int(self.shape[0]), int(self.shape[1]))
        self.validate()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, shape: tuple[int, int]) -> "CSRMatrix":
        """Return an all-zero matrix of the given shape."""
        return cls(np.zeros(shape[0] + 1, dtype=np.int64),
                   np.zeros(0, dtype=np.int64),
                   np.zeros(0, dtype=np.float64),
                   shape)

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CSRMatrix":
        """Build a CSR matrix from a dense 2-D numpy array."""
        from repro.sparse.convert import coo_to_csr
        from repro.sparse.coo import COOMatrix

        return coo_to_csr(COOMatrix.from_dense(dense))

    @classmethod
    def from_coo(cls, coo) -> "CSRMatrix":
        """Build a CSR matrix from a :class:`~repro.sparse.coo.COOMatrix`."""
        from repro.sparse.convert import coo_to_csr

        return coo_to_csr(coo)

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of stored non-zero entries."""
        return int(self.data.size)

    @property
    def n_rows(self) -> int:
        return self.shape[0]

    @property
    def n_cols(self) -> int:
        return self.shape[1]

    @property
    def sparsity(self) -> float:
        """Fraction of zero entries, in [0, 1]."""
        total = self.shape[0] * self.shape[1]
        if total == 0:
            return 0.0
        return 1.0 - self.nnz / total

    # ------------------------------------------------------------------
    # Row access
    # ------------------------------------------------------------------
    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Return (column indices, values) of row ``i``."""
        if not 0 <= i < self.shape[0]:
            raise IndexError(f"row {i} out of range for {self.shape[0]} rows")
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def row_nnz(self, i: int) -> int:
        """Number of non-zeros in row ``i``."""
        return int(self.indptr[i + 1] - self.indptr[i])

    def row_nnz_counts(self) -> np.ndarray:
        """Per-row non-zero counts as an int64 array of length ``n_rows``."""
        return np.diff(self.indptr)

    def row_slice(self, start: int, stop: int) -> "CSRMatrix":
        """Return rows ``[start, stop)`` as a new CSR matrix.

        The slice keeps the full column dimension, so the product of a row
        slice of A with B is exactly the matching row block of A @ B — the
        property the sharding planner relies on.
        """
        if not 0 <= start <= stop <= self.shape[0]:
            raise IndexError(f"row slice [{start}, {stop}) out of range for "
                             f"{self.shape[0]} rows")
        lo, hi = int(self.indptr[start]), int(self.indptr[stop])
        return CSRMatrix(self.indptr[start:stop + 1] - self.indptr[start],
                         self.indices[lo:hi].copy(),
                         self.data[lo:hi].copy(),
                         (stop - start, self.shape[1]))

    def row_select(self, rows: np.ndarray) -> "CSRMatrix":
        """Return the given rows, in the given order, as a new CSR matrix.

        The fancy-index generalisation of :meth:`row_slice`: the result
        keeps the full column dimension, so the product of a row
        selection of A with B is exactly the matching rows of A @ B —
        what the degree-aware shard planner's index-set shards rely on.
        Implemented as one gather (prefix sums + ``np.repeat``), no
        per-row Python loop.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if rows.size and (rows.min() < 0 or rows.max() >= self.shape[0]):
            raise IndexError(f"row selection out of range for "
                             f"{self.shape[0]} rows")
        counts = self.row_nnz_counts()[rows]
        indptr = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        source = np.arange(int(indptr[-1]), dtype=np.int64) + np.repeat(
            self.indptr[rows] - indptr[:-1], counts)
        return CSRMatrix(indptr, self.indices[source], self.data[source],
                         (int(rows.size), self.shape[1]))

    def col_range(self, start: int, stop: int) -> "CSRMatrix":
        """Return only the entries with column in ``[start, stop)``,
        *keeping the full shape* so column ids stay global.

        This is the operand slice behind monster-row fragment execution:
        ``A @ B.col_range(lo, hi)`` equals the column range ``[lo, hi)``
        of A @ B exactly (every partial product landing in that range
        comes from exactly these B entries, encountered in the same
        order), so fragment outputs concatenate back byte-identically.
        """
        if not 0 <= start <= stop <= self.shape[1]:
            raise IndexError(f"column range [{start}, {stop}) out of range "
                             f"for {self.shape[1]} columns")
        mask = (self.indices >= start) & (self.indices < stop)
        kept = np.zeros(self.nnz + 1, dtype=np.int64)
        np.cumsum(mask, out=kept[1:])
        return CSRMatrix(kept[self.indptr], self.indices[mask],
                         self.data[mask], self.shape)

    def get(self, i: int, j: int) -> float:
        """Return the value at (i, j), or 0.0 if the entry is not stored."""
        cols, vals = self.row(i)
        hit = np.searchsorted(cols, j)
        if hit < cols.size and cols[hit] == j:
            return float(vals[hit])
        return 0.0

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants; raise ValueError if violated."""
        if self.indptr.size != self.shape[0] + 1:
            raise ValueError("indptr length must be n_rows + 1")
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.size:
            raise ValueError("indptr must start at 0 and end at nnz")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if self.indices.size != self.data.size:
            raise ValueError("indices and data must have equal lengths")
        if self.indices.size and (self.indices.min() < 0
                                  or self.indices.max() >= self.shape[1]):
            raise ValueError("column index out of bounds")
        if self.indices.size > 1:
            # Per-row canonical order: sorted, duplicate-free column
            # indices.  One diff over the whole indices array with the
            # positions that straddle a row boundary masked out.
            diffs = np.diff(self.indices)
            same_row = np.ones(self.indices.size - 1, dtype=bool)
            boundaries = self.indptr[1:-1]
            boundaries = boundaries[(boundaries > 0)
                                    & (boundaries < self.indices.size)]
            same_row[boundaries - 1] = False
            if np.any(same_row & (diffs < 0)):
                raise ValueError("column indices must be sorted within "
                                 "each row")
            if np.any(same_row & (diffs == 0)):
                raise ValueError("duplicate column index within a row")
        self._validated = True

    def to_dense(self) -> np.ndarray:
        """Materialise the matrix as a dense numpy array, in one scatter
        (a valid CSR holds no duplicate entries, so it is exact)."""
        dense = np.zeros(self.shape, dtype=np.float64)
        rows = np.repeat(np.arange(self.shape[0]), self.row_nnz_counts())
        dense[rows, self.indices] = self.data
        return dense

    def to_coo(self):
        """Convert to :class:`~repro.sparse.coo.COOMatrix`."""
        from repro.sparse.convert import csr_to_coo

        return csr_to_coo(self)

    def transpose(self):
        """Return the transpose as a :class:`~repro.sparse.csc.CSCMatrix`.

        A CSR matrix reinterpreted with rows-as-columns is exactly the CSC
        representation of its transpose, so this is free.
        """
        from repro.sparse.csc import CSCMatrix

        return CSCMatrix(self.indptr.copy(), self.indices.copy(), self.data.copy(),
                         (self.shape[1], self.shape[0]))

    def scale_rows(self, factors: np.ndarray) -> "CSRMatrix":
        """Return a copy with row i multiplied by ``factors[i]``."""
        factors = np.asarray(factors, dtype=np.float64)
        if factors.shape != (self.shape[0],):
            raise ValueError("factors must have one entry per row")
        data = self.data * np.repeat(factors, self.row_nnz_counts())
        return CSRMatrix(self.indptr.copy(), self.indices.copy(), data, self.shape)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Sparse matrix-vector product ``A @ x``."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape[0] != self.shape[1]:
            raise ValueError("dimension mismatch in matvec")
        out = np.zeros(self.shape[0], dtype=np.float64)
        for i in range(self.shape[0]):
            cols, vals = self.row(i)
            if cols.size:
                out[i] = float(vals @ x[cols])
        return out

    def copy(self) -> "CSRMatrix":
        """Return a deep copy."""
        return CSRMatrix(self.indptr.copy(), self.indices.copy(),
                         self.data.copy(), self.shape)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRMatrix):
            return NotImplemented
        return (self.shape == other.shape
                and np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices)
                and np.allclose(self.data, other.data))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"CSRMatrix(shape={self.shape}, nnz={self.nnz}, "
                f"sparsity={self.sparsity:.4f})")
