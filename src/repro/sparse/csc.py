"""Compressed Sparse Column (CSC) matrix.

The adjacency matrix A of the aggregation phase is stored in CSC in the
paper (Section 3.1): the tiled Gustavson / MMH4 dataflow walks a *column*
of A (four elements at a time) and pairs it with the matching row of B.
CSC gives O(1) access to that column.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class CSCMatrix:
    """A sparse matrix in compressed sparse column format.

    Attributes:
        indptr: int64 array of length ``n_cols + 1``; column j occupies the
            half-open slice ``indices[indptr[j]:indptr[j + 1]]``.
        indices: int64 array of row indices, sorted within each column.
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
    def empty(cls, shape: tuple[int, int]) -> "CSCMatrix":
        """Return an all-zero matrix of the given shape."""
        return cls(np.zeros(shape[1] + 1, dtype=np.int64),
                   np.zeros(0, dtype=np.int64),
                   np.zeros(0, dtype=np.float64),
                   shape)

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CSCMatrix":
        """Build a CSC matrix from a dense 2-D numpy array."""
        from repro.sparse.convert import coo_to_csc
        from repro.sparse.coo import COOMatrix

        return coo_to_csc(COOMatrix.from_dense(dense))

    @classmethod
    def from_coo(cls, coo) -> "CSCMatrix":
        """Build a CSC matrix from a :class:`~repro.sparse.coo.COOMatrix`."""
        from repro.sparse.convert import coo_to_csc

        return coo_to_csc(coo)

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
    # Column access
    # ------------------------------------------------------------------
    def col(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Return (row indices, values) of column ``j``."""
        if not 0 <= j < self.shape[1]:
            raise IndexError(f"column {j} out of range for {self.shape[1]} columns")
        lo, hi = self.indptr[j], self.indptr[j + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def col_nnz(self, j: int) -> int:
        """Number of non-zeros in column ``j``."""
        return int(self.indptr[j + 1] - self.indptr[j])

    def col_nnz_counts(self) -> np.ndarray:
        """Per-column non-zero counts as an int64 array of length ``n_cols``."""
        return np.diff(self.indptr)

    def get(self, i: int, j: int) -> float:
        """Return the value at (i, j), or 0.0 if the entry is not stored."""
        rows, vals = self.col(j)
        hit = np.searchsorted(rows, i)
        if hit < rows.size and rows[hit] == i:
            return float(vals[hit])
        return 0.0

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants; raise ValueError if violated."""
        if self.indptr.size != self.shape[1] + 1:
            raise ValueError("indptr length must be n_cols + 1")
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.size:
            raise ValueError("indptr must start at 0 and end at nnz")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if self.indices.size != self.data.size:
            raise ValueError("indices and data must have equal lengths")
        if self.indices.size and (self.indices.min() < 0
                                  or self.indices.max() >= self.shape[0]):
            raise ValueError("row index out of bounds")
        self._validated = True

    def to_dense(self) -> np.ndarray:
        """Materialise the matrix as a dense numpy array, in one scatter
        (a valid CSC holds no duplicate entries, so it is exact)."""
        dense = np.zeros(self.shape, dtype=np.float64)
        cols = np.repeat(np.arange(self.shape[1]), self.col_nnz_counts())
        dense[self.indices, cols] = self.data
        return dense

    def to_coo(self):
        """Convert to :class:`~repro.sparse.coo.COOMatrix`."""
        from repro.sparse.convert import csc_to_coo

        return csc_to_coo(self)

    def transpose(self):
        """Return the transpose as a :class:`~repro.sparse.csr.CSRMatrix`."""
        from repro.sparse.csr import CSRMatrix

        return CSRMatrix(self.indptr.copy(), self.indices.copy(), self.data.copy(),
                         (self.shape[1], self.shape[0]))

    def copy(self) -> "CSCMatrix":
        """Return a deep copy."""
        return CSCMatrix(self.indptr.copy(), self.indices.copy(),
                         self.data.copy(), self.shape)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSCMatrix):
            return NotImplemented
        return (self.shape == other.shape
                and np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices)
                and np.allclose(self.data, other.data))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"CSCMatrix(shape={self.shape}, nnz={self.nnz}, "
                f"sparsity={self.sparsity:.4f})")
