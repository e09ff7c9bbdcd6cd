"""Coordinate-format (COO) sparse matrix.

COO is the interchange format of the reproduction: dataset generators emit
COO, and the compressed formats (CSR/CSC) are built from it.  The class is
a thin, validated container around three parallel numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class COOMatrix:
    """A sparse matrix in coordinate (triplet) format.

    Attributes:
        rows: int64 array of row indices, one per stored entry.
        cols: int64 array of column indices, one per stored entry.
        data: float64 array of values, one per stored entry.
        shape: (n_rows, n_cols) of the logical dense matrix.
    """

    rows: np.ndarray
    cols: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]
    #: Memoized content digest (:func:`repro.gnn.gcn.adjacency_digest`).
    content_digest: str | None = field(default=None, init=False, repr=False,
                                       compare=False)

    def __post_init__(self) -> None:
        self.rows = np.asarray(self.rows, dtype=np.int64)
        self.cols = np.asarray(self.cols, dtype=np.int64)
        self.data = np.asarray(self.data, dtype=np.float64)
        self.shape = (int(self.shape[0]), int(self.shape[1]))
        self.validate()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, shape: tuple[int, int]) -> "COOMatrix":
        """Return an all-zero matrix of the given shape."""
        zeros = np.zeros(0, dtype=np.int64)
        return cls(zeros, zeros.copy(), np.zeros(0, dtype=np.float64), shape)

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "COOMatrix":
        """Build a COO matrix from a dense 2-D numpy array."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2:
            raise ValueError(f"expected a 2-D array, got ndim={dense.ndim}")
        rows, cols = np.nonzero(dense)
        return cls(rows, cols, dense[rows, cols], dense.shape)

    @classmethod
    def from_edges(
        cls,
        edges: list[tuple[int, int]] | np.ndarray,
        shape: tuple[int, int],
        values: np.ndarray | None = None,
    ) -> "COOMatrix":
        """Build a COO matrix from an edge list (e.g. a graph adjacency)."""
        edges = np.asarray(edges, dtype=np.int64)
        if edges.size == 0:
            return cls.empty(shape)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError("edges must be an (n, 2) array of (row, col) pairs")
        if values is None:
            values = np.ones(len(edges), dtype=np.float64)
        return cls(edges[:, 0], edges[:, 1], values, shape)

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of stored entries (before duplicate summation)."""
        return int(self.data.size)

    @property
    def sparsity(self) -> float:
        """Fraction of zero entries in the logical dense matrix, in [0, 1]."""
        total = self.shape[0] * self.shape[1]
        if total == 0:
            return 0.0
        return 1.0 - self.nnz / total

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check index bounds and array lengths; raise ValueError on errors."""
        if not (self.rows.size == self.cols.size == self.data.size):
            raise ValueError("rows, cols and data must have equal lengths")
        if self.rows.size:
            if self.rows.min() < 0 or self.rows.max() >= self.shape[0]:
                raise ValueError("row index out of bounds")
            if self.cols.min() < 0 or self.cols.max() >= self.shape[1]:
                raise ValueError("column index out of bounds")

    def sum_duplicates(self) -> "COOMatrix":
        """Return a copy with duplicate (row, col) entries summed together."""
        if self.nnz == 0:
            return COOMatrix.empty(self.shape)
        keys = self.rows * self.shape[1] + self.cols
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        data = self.data[order]
        unique_keys, start = np.unique(keys, return_index=True)
        summed = np.add.reduceat(data, start)
        rows = unique_keys // self.shape[1]
        cols = unique_keys % self.shape[1]
        return COOMatrix(rows, cols, summed, self.shape)

    def prune(self, tol: float = 0.0) -> "COOMatrix":
        """Return a copy with entries whose magnitude is <= ``tol`` removed."""
        keep = np.abs(self.data) > tol
        return COOMatrix(self.rows[keep], self.cols[keep], self.data[keep], self.shape)

    def transpose(self) -> "COOMatrix":
        """Return the transposed matrix (rows and cols swapped)."""
        return COOMatrix(self.cols.copy(), self.rows.copy(), self.data.copy(),
                         (self.shape[1], self.shape[0]))

    def to_dense(self) -> np.ndarray:
        """Materialise the matrix as a dense numpy array (sums duplicates)."""
        dense = np.zeros(self.shape, dtype=np.float64)
        np.add.at(dense, (self.rows, self.cols), self.data)
        return dense

    def copy(self) -> "COOMatrix":
        """Return a deep copy."""
        return COOMatrix(self.rows.copy(), self.cols.copy(), self.data.copy(), self.shape)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, COOMatrix):
            return NotImplemented
        if self.shape != other.shape:
            return False
        return bool(np.array_equal(self.sum_duplicates().to_dense(),
                                   other.sum_duplicates().to_dense()))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"COOMatrix(shape={self.shape}, nnz={self.nnz}, "
                f"sparsity={self.sparsity:.4f})")
