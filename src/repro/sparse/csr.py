"""Compressed Sparse Row (CSR) matrix.

The feature matrix B of the aggregation phase is stored in CSR in the paper
(Section 3.1): Gustavson's algorithm walks a row of A and, for each non-zero
A[i, k], streams the entire row k of B.  CSR gives O(1) access to that row.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from typing import Any

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
    def from_canonical(cls, indptr: np.ndarray, indices: np.ndarray,
                       data: np.ndarray, shape) -> "CSRMatrix":
        """Wrap int64 / int64 / float64 arrays known to pass
        :func:`csr_problems` without converting or re-checking them."""
        matrix = cls.__new__(cls)
        matrix.__dict__.update(indptr=indptr, indices=indices, data=data,
                               shape=(int(shape[0]), int(shape[1])))
        return matrix

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
        """Check the canonical-CSR invariants (:func:`csr_problems`);
        raise :class:`~repro.analysis.findings.StructureError`, a
        ``ValueError``, if any is violated."""
        problems = csr_problems(self)
        if problems:
            # Imported here: repro.analysis imports this module.
            from repro.analysis.structure import structure_error

            raise structure_error(problems, "CSRMatrix")

    def to_dense(self) -> np.ndarray:
        """Materialise the matrix as a dense numpy array: a copy of a
        full CSR's row-major ``data``, else one scatter (a valid CSR holds
        no duplicate entries, so it is exact)."""
        if self.nnz == self.shape[0] * self.shape[1]:
            return self.data.reshape(self.shape).copy()
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


@functools.lru_cache(maxsize=16)
def _full_structure_index(n_rows: int, width: int):
    """A full-structure CSR's read-only index arrays, one pair per shape."""
    indptr = np.arange(n_rows + 1, dtype=np.int64) * width
    indices = np.tile(np.arange(width, dtype=np.int64), n_rows)
    indptr.flags.writeable = indices.flags.writeable = False
    return indptr, indices


def full_structure_csr(x: np.ndarray) -> CSRMatrix:
    """Encode a dense matrix as a CSR with *every* slot explicit, zeros
    included: its structure is its shape, so the program cache keys it by
    shape alone and one compiled aggregation program serves every matrix
    of that shape after a value re-bind.  Its index arrays depend on the
    shape alone: they are built once per shape and shared, read-only."""
    dense = np.ascontiguousarray(x, dtype=np.float64)
    if dense.ndim != 2:
        raise ValueError(f"expected a 2-D feature matrix, got shape "
                         f"{dense.shape}")
    return CSRMatrix.from_canonical(*_full_structure_index(*dense.shape),
                                    dense.reshape(-1), dense.shape)


def matrix_fingerprint(matrix) -> str:
    """Stable content hash of a sparse matrix (structure + values + dtype).

    Accepts any CSR/CSC-shaped object exposing ``indptr`` / ``indices`` /
    ``data`` / ``shape``.  The digest covers the array dtypes too, and no
    cache schema version, so an operand's name survives a schema bump.
    """
    digest = hashlib.sha1()
    digest.update(str(matrix.shape).encode())
    for array in (matrix.indptr, matrix.indices, matrix.data):
        digest.update(str(array.dtype).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def csr_problems(matrix: Any) -> list[tuple[str, str]]:
    """The canonical-CSR invariants ``matrix`` violates, as ``(check,
    message)`` pairs (empty == canonical).

    Duck-types anything with ``indptr / indices / data / shape``:

    * ``indptr`` has ``n_rows + 1`` entries, starts at 0, ends at nnz and
      is non-decreasing;
    * ``indices`` and ``data`` agree on nnz;
    * column indices are in ``[0, n_cols)`` and, per row, strictly
      increasing (sorted, duplicate-free);
    * dtypes are the canonical int64/int64/float64 triple.

    All checks are vectorized; the sorted/duplicate check is a single
    ``diff`` with the row boundaries masked out.
    """
    problems: list[tuple[str, str]] = []
    indptr = np.asarray(matrix.indptr)
    indices = np.asarray(matrix.indices)
    data = np.asarray(matrix.data)
    n_rows, n_cols = (int(matrix.shape[0]), int(matrix.shape[1]))

    if indptr.ndim != 1 or indices.ndim != 1 or data.ndim != 1:
        return [("shape-agreement",
                 f"indptr/indices/data must be 1-D (got {indptr.ndim}-D, "
                 f"{indices.ndim}-D, {data.ndim}-D)")]
    if indptr.size != n_rows + 1:
        return [("shape-agreement",
                 f"indptr has {indptr.size} entries for {n_rows} rows "
                 f"(expected {n_rows + 1})")]
    if indices.size != data.size:
        return [("shape-agreement",
                 f"indices ({indices.size}) and data ({data.size}) disagree "
                 "on nnz")]
    for name, array, expected in (("indptr", indptr, np.int64),
                                  ("indices", indices, np.int64),
                                  ("data", data, np.float64)):
        if array.dtype != expected:
            problems.append(("dtype-agreement",
                             f"{name} is {array.dtype}; canonical CSR uses "
                             f"{np.dtype(expected).name}"))

    nnz = indices.size
    if int(indptr[0]) != 0 or int(indptr[-1]) != nnz:
        problems.append(("indptr-monotone",
                         f"indptr spans [{int(indptr[0])}, {int(indptr[-1])}] "
                         f"for {nnz} stored entries (must span [0, nnz])"))
        return problems
    steps = np.diff(indptr)
    if np.any(steps < 0):
        row = int(np.flatnonzero(steps < 0)[0])
        problems.append(("indptr-monotone",
                         f"indptr decreases at row {row} "
                         f"({int(indptr[row])} -> {int(indptr[row + 1])})"))
        return problems

    if nnz:
        low, high = int(indices.min()), int(indices.max())
        if low < 0 or high >= n_cols:
            problems.append(("column-bounds",
                             f"column indices span [{low}, {high}] outside "
                             f"[0, {n_cols}) for shape ({n_rows}, {n_cols})"))
            return problems
    if nnz > 1:
        # Per-row sortedness: a negative diff inside a row is unsorted, a
        # zero diff is a duplicate.  Positions where a row boundary falls
        # between indices[i] and indices[i + 1] are exempt.
        diffs = np.diff(indices)
        same_row = np.ones(nnz - 1, dtype=bool)
        boundaries = indptr[1:-1]
        boundaries = boundaries[(boundaries > 0) & (boundaries < nnz)]
        same_row[np.asarray(boundaries, dtype=np.int64) - 1] = False
        unsorted = same_row & (diffs < 0)
        duplicate = same_row & (diffs == 0)
        if np.any(unsorted):
            at = int(np.flatnonzero(unsorted)[0])
            row = int(np.searchsorted(indptr, at, side="right")) - 1
            problems.append(("sorted-indices",
                             f"row {row}: column indices are unsorted "
                             f"({int(indices[at])} followed by "
                             f"{int(indices[at + 1])})"))
        if np.any(duplicate):
            at = int(np.flatnonzero(duplicate)[0])
            row = int(np.searchsorted(indptr, at, side="right")) - 1
            problems.append(("duplicate-indices",
                             f"row {row}: column index {int(indices[at])} "
                             "appears more than once"))
    return problems
