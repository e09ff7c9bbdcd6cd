"""Unit tests for the CSR and CSC compressed formats."""

import numpy as np
import pytest

from repro.sparse.convert import coo_to_csc, coo_to_csr
from repro.sparse.csc import CSCMatrix
from repro.sparse.csr import CSRMatrix


class TestCSRConstruction:
    def test_from_dense_roundtrip(self, small_dense):
        csr = CSRMatrix.from_dense(small_dense)
        assert np.array_equal(csr.to_dense(), small_dense)

    def test_from_coo(self, small_coo, small_dense):
        csr = CSRMatrix.from_coo(small_coo)
        assert np.array_equal(csr.to_dense(), small_dense)

    def test_empty(self):
        csr = CSRMatrix.empty((4, 3))
        assert csr.nnz == 0
        assert csr.row_nnz(2) == 0

    def test_invalid_indptr_length(self):
        with pytest.raises(ValueError):
            CSRMatrix(np.array([0, 1]), np.array([0]), np.array([1.0]), (3, 3))

    def test_invalid_indptr_monotonicity(self):
        with pytest.raises(ValueError):
            CSRMatrix(np.array([0, 2, 1, 2]), np.array([0, 1]),
                      np.array([1.0, 2.0]), (3, 3))

    def test_invalid_column_index(self):
        with pytest.raises(ValueError):
            CSRMatrix(np.array([0, 1]), np.array([9]), np.array([1.0]), (1, 3))


class TestCSRAccess:
    def test_row_returns_columns_and_values(self, small_coo):
        csr = coo_to_csr(small_coo)
        cols, vals = csr.row(2)
        assert cols.tolist() == [0, 1, 3]
        assert vals.tolist() == [3.0, 4.0, 5.0]

    def test_row_out_of_range(self, small_coo):
        csr = coo_to_csr(small_coo)
        with pytest.raises(IndexError):
            csr.row(10)

    def test_row_nnz_counts(self, small_coo):
        csr = coo_to_csr(small_coo)
        assert csr.row_nnz_counts().tolist() == [2, 0, 3, 2]

    def test_get_present_and_absent(self, small_coo):
        csr = coo_to_csr(small_coo)
        assert csr.get(2, 1) == pytest.approx(4.0)
        assert csr.get(1, 1) == 0.0

    def test_matvec_matches_dense(self, small_coo, small_dense):
        csr = coo_to_csr(small_coo)
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert np.allclose(csr.matvec(x), small_dense @ x)

    def test_matvec_dimension_mismatch(self, small_coo):
        csr = coo_to_csr(small_coo)
        with pytest.raises(ValueError):
            csr.matvec(np.ones(7))

    def test_scale_rows(self, small_coo, small_dense):
        csr = coo_to_csr(small_coo)
        factors = np.array([1.0, 2.0, 0.5, 3.0])
        scaled = csr.scale_rows(factors)
        assert np.allclose(scaled.to_dense(), small_dense * factors[:, None])

    def test_scale_rows_bad_length(self, small_coo):
        csr = coo_to_csr(small_coo)
        with pytest.raises(ValueError):
            csr.scale_rows(np.ones(2))

    def test_transpose_is_csc_of_transpose(self, small_coo, small_dense):
        csr = coo_to_csr(small_coo)
        csc = csr.transpose()
        assert isinstance(csc, CSCMatrix)
        assert np.array_equal(csc.to_dense(), small_dense.T)


class TestCSCConstruction:
    def test_from_dense_roundtrip(self, small_dense):
        csc = CSCMatrix.from_dense(small_dense)
        assert np.array_equal(csc.to_dense(), small_dense)

    def test_empty(self):
        csc = CSCMatrix.empty((4, 3))
        assert csc.nnz == 0
        assert csc.col_nnz(1) == 0

    def test_invalid_row_index(self):
        with pytest.raises(ValueError):
            CSCMatrix(np.array([0, 1]), np.array([9]), np.array([1.0]), (3, 1))


class TestCSCAccess:
    def test_col_returns_rows_and_values(self, small_coo):
        csc = coo_to_csc(small_coo)
        rows, vals = csc.col(1)
        assert rows.tolist() == [2, 3]
        assert vals.tolist() == [4.0, 6.0]

    def test_col_out_of_range(self, small_coo):
        csc = coo_to_csc(small_coo)
        with pytest.raises(IndexError):
            csc.col(99)

    def test_col_nnz_counts(self, small_coo):
        csc = coo_to_csc(small_coo)
        assert csc.col_nnz_counts().tolist() == [2, 2, 1, 2]

    def test_get_present_and_absent(self, small_coo):
        csc = coo_to_csc(small_coo)
        assert csc.get(0, 2) == pytest.approx(2.0)
        assert csc.get(0, 1) == 0.0

    def test_transpose_is_csr_of_transpose(self, small_coo, small_dense):
        csc = coo_to_csc(small_coo)
        csr = csc.transpose()
        assert isinstance(csr, CSRMatrix)
        assert np.array_equal(csr.to_dense(), small_dense.T)

    def test_copy_is_independent(self, small_coo):
        csc = coo_to_csc(small_coo)
        copy = csc.copy()
        copy.data[0] = -1.0
        assert csc.data[0] != -1.0


class TestEquality:
    def test_csr_equality(self, small_coo):
        a = coo_to_csr(small_coo)
        b = coo_to_csr(small_coo)
        assert a == b

    def test_csr_inequality_on_values(self, small_coo):
        a = coo_to_csr(small_coo)
        b = a.copy()
        b.data[0] += 1.0
        assert a != b

    def test_csc_equality(self, small_coo):
        assert coo_to_csc(small_coo) == coo_to_csc(small_coo)


def _reference_dense(fmt, shape, indptr, indices, data):
    """Entry-by-entry scatter of a compressed matrix (the loop the
    vectorized ``to_dense`` replaced)."""
    dense = np.zeros(shape, dtype=np.float64)
    for outer in range(indptr.size - 1):
        for pos in range(indptr[outer], indptr[outer + 1]):
            if fmt is CSRMatrix:
                dense[outer, indices[pos]] = data[pos]
            else:
                dense[indices[pos], outer] = data[pos]
    return dense


class TestToDense:
    """``to_dense`` is one scatter, exact against an entry-by-entry one."""

    @pytest.mark.parametrize("fmt", [CSRMatrix, CSCMatrix])
    @pytest.mark.parametrize("shape", [(0, 4), (4, 0), (0, 0), (1, 1),
                                       (5, 7), (9, 3)])
    def test_matches_reference_scatter(self, fmt, shape):
        rng = np.random.default_rng(sum(shape))
        dense = np.where(rng.random(shape) < 0.4,
                         rng.standard_normal(shape), 0.0)
        if dense.size:
            dense[0] = 0.0  # an empty row
            dense[:, -1] = 0.0  # an empty column
        outer = shape[0] if fmt is CSRMatrix else shape[1]
        counts = (np.count_nonzero(dense, axis=1) if fmt is CSRMatrix
                  else np.count_nonzero(dense, axis=0))
        indptr = np.zeros(outer + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        major = dense if fmt is CSRMatrix else dense.T
        rows, cols = np.nonzero(major)
        data = major[rows, cols].copy()
        data[::3] = -0.0  # explicit signed zeros survive the scatter
        matrix = fmt(indptr, cols, data, shape)
        expected = _reference_dense(fmt, shape, indptr, cols, data)
        got = matrix.to_dense()
        assert got.shape == shape and got.dtype == np.float64
        assert got.tobytes() == expected.tobytes()
