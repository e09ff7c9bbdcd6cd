"""The SpGEMM oracle against the row-wise Python loop and dense numpy.

``repro.sparse.kernels.spgemm`` is the one oracle the program replay is
checked against.  It is trustworthy only if it reproduces the row-wise
Python loop (``row_wise_reference`` in conftest) — same output structure,
explicit zeros included, the same partial-product count, and values equal
to within summation-association error — across shapes, densities and
degenerate structures (empty rows/columns, empty operands, cancelling
values).
"""

import numpy as np
import pytest

from repro.sparse import kernels
from repro.sparse.convert import coo_to_csr
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix


def _random_sparse(rng, shape, density):
    dense = (rng.random(shape) < density) * rng.random(shape)
    return CSRMatrix.from_dense(dense), dense


def _assert_matches_loop(a, b, row_wise_result):
    __tracebackhide__ = True
    reference, partial_products = row_wise_result(a, b)
    result = kernels.spgemm(a, b)
    assert result.partial_products == partial_products
    assert result.matrix.shape == reference.shape
    assert np.array_equal(result.matrix.indptr, reference.indptr)
    assert np.array_equal(result.matrix.indices, reference.indices)
    assert np.allclose(result.matrix.data, reference.data,
                       rtol=1e-12, atol=1e-12)
    return result


class TestDispatch:
    def test_unknown_dataflow_lists_options(self):
        a = CSRMatrix.from_dense(np.eye(3))
        with pytest.raises(ValueError, match="row_wise"):
            kernels.spgemm(a, a, dataflow="tiled_gustavson")
        assert kernels.spgemm(a, a, dataflow="row_wise").partial_products == 3


class TestNumpyMatchesPython:
    """Property-style sweep over random and degenerate operands."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_square_matrices(self, seed, row_wise_result):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 36))
        density = float(rng.choice([0.02, 0.08, 0.25, 0.6]))
        a, da = _random_sparse(rng, (n, n), density)
        b, db = _random_sparse(rng, (n, n), density)
        result = _assert_matches_loop(a, b, row_wise_result)
        assert np.allclose(result.matrix.to_dense(), da @ db)

    @pytest.mark.parametrize("shape_a,shape_b", [
        ((3, 17), (17, 9)),
        ((24, 5), (5, 24)),
        ((1, 8), (8, 1)),
    ])
    def test_rectangular_matrices(self, shape_a, shape_b, row_wise_result):
        rng = np.random.default_rng(42)
        a, da = _random_sparse(rng, shape_a, 0.3)
        b, db = _random_sparse(rng, shape_b, 0.3)
        result = _assert_matches_loop(a, b, row_wise_result)
        assert np.allclose(result.matrix.to_dense(), da @ db)

    def test_empty_rows_and_columns(self, row_wise_result):
        rng = np.random.default_rng(7)
        dense_a = np.zeros((12, 12))
        dense_b = np.zeros((12, 12))
        # Only a few rows/cols populated; the rest stay structurally empty.
        dense_a[[1, 5], :] = rng.random((2, 12)) * (rng.random((2, 12)) < 0.5)
        dense_b[:, [0, 9]] = rng.random((12, 2)) * (rng.random((12, 2)) < 0.5)
        a = CSRMatrix.from_dense(dense_a)
        b = CSRMatrix.from_dense(dense_b)
        result = _assert_matches_loop(a, b, row_wise_result)
        assert np.allclose(result.matrix.to_dense(), dense_a @ dense_b)

    def test_empty_operands(self, row_wise_result):
        a = CSRMatrix.empty((6, 4))
        b = CSRMatrix.empty((4, 5))
        result = _assert_matches_loop(a, b, row_wise_result)
        assert result.partial_products == 0
        assert result.matrix.nnz == 0
        assert result.matrix.shape == (6, 5)

    def test_cancelling_values_keep_an_explicit_zero(self, row_wise_result):
        # C[0, 0] = 1*2 + 1*(-2): structurally present, numerically zero.
        a = CSRMatrix.from_dense(np.array([[1.0, 1.0], [0.0, 3.0]]))
        b = CSRMatrix.from_dense(np.array([[2.0, 1.0], [-2.0, 0.0]]))
        result = _assert_matches_loop(a, b, row_wise_result)
        assert result.matrix.indptr.tolist() == [0, 2, 3]
        assert result.matrix.indices.tolist() == [0, 1, 0]
        assert result.matrix.data.tolist() == [0.0, 1.0, -6.0]
        assert result.partial_products == 4

    def test_dimension_mismatch_raises(self, row_wise_result):
        a = CSRMatrix.from_dense(np.eye(3))
        b = CSRMatrix.from_dense(np.eye(4))
        with pytest.raises(ValueError, match="dimension mismatch"):
            kernels.spgemm(a, b)
        with pytest.raises(ValueError, match="dimension mismatch"):
            row_wise_result(a, b)

    def test_sort_merge_path_matches_dense_path(self, row_wise_result):
        # A shape large enough (25M flattened coordinates vs a few
        # thousand partial products) to route through the sort-based merge
        # instead of the dense-bin merge.  The entries sit on 40 nodes
        # spread over the index space, so A @ A has partial products.
        rng = np.random.default_rng(11)
        n = 5000
        nodes = rng.choice(n, size=40, replace=False)
        a = coo_to_csr(COOMatrix(nodes[rng.integers(0, 40, size=300)],
                                 nodes[rng.integers(0, 40, size=300)],
                                 rng.random(300) - 0.5, (n, n)))
        keys, vals, row_ptr = kernels._expand_partial_products(a, a)
        assert keys.size > 0
        assert n * n > kernels._DENSE_MERGE_EXPANSION_LIMIT * keys.size
        assert n * n > kernels._DENSE_MERGE_ABSOLUTE_LIMIT
        result = _assert_matches_loop(a, a, row_wise_result)
        dense_path = kernels._merge_dense_blocked(keys, vals, row_ptr, (n, n))
        assert np.array_equal(result.matrix.indptr, dense_path.indptr)
        assert np.array_equal(result.matrix.indices, dense_path.indices)
        assert np.allclose(result.matrix.data, dense_path.data,
                           rtol=1e-12, atol=1e-12)
