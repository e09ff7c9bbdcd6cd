"""Property-based tests (hypothesis) for the sparse substrate."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.compiler import compile_spgemm
from repro.sparse import kernels
from repro.sparse.bloat import bloat_percent, partial_product_count
from repro.sparse.convert import (
    coo_to_csc,
    coo_to_csr,
    csc_to_csr,
    csr_to_csc,
)
from repro.sparse.coo import COOMatrix
from repro.sparse.symbolic import symbolic_spgemm


@st.composite
def sparse_matrices(draw, max_dim=12, square=False):
    """Random small sparse matrices as (COOMatrix, dense) pairs."""
    n_rows = draw(st.integers(min_value=1, max_value=max_dim))
    n_cols = n_rows if square else draw(st.integers(min_value=1, max_value=max_dim))
    nnz = draw(st.integers(min_value=0, max_value=n_rows * n_cols))
    rows = draw(st.lists(st.integers(0, n_rows - 1), min_size=nnz, max_size=nnz))
    cols = draw(st.lists(st.integers(0, n_cols - 1), min_size=nnz, max_size=nnz))
    values = draw(st.lists(st.floats(min_value=-8.0, max_value=8.0,
                                     allow_nan=False, allow_infinity=False),
                           min_size=nnz, max_size=nnz))
    coo = COOMatrix(np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64),
                    np.array(values), (n_rows, n_cols))
    return coo


@st.composite
def spgemm_pairs(draw, max_dim=10):
    """Compatible (A, B) CSR pairs for SpGEMM properties."""
    n_rows = draw(st.integers(1, max_dim))
    inner = draw(st.integers(1, max_dim))
    n_cols = draw(st.integers(1, max_dim))
    a = draw(sparse_matrices(max_dim=max_dim))
    b = draw(sparse_matrices(max_dim=max_dim))
    a = COOMatrix(a.rows % n_rows, a.cols % inner, a.data, (n_rows, inner))
    b = COOMatrix(b.rows % inner, b.cols % n_cols, b.data, (inner, n_cols))
    return coo_to_csr(a), coo_to_csr(b)


class TestFormatRoundTrips:
    @given(sparse_matrices())
    @settings(max_examples=60, deadline=None)
    def test_csr_roundtrip_preserves_dense(self, coo):
        dense = coo.to_dense()
        assert np.allclose(coo_to_csr(coo).to_dense(), dense)

    @given(sparse_matrices())
    @settings(max_examples=60, deadline=None)
    def test_csc_roundtrip_preserves_dense(self, coo):
        dense = coo.to_dense()
        assert np.allclose(coo_to_csc(coo).to_dense(), dense)

    @given(sparse_matrices())
    @settings(max_examples=60, deadline=None)
    def test_csr_csc_cross_conversion(self, coo):
        csr = coo_to_csr(coo)
        assert np.allclose(csr_to_csc(csr).to_dense(), csr.to_dense())
        csc = coo_to_csc(coo)
        assert np.allclose(csc_to_csr(csc).to_dense(), csc.to_dense())

    @given(sparse_matrices())
    @settings(max_examples=60, deadline=None)
    def test_transpose_involution(self, coo):
        assert np.allclose(coo.transpose().transpose().to_dense(), coo.to_dense())

    @given(sparse_matrices())
    @settings(max_examples=60, deadline=None)
    def test_nnz_never_exceeds_cells_after_merge(self, coo):
        merged = coo.sum_duplicates()
        assert merged.nnz <= coo.shape[0] * coo.shape[1]


class TestSpGEMMProperties:
    @given(spgemm_pairs())
    @settings(max_examples=40, deadline=None)
    def test_every_dataflow_matches_numpy(self, row_wise_result, pair):
        # Row-wise: the oracle and its Python loop.  Tiled Gustavson: the
        # compiled program's replay, byte-identical to the oracle.
        a, b = pair
        result = kernels.spgemm(a, b)
        loop, partial_products = row_wise_result(a, b)
        assert result.partial_products == partial_products
        assert np.array_equal(result.matrix.indptr, loop.indptr)
        assert np.array_equal(result.matrix.indices, loop.indices)
        assert np.allclose(result.matrix.data, loop.data,
                           rtol=1e-12, atol=1e-12)
        assert np.allclose(result.matrix.to_dense(),
                           a.to_dense() @ b.to_dense())
        replay = compile_spgemm(csr_to_csc(a), b, tile_size=4).replay()
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(replay, name),
                                  getattr(result.matrix, name)), name

    @given(spgemm_pairs())
    @settings(max_examples=40, deadline=None)
    def test_symbolic_counters_match_numeric_contributions(self, pair):
        a, b = pair
        symbolic = symbolic_spgemm(a, b)
        # Recount contributions directly from the operand structures.
        recount: dict[tuple[int, int], int] = {}
        for i in range(a.shape[0]):
            a_cols, _ = a.row(i)
            for k in a_cols.tolist():
                b_cols, _ = b.row(k)
                for j in b_cols.tolist():
                    recount[(i, j)] = recount.get((i, j), 0) + 1
        assert recount == symbolic.entries

    @given(spgemm_pairs())
    @settings(max_examples=40, deadline=None)
    def test_partial_product_count_matches_dataflow(self, pair):
        a, b = pair
        assert partial_product_count(a, b) == kernels.spgemm(a, b).partial_products

    @given(spgemm_pairs())
    @settings(max_examples=40, deadline=None)
    def test_bloat_is_non_negative(self, pair):
        a, b = pair
        assert bloat_percent(a, b) >= 0.0
