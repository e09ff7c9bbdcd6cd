"""Unit tests for symbolic SpGEMM and the memory-bloat analysis (Table 1)."""

import numpy as np
import pytest

from repro.sparse import kernels
from repro.sparse.bloat import (
    analytic_bloat_estimate,
    bloat_percent,
    bloat_report,
    partial_product_count,
)
from repro.sparse.convert import csr_to_csc
from repro.sparse.csr import CSRMatrix
from repro.sparse.symbolic import symbolic_spgemm, symbolic_spgemm_from_csc


class TestSymbolic:
    def test_structure_matches_numeric_product(self, random_pair):
        a, b = random_pair
        symbolic = symbolic_spgemm(a, b)
        numeric = kernels.spgemm(a, b).matrix
        np.testing.assert_array_equal(symbolic.indptr, numeric.indptr)
        np.testing.assert_array_equal(symbolic.indices, numeric.indices)

    def test_structure_keeps_cancelled_entries(self):
        # Both keep C[0, 0], whose partial products 2 and -2 cancel.
        a = CSRMatrix.from_dense(np.array([[1.0, 1.0], [0.0, 3.0]]))
        b = CSRMatrix.from_dense(np.array([[2.0, 1.0], [-2.0, 0.0]]))
        symbolic = symbolic_spgemm(a, b)
        numeric = kernels.spgemm(a, b).matrix
        assert numeric.data.tolist() == [0.0, 1.0, -6.0]
        np.testing.assert_array_equal(symbolic.indptr, numeric.indptr)
        np.testing.assert_array_equal(symbolic.indices, numeric.indices)

    def test_total_partial_products_matches_numeric(self, random_pair):
        a, b = random_pair
        symbolic = symbolic_spgemm(a, b)
        numeric = kernels.spgemm(a, b)
        assert symbolic.total_partial_products == numeric.partial_products

    def test_counters_sum_to_partial_products(self, random_pair):
        a, b = random_pair
        symbolic = symbolic_spgemm(a, b)
        assert sum(symbolic.entries.values()) == symbolic.total_partial_products

    def test_csc_variant_agrees_with_csr_variant(self, random_pair):
        a, b = random_pair
        from_csr = symbolic_spgemm(a, b)
        from_csc = symbolic_spgemm_from_csc(csr_to_csc(a), b)
        assert from_csr.entries == from_csc.entries
        assert from_csr.total_partial_products == from_csc.total_partial_products

    def test_counter_lookup(self, random_pair):
        a, b = random_pair
        symbolic = symbolic_spgemm(a, b)
        some_key = next(iter(symbolic.entries))
        assert symbolic.counter(*some_key) == symbolic.entries[some_key]
        assert symbolic.counter(10_000, 10_000) == 0

    def test_counters_for_row(self, random_pair):
        a, b = random_pair
        symbolic = symbolic_spgemm(a, b)
        row = next(iter(symbolic.entries))[0]
        per_row = symbolic.counters_for_row(row)
        assert per_row
        for col, count in per_row.items():
            assert symbolic.entries[(row, col)] == count

    def test_row_nnz_counts(self, random_pair):
        a, b = random_pair
        symbolic = symbolic_spgemm(a, b)
        assert int(symbolic.row_nnz_counts().sum()) == symbolic.nnz

    def test_dimension_mismatch(self):
        a = CSRMatrix.from_dense(np.ones((2, 3)))
        with pytest.raises(ValueError):
            symbolic_spgemm(a, a)


class TestBloat:
    def test_partial_product_count_identity(self):
        eye = CSRMatrix.from_dense(np.eye(5))
        assert partial_product_count(eye, eye) == 5

    def test_identity_has_zero_bloat(self):
        eye = CSRMatrix.from_dense(np.eye(5))
        assert bloat_percent(eye) == pytest.approx(0.0)

    def test_bloat_matches_dataflow_measurement(self, random_pair):
        a, b = random_pair
        numeric = kernels.spgemm(a, b)
        output_nnz = numeric.matrix.nnz
        measured = (numeric.partial_products - output_nnz) / output_nnz * 100
        assert bloat_percent(a, b) == pytest.approx(measured)

    def test_dense_square_has_positive_bloat(self):
        dense = CSRMatrix.from_dense(np.ones((6, 6)))
        # Every output element receives 6 partial products -> 500% bloat.
        assert bloat_percent(dense) == pytest.approx(500.0)

    def test_bloat_report_fields(self, random_coo):
        from repro.sparse.convert import coo_to_csr

        a = coo_to_csr(random_coo)
        report = bloat_report("probe", a)
        assert report.name == "probe"
        assert report.node_count == a.shape[0]
        assert report.edge_count == a.nnz
        assert report.partial_products >= report.output_nnz
        row = report.as_row()
        assert set(row) == {"dataset", "node_count", "edge_count",
                            "sparsity_percent", "bloat_percent"}

    def test_empty_matrix_bloat_is_zero(self):
        empty = CSRMatrix.empty((4, 4))
        assert bloat_percent(empty) == 0.0

    def test_analytic_estimate_monotone_in_density(self):
        sparse = analytic_bloat_estimate(10_000, 20_000, degree_cv=1.0)
        dense = analytic_bloat_estimate(10_000, 200_000, degree_cv=1.0)
        assert dense > sparse >= 0.0

    def test_analytic_estimate_handles_degenerate_inputs(self):
        assert analytic_bloat_estimate(0, 0) == 0.0
        assert analytic_bloat_estimate(10, 0) == 0.0
