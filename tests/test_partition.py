"""Row-shard planner: balance and the degenerate-input regressions."""

import numpy as np
import pytest

from repro.core import Session, SpGEMMSpec
from repro.sparse.convert import csr_vstack
from repro.sparse.csr import CSRMatrix
from repro.sparse.partition import estimate_row_partial_products, plan_shards


def csr_from_dense(dense):
    from repro.sparse.convert import coo_to_csr, dense_to_coo

    return coo_to_csr(dense_to_coo(np.asarray(dense, dtype=float)))


def empty_csr(n_rows, n_cols):
    return CSRMatrix(np.zeros(n_rows + 1, dtype=np.int64),
                     np.zeros(0, dtype=np.int64),
                     np.zeros(0, dtype=np.float64), (n_rows, n_cols))


def row_ranges(a, n_shards, b=None):
    """The contiguous plan's half-open row ranges, as a list."""
    return list(plan_shards(a, n_shards, b, strategy="contiguous").ranges)


class TestDegenerateShapes:
    """The three shapes from the issue: more shards than rows, all-empty
    rows, and an empty A must never produce zero-work shards."""

    def test_more_shards_than_rows_returns_fewer(self):
        matrix = csr_from_dense(np.eye(3))
        ranges = row_ranges(matrix, 16)
        assert len(ranges) == 3
        assert ranges[0][0] == 0 and ranges[-1][1] == 3

    def test_all_empty_rows_collapse_to_one_shard(self):
        matrix = empty_csr(5, 5)
        assert row_ranges(matrix, 4) == [(0, 5)]
        assert row_ranges(matrix, 4, matrix) == [(0, 5)]

    def test_zero_row_matrix_yields_degenerate_range(self):
        # A 0x5 A times a 5x5 B (A @ A would not multiply).
        assert row_ranges(empty_csr(0, 5), 4, empty_csr(5, 5)) == [(0, 0)]

    def test_empty_product_falls_back_to_nnz_weights(self):
        # A has entries but A @ B is structurally empty: shard by nnz of A.
        a = csr_from_dense([[1.0, 0.0], [0.0, 1.0]])
        b = empty_csr(2, 3)
        ranges = row_ranges(a, 2, b)
        assert ranges == [(0, 1), (1, 2)]

    def test_no_zero_work_shards_with_empty_row_runs(self):
        # Rows 0-1 and 4-5 are empty; only rows 2 and 3 carry work.  The
        # old planner forced 4 shards and emitted zero-work slices.
        dense = np.zeros((6, 6))
        dense[2, 0] = dense[3, 1] = 1.0
        matrix = csr_from_dense(dense)
        ranges = row_ranges(matrix, 4)
        assert len(ranges) <= 2
        nnz = matrix.row_nnz_counts()
        for lo, hi in ranges:
            assert int(nnz[lo:hi].sum()) > 0
        # Coverage is still exact.
        assert ranges[0][0] == 0 and ranges[-1][1] == 6
        for (_, prev_hi), (lo, _) in zip(ranges, ranges[1:]):
            assert lo == prev_hi

    def test_invalid_shard_count_rejected(self):
        with pytest.raises(ValueError, match="n_shards"):
            plan_shards(csr_from_dense(np.eye(2)), 0)

    def test_degenerate_plans_reassemble(self):
        dense = np.zeros((8, 8))
        dense[0, 1] = dense[7, 2] = 1.0
        matrix = csr_from_dense(dense)
        ranges = row_ranges(matrix, 5)
        stacked = csr_vstack([matrix.row_slice(lo, hi) for lo, hi in ranges])
        assert np.array_equal(stacked.to_dense(), matrix.to_dense())


class TestSessionDegenerateSharding:
    """Degenerate plans must flow through compile / csr_vstack cleanly."""

    def test_all_empty_matrix_sharded_run(self):
        matrix = empty_csr(5, 5)
        with Session("Tile-4", backend="analytic") as session:
            whole = session.run(SpGEMMSpec(a=matrix, verify=False))
            sharded = session.run(SpGEMMSpec(a=matrix, shards=3,
                                             verify=False))
        assert sharded.metrics == whole.metrics
        assert sharded.provenance.shards == 1

    def test_single_effective_shard_runs_unsharded(self):
        matrix = csr_from_dense([[1.0]])
        with Session("Tile-4", backend="analytic") as session:
            result = session.run(SpGEMMSpec(a=matrix, shards=8,
                                            verify=False))
        assert result.provenance.shards == 1
        assert result.metrics["output_nnz"] == 1

    def test_sparse_rows_sharded_matches_unsharded(self):
        dense = np.zeros((10, 10))
        dense[3, 4] = 2.0
        dense[4, 3] = 1.0
        dense[9, 0] = 5.0
        matrix = csr_from_dense(dense)
        with Session("Tile-4", backend="analytic") as session:
            whole = session.run(SpGEMMSpec(a=matrix, verify=False))
            sharded = session.run(SpGEMMSpec(a=matrix, shards=6,
                                             verify=False))
        assert np.array_equal(sharded.output.to_dense(),
                              whole.output.to_dense())
        assert sharded.metrics["partial_products"] == \
            whole.metrics["partial_products"]


class TestPlanLoads:
    def test_totals_match_estimate(self):
        rng = np.random.default_rng(3)
        dense = (rng.random((12, 12)) < 0.3) * rng.random((12, 12))
        matrix = csr_from_dense(dense)
        plan = plan_shards(matrix, 3, strategy="contiguous")
        weights = estimate_row_partial_products(matrix, matrix)
        assert int(plan.loads.sum()) == int(weights.sum())
        assert len(plan.loads) == len(plan.ranges)
        assert plan.loads.tolist() == [int(weights[lo:hi].sum())
                                       for lo, hi in plan.ranges]
