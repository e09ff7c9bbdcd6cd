"""Degree-aware shard planning: plan properties, byte-identity, monster rows.

The contract under test is the one the multi-chip backend relies on: a
:class:`~repro.sparse.partition.ShardPlan` must cover every row of A exactly
once (split rows exactly once *via their fragments*), fragments of a split
row must partition the output column space, and reducing the per-shard
products must reproduce the unsharded kernel output **byte for byte** — same
indptr, same indices, bitwise-equal float data — for any strategy, shard
count, and executor.
"""

import hashlib

import numpy as np
import pytest

from repro.core import Session, SpGEMMSpec
from repro.datasets import (
    barabasi_albert_graph,
    kronecker_power_law_graph,
    load_dataset,
)
from repro.sparse import coo_to_csr, kernels
from repro.sparse.csr import CSRMatrix
from repro.sparse import partition
from repro.sparse.partition import (
    DEGREE_AUTO_SKEW_THRESHOLD,
    build_shard_units,
    estimate_row_partial_products,
    plan_shards,
    stitch_shard_outputs,
)


def _with_random_data(csr: CSRMatrix, seed: int) -> CSRMatrix:
    """Replace the unit weights of a generated graph with Gaussian floats so
    byte-identity actually exercises float summation order."""
    rng = np.random.default_rng(seed)
    return CSRMatrix(csr.indptr.copy(), csr.indices.copy(),
                     rng.standard_normal(csr.nnz), csr.shape)


def _ba(n: int = 256, attach: int = 6, seed: int = 0) -> CSRMatrix:
    return _with_random_data(
        coo_to_csr(barabasi_albert_graph(n, attach, seed=seed)), seed + 1)


def _kron(n: int = 256, seed: int = 0) -> CSRMatrix:
    m = 8 * n
    return _with_random_data(
        coo_to_csr(kronecker_power_law_graph(n, m, seed=seed)), seed + 1)


def _monster(n: int = 96, seed: int = 3) -> CSRMatrix:
    """One dense hub row plus a sparse tail: the hub's partial-product
    weight exceeds any fair per-shard budget, so the degree planner *must*
    split it into column-range fragments."""
    rng = np.random.default_rng(seed)
    rows = [np.zeros(n, dtype=np.int64)]
    cols = [np.arange(n, dtype=np.int64)]
    for r in range(1, n):
        deg = int(rng.integers(1, 4))
        rows.append(np.full(deg, r, dtype=np.int64))
        cols.append(rng.choice(n, size=deg, replace=False).astype(np.int64))
    r = np.concatenate(rows)
    c = np.concatenate(cols)
    order = np.lexsort((c, r))
    r, c = r[order], c[order]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, r + 1, 1)
    np.cumsum(indptr, out=indptr)
    return CSRMatrix(indptr, c, rng.standard_normal(c.size), (n, n))


def _assert_same_csr(got: CSRMatrix, want: CSRMatrix) -> None:
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.indices, want.indices)
    np.testing.assert_array_equal(got.data, want.data)  # bitwise, no tol


def _plan_row_cover(plan):
    """(rows covered by whole-row assignments, rows covered by fragments)."""
    whole = np.concatenate([s.rows for s in plan.shards]
                           + [np.empty(0, dtype=np.int64)])
    frag = np.array(sorted({f.row for s in plan.shards for f in s.fragments}),
                    dtype=np.int64)
    return whole, frag


class TestDegreePlanProperties:
    @pytest.mark.parametrize("n_shards", [1, 2, 3, 5, 8])
    def test_every_row_exactly_once(self, n_shards):
        a = _ba()
        plan = plan_shards(a, n_shards, a, strategy="degree")
        whole, frag = _plan_row_cover(plan)
        assert np.intersect1d(whole, frag).size == 0
        covered = np.sort(np.concatenate([whole, frag]))
        np.testing.assert_array_equal(covered, np.arange(a.shape[0]))
        assert tuple(sorted(plan.split_rows)) == tuple(frag.tolist())

    # at 2 shards the hub row fits under the per-shard budget; 4+ forces
    # fragment splitting
    @pytest.mark.parametrize("n_shards", [4, 8])
    def test_fragments_partition_columns(self, n_shards):
        a = _monster()
        plan = plan_shards(a, n_shards, a, strategy="degree")
        assert plan.split_rows, "monster row should force fragment splitting"
        n_cols = a.shape[1]
        for row in plan.split_rows:
            frags = sorted((f for s in plan.shards for f in s.fragments
                            if f.row == row), key=lambda f: f.col_lo)
            assert frags[0].col_lo == 0
            assert frags[-1].col_hi == n_cols
            for left, right in zip(frags, frags[1:]):
                assert left.col_hi == right.col_lo  # contiguous, no overlap

    @pytest.mark.parametrize("strategy", ["contiguous", "degree"])
    def test_loads_sum_to_total_weight(self, strategy):
        a = _kron()
        plan = plan_shards(a, 4, a, strategy=strategy)
        total = estimate_row_partial_products(a, a).sum()
        assert plan.loads.sum() == pytest.approx(total)

    def test_degree_skew_never_worse_than_contiguous_on_power_law(self):
        a = _kron(seed=5)
        contiguous = plan_shards(a, 4, a, strategy="contiguous")
        degree = plan_shards(a, 4, a, strategy="degree")
        assert degree.skew <= contiguous.skew + 1e-9

    def test_auto_keeps_contiguous_when_balanced(self):
        a = _ba()  # BA with random attach order shards evenly by rows
        plan = plan_shards(a, 4, a, strategy="auto")
        if plan_shards(a, 4, a, strategy="contiguous").skew \
                <= DEGREE_AUTO_SKEW_THRESHOLD:
            assert plan.strategy == "contiguous"

    def test_auto_switches_to_degree_on_skew(self):
        a = _monster()
        contiguous = plan_shards(a, 4, a, strategy="contiguous")
        assert contiguous.skew > DEGREE_AUTO_SKEW_THRESHOLD
        plan = plan_shards(a, 4, a, strategy="auto")
        assert plan.strategy == "degree"
        assert plan.skew < contiguous.skew

    def test_unknown_strategy_rejected(self):
        a = _ba(32, 2)
        with pytest.raises(ValueError, match="strategy"):
            plan_shards(a, 2, a, strategy="round-robin")

    def test_bad_shard_count_rejected(self):
        a = _ba(32, 2)
        with pytest.raises(ValueError):
            plan_shards(a, 0, a)

    def test_contiguous_loads_are_range_sums(self):
        a = _ba()
        weights = estimate_row_partial_products(a, a)
        plan = plan_shards(a, 4, a, strategy="contiguous")
        expected = [weights[lo:hi].sum() for lo, hi in plan.ranges]
        np.testing.assert_allclose(plan.loads, expected)

    def test_no_b_plans_a_at_a(self):
        # b=None is A @ A, the product the multichip backend executes.
        a = _kron(seed=5)
        for strategy in ("auto", "contiguous", "degree"):
            implicit = plan_shards(a, 4, strategy=strategy)
            explicit = plan_shards(a, 4, a, strategy=strategy)
            assert implicit.strategy == explicit.strategy
            np.testing.assert_array_equal(implicit.loads, explicit.loads)
            for left, right in zip(implicit.shards, explicit.shards):
                np.testing.assert_array_equal(left.rows, right.rows)

    def test_empty_product_falls_back_to_nnz(self):
        # A = I4, B structurally empty: every partial-product estimate is
        # zero, so the planner balances on A's nnz instead.
        a = CSRMatrix(np.arange(5, dtype=np.int64),
                      np.arange(4, dtype=np.int64),
                      np.ones(4), (4, 4))
        b = CSRMatrix(np.zeros(5, dtype=np.int64),
                      np.empty(0, dtype=np.int64), np.empty(0), (4, 3))
        plan = plan_shards(a, 4, b, strategy="contiguous")
        assert plan.ranges == ((0, 1), (1, 2), (2, 3), (3, 4))
        np.testing.assert_allclose(plan.loads, [1, 1, 1, 1])

    def test_stitch_roundtrip_without_backend(self):
        a = _monster()
        b = _with_random_data(a, 11)
        want = kernels.spgemm(a, b).matrix
        plan = plan_shards(a, 4, b, strategy="degree")
        outputs = []
        for units in build_shard_units(a, plan):
            rows_out, frag_outs = None, []
            for unit in units:
                product = kernels.spgemm(unit.a, unit.slice_b(b)).matrix
                if unit.fragment is None:
                    rows_out = product
                else:
                    frag_outs.append(product)
            outputs.append((rows_out, frag_outs))
        _assert_same_csr(stitch_shard_outputs(plan, outputs, b.shape[1]),
                         want)


class TestByteIdentity:
    @pytest.mark.parametrize("chips", [1, 2, 4, 8])
    @pytest.mark.parametrize("partition", ["contiguous", "degree"])
    def test_multichip_matches_unsharded(self, chips, partition):
        a = _kron(seed=7)
        want = kernels.spgemm(a, a).matrix
        with Session("Tile-16", backend="multichip", chips=chips,
                     partition=partition) as session:
            result = session.run(SpGEMMSpec(a=a, verify=False))
        _assert_same_csr(result.output, want)

    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_multichip_pooled_executors(self, executor):
        a = _ba(160, 5, seed=2)
        want = kernels.spgemm(a, a).matrix
        with Session("Tile-16", backend="multichip", chips=4,
                     partition="degree", executor=executor,
                     workers=2) as session:
            result = session.run(SpGEMMSpec(a=a, verify=False))
        _assert_same_csr(result.output, want)

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_session_sharded_host_path(self, executor):
        a = _monster(seed=9)
        want = kernels.spgemm(a, a).matrix
        with Session("Tile-16", backend="analytic", partition="degree",
                     executor=executor, workers=2) as session:
            result = session.run(SpGEMMSpec(a=a, shards=4, verify=False))
        _assert_same_csr(result.output, want)

    def test_empty_product_all_strategies(self):
        a = CSRMatrix(np.arange(5, dtype=np.int64),
                      np.arange(4, dtype=np.int64), np.ones(4), (4, 4))
        b = CSRMatrix(np.zeros(5, dtype=np.int64),
                      np.empty(0, dtype=np.int64), np.empty(0), (4, 3))
        want = kernels.spgemm(a, b).matrix
        for partition in ("auto", "contiguous", "degree"):
            with Session("Tile-16", backend="multichip", chips=2,
                         partition=partition) as session:
                result = session.run(SpGEMMSpec(a=a, b=b, verify=False))
            _assert_same_csr(result.output, want)

    def test_all_zero_matrix(self):
        a = CSRMatrix(np.zeros(7, dtype=np.int64),
                      np.empty(0, dtype=np.int64), np.empty(0), (6, 6))
        want = kernels.spgemm(a, a).matrix
        with Session("Tile-16", backend="multichip", chips=3,
                     partition="degree") as session:
            result = session.run(SpGEMMSpec(a=a, verify=False))
        _assert_same_csr(result.output, want)


class TestMonsterRow:
    def test_split_is_required_and_exact(self):
        a = _monster()
        b = _with_random_data(a, 21)
        plan = plan_shards(a, 4, b, strategy="degree")
        assert 0 in plan.split_rows
        n_frags = sum(1 for s in plan.shards for f in s.fragments
                      if f.row == 0)
        assert n_frags >= 2
        want = kernels.spgemm(a, b).matrix
        with Session("Tile-16", backend="multichip", chips=4,
                     partition="degree") as session:
            result = session.run(SpGEMMSpec(a=a, b=b, verify=False))
        _assert_same_csr(result.output, want)
        assert result.metrics["partition"] == "degree"
        assert result.metrics["split_rows"] >= 1

    def test_degree_beats_contiguous_skew_on_monster(self):
        a = _monster(seed=17)
        contiguous = plan_shards(a, 4, a, strategy="contiguous")
        degree = plan_shards(a, 4, a, strategy="degree")
        assert degree.skew < contiguous.skew
        assert degree.efficiency > contiguous.efficiency


#: Host-sharded results recorded from the per-shard session fork that
#: ``SpGEMMSpec(shards=N)`` used before it ran through the multichip
#: backend: (graph, partition, backend, shards, cycles, mmh,
#: partial_products, output_nnz, verified, power_w, energy_j, sha1 of the
#: output's indptr/indices/data).  Everything must still match exactly,
#: except energy on the split-row plan: a chip's power now comes from its
#: combined unit report (analytic 9.857234640625e-06 before).
SHARDED_PINS = [
    ("wiki", "contiguous", "analytic", 4, 3916.0, 2894, 13748, 6752, None,
     11.28841384300208, 4.411744218749999e-05,
     "5a2943625936e59a358e2d4bd74c78098102a16d"),
    ("wiki", "contiguous", "cycle", 4, 5444.0, 2894, 13748, 6752, True,
     11.164047291666666, 5.917825093750001e-05,
     "5a2943625936e59a358e2d4bd74c78098102a16d"),
    ("wiki", "degree", "analytic", 4, 3912.0, 2871, 13748, 6752, None,
     11.275315381659835, 4.40639503125e-05,
     "5a2943625936e59a358e2d4bd74c78098102a16d"),
    ("wiki", "degree", "cycle", 4, 5279.0, 2871, 13748, 6752, True,
     11.1317113241359, 5.8107524687499995e-05,
     "5a2943625936e59a358e2d4bd74c78098102a16d"),
    ("monster", "degree", "analytic", 8, 1189.0, 437, 963, 752, None,
     9.398567961165048, 9.860336640625e-06,
     "613baea2d9d472791a028c49e34a4160f603c8d9"),
    ("monster", "degree", "cycle", 8, 1753.0, 437, 963, 752, True,
     8.767668585526316, 1.3258606015625e-05,
     "613baea2d9d472791a028c49e34a4160f603c8d9"),
]


class TestShardedResultsPinned:
    @pytest.mark.parametrize("pin", SHARDED_PINS,
                             ids=lambda pin: "-".join(map(str, pin[:3])))
    def test_matches_recorded_values(self, pin):
        (graph, partition, backend, shards, cycles, mmh, pp, nnz, verified,
         power_w, energy_j, output_sha1) = pin
        a = (load_dataset("wiki-Vote", max_nodes=96, seed=5).adjacency_csr()
             if graph == "wiki" else _monster())
        with Session("Tile-4", backend=backend,
                     partition=partition) as session:
            result = session.run(SpGEMMSpec(a=a, shards=shards,
                                            verify=backend == "cycle"))
        if graph == "monster":
            assert plan_shards(a, shards, a, strategy=partition).split_rows
        metrics = result.metrics
        assert result.provenance.shards == shards
        assert (metrics["cycles"], metrics["mmh"],
                metrics["partial_products"], metrics["output_nnz"],
                metrics["verified"]) == (cycles, mmh, pp, nnz, verified)
        assert (result.power_w, result.energy_j) == (power_w, energy_j)
        digest = hashlib.sha1()
        for array in (result.output.indptr, result.output.indices,
                      result.output.data):
            digest.update(str(array.dtype).encode())
            digest.update(array.tobytes())
        assert digest.hexdigest() == output_sha1


class TestUnitOverheadProbe:
    """The auto probe compares modeled makespans — max shard load plus
    ``UNIT_OVERHEAD_PP`` per compiled unit — so fragment-heavy degree plans
    only win when their balance gain actually survives the extra compiles."""

    def test_zero_overhead_compares_max_loads(self, monkeypatch):
        a = _monster()
        contiguous = plan_shards(a, 4, a, strategy="contiguous")
        degree = plan_shards(a, 4, a, strategy="degree")
        assert contiguous.skew > DEGREE_AUTO_SKEW_THRESHOLD
        monkeypatch.setattr(partition, "UNIT_OVERHEAD_PP", 0)
        for plan in (contiguous, degree):
            assert partition._modeled_makespan(plan) == \
                float(plan.loads.max())
        assert degree.loads.max() < contiguous.loads.max()
        assert plan_shards(a, 4, a, strategy="auto").strategy == "degree"

    def test_large_overhead_charges_fragments(self, monkeypatch):
        a = _monster()
        assert plan_shards(a, 4, a, strategy="auto").strategy == "degree"
        degree = plan_shards(a, 4, a, strategy="degree")
        contiguous = plan_shards(a, 4, a, strategy="contiguous")
        n_units = sum(shard.n_units for shard in degree.shards)
        assert n_units > degree.n_shards  # monster row split into fragments
        # The degree plan still wins on load alone: only the per-fragment
        # charge, a unit on top of each shard's one, can flip the probe.
        assert degree.loads.max() < contiguous.loads.max()
        total = int(estimate_row_partial_products(a, a).sum())
        # With a per-unit charge dwarfing the whole workload, no amount of
        # balance is worth a single extra compile.
        monkeypatch.setattr(partition, "UNIT_OVERHEAD_PP", total)
        assert plan_shards(a, 4, a, strategy="auto").strategy == "contiguous"

    def test_explicit_degree_ignores_overhead(self, monkeypatch):
        a = _monster()
        total = int(estimate_row_partial_products(a, a).sum())
        monkeypatch.setattr(partition, "UNIT_OVERHEAD_PP", total)
        plan = plan_shards(a, 4, a, strategy="degree")
        assert plan.strategy == "degree"


class TestAcceptance:
    """ISSUE acceptance: 2k-node BA graph (attach=8), 4 chips — the
    degree plan must reach shard_skew <= 1.1 and the stitched multi-chip
    output must be byte-identical to the single-chip product."""

    def test_ba_2k_attach8_four_chips(self):
        a = coo_to_csr(barabasi_albert_graph(2000, 8, seed=0))
        contiguous = plan_shards(a, 4, a, strategy="contiguous")
        degree = plan_shards(a, 4, a, strategy="degree")
        assert np.isfinite(contiguous.skew)  # baseline recorded alongside
        assert degree.skew <= 1.1
        want = kernels.spgemm(a, a).matrix
        with Session("Tile-16", backend="multichip", chips=4,
                     partition="degree") as session:
            result = session.run(SpGEMMSpec(a=a, verify=False))
        _assert_same_csr(result.output, want)
        assert result.metrics["shard_skew"] <= 1.1


class TestServingSurface:
    def test_stats_snapshot_reports_multichip_partition(self):
        from repro.serve.batcher import ServingStats
        stats = ServingStats()
        snap = stats.snapshot()
        assert snap["degree_partition_runs"] == 0
        assert snap["multichip_partition"] is None
        stats.record_multichip(1.07, 0.93, "degree")
        snap = stats.snapshot()
        assert snap["multichip_shard_skew"] == pytest.approx(1.07)
        assert snap["multichip_efficiency"] == pytest.approx(0.93)
        assert snap["multichip_partition"] == "degree"
        assert snap["degree_partition_runs"] == 1
        stats.record_multichip(None, None, None)  # None-safe, no overwrite
        assert stats.snapshot()["multichip_shard_skew"] \
            == pytest.approx(1.07)

