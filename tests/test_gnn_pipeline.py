"""Resident-graph GNN pipelines: byte-identity against the chained
layer-at-a-time path, compile-once cache behaviour, adjacency memoization,
serving coalescing, and the cross-chip pipelining model."""

import numpy as np
import pytest

from repro.core import Session
from repro.core.specs import ChipTopology, GCNLayerSpec, GNNModelSpec
from repro.datasets import load_dataset
from repro.gnn import (
    adjacency_cache_stats,
    clear_adjacency_cache,
    full_structure_csr,
    normalize_adjacency_cached,
)
from repro.serve.batcher import MicroBatcher, RequestQueue, _coalesce_key
from repro.sparse.convert import csc_to_csr, csr_to_csc
from repro.sparse.coo import COOMatrix
from repro.sparse.partition import plan_shards

BACKENDS = ("functional", "analytic", "multichip")
DIMS = {1: (8,), 2: (8, 4), 4: (8, 8, 4, 4), 10: (8,) * 10}


def make_session(backend, executor="serial", **kwargs):
    if backend == "multichip":
        kwargs.setdefault("topology",
                          ChipTopology(n_chips=2, chip_backend="analytic"))
    return Session("Tile-16", backend=backend, executor=executor, **kwargs)


def chained_reference(session, dataset, layer_dims, feature_dim, seed=7):
    """The stacked spec's ground truth: one GCNLayerSpec per layer, layer
    i+1 fed layer i's output through ``features``, weights seeded exactly
    like the stack (``seed + 1 + i``)."""
    x = None
    for index, out_dim in enumerate(layer_dims):
        result = session.run(GCNLayerSpec(
            dataset=dataset, feature_dim=feature_dim, hidden_dim=out_dim,
            seed=seed, features=x, weight_seed=seed + 1 + index,
            label=f"chain[{index}]"))
        x = result.output
    return x


@pytest.fixture(scope="module")
def cora():
    return load_dataset("cora", max_nodes=60, seed=0)


class TestByteIdentity:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("depth", [1, 2, 4])
    def test_stack_matches_chain(self, cora, backend, depth):
        dims = DIMS[depth]
        with make_session(backend) as session:
            stacked = session.run(GNNModelSpec(
                dataset=cora, layer_dims=dims, feature_dim=8)).output
            chained = chained_reference(session, cora, dims, 8)
        assert stacked.shape == (cora.n_nodes, dims[-1])
        assert np.array_equal(stacked, chained)

    def test_depth_10_stack_matches_chain(self, cora):
        dims = DIMS[10]
        with make_session("analytic") as session:
            stacked = session.run(GNNModelSpec(
                dataset=cora, layer_dims=dims, feature_dim=8)).output
            chained = chained_reference(session, cora, dims, 8)
        assert np.array_equal(stacked, chained)

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_stack_through_every_executor(self, cora, executor):
        dims = DIMS[2]
        spec = GNNModelSpec(dataset=cora, layer_dims=dims, feature_dim=8)
        with make_session("analytic", executor=executor, workers=2) as session:
            stacked = session.map([spec])[0].output
        with make_session("analytic") as session:
            chained = chained_reference(session, cora, dims, 8)
        assert np.array_equal(stacked, chained)

    def test_stack_matches_chain_on_a_fleet_that_splits_rows(self):
        """A monster row split into column-range fragments makes each
        layer stitch its output through the CSR path, not the dense-block
        one; the stack still equals the chain and the single chip."""
        n, dims = 80, (6, 5)
        rows = np.concatenate([np.arange(n), np.full(n, 5)])
        cols = np.concatenate([np.arange(n), np.arange(n)])
        keep = np.ones(rows.size, dtype=bool)
        keep[n + 5] = False  # (5, 5) is already on the diagonal
        adjacency = COOMatrix(rows[keep], cols[keep],
                              np.ones(int(keep.sum())), (n, n))
        plan = plan_shards(normalize_adjacency_cached(adjacency), 3,
                           full_structure_csr(np.zeros((n, 6))),
                           strategy="degree")
        assert plan.split_rows
        topology = ChipTopology(n_chips=3, chip_backend="analytic",
                                partition="degree")
        with make_session("multichip", topology=topology) as session:
            stacked = session.run(GNNModelSpec(
                dataset=adjacency, layer_dims=dims, feature_dim=6)).output
            chained = chained_reference(session, adjacency, dims, 6)
        with make_session("analytic") as session:
            single = session.run(GNNModelSpec(
                dataset=adjacency, layer_dims=dims, feature_dim=6)).output
        assert np.array_equal(stacked, chained)
        assert np.array_equal(stacked, single)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_empty_graph(self, backend):
        empty = np.array([], dtype=np.int64)
        adjacency = COOMatrix(empty, empty, np.array([], dtype=np.float64),
                              (5, 5))
        with make_session(backend) as session:
            stacked = session.run(GNNModelSpec(
                dataset=adjacency, layer_dims=(4, 2), feature_dim=4)).output
            chained = chained_reference(session, adjacency, (4, 2), 4)
        assert stacked.shape == (5, 2)
        assert np.array_equal(stacked, chained)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_single_node_graph(self, backend):
        adjacency = COOMatrix(np.array([0]), np.array([0]),
                              np.array([1.0]), (1, 1))
        with make_session(backend) as session:
            stacked = session.run(GNNModelSpec(
                dataset=adjacency, layer_dims=(4, 2), feature_dim=4)).output
            chained = chained_reference(session, adjacency, (4, 2), 4)
        assert stacked.shape == (1, 2)
        assert np.array_equal(stacked, chained)


class TestCompileOnce:
    def test_uniform_stack_compiles_once(self, cora):
        with make_session("analytic") as session:
            spec = GNNModelSpec(dataset=cora, layer_dims=(8, 8, 8, 8),
                                feature_dim=8)
            first = session.run(spec)
            assert first.metrics["compiles"] == 1
            assert first.provenance.cache_hit is False
            second = session.run(spec)
            assert second.metrics["compiles"] == 0
            assert second.provenance.cache_hit is True
            assert np.array_equal(first.output, second.output)

    def test_mixed_width_stack_compiles_per_structure(self, cora):
        # Feature widths down the stack are 8, 8, 4, 8 -> two distinct
        # operand structures -> exactly two compiles.
        with make_session("analytic") as session:
            result = session.run(GNNModelSpec(
                dataset=cora, layer_dims=(8, 4, 8, 4), feature_dim=8))
        assert result.metrics["compiles"] == 2

    def test_multichip_compiles_once_per_unit(self, cora):
        with make_session("multichip") as session:
            spec = GNNModelSpec(dataset=cora, layer_dims=(8, 8, 8),
                                feature_dim=8)
            first = session.run(spec)
            # One compile per resident shard unit, all on layer 0; layers
            # 1..L-1 re-bind the resident programs.
            assert first.metrics["compiles"] == first.provenance.chips
            second = session.run(spec)
            assert second.metrics["compiles"] == 0
            assert np.array_equal(first.output, second.output)


class TestAdjacencyMemo:
    def test_stack_hits_memo_on_rerun(self, cora):
        clear_adjacency_cache()
        spec = GNNModelSpec(dataset=cora, layer_dims=(4, 4), feature_dim=4)
        with make_session("analytic") as session:
            session.run(spec)
            stats = adjacency_cache_stats()
            assert stats["misses"] == 1
            assert stats["entries"] == 1
            session.run(spec)
            again = adjacency_cache_stats()
            assert again["misses"] == 1
            assert again["hits"] >= 1

    def test_gcn_layer_shares_the_memo(self, cora):
        clear_adjacency_cache()
        with make_session("analytic") as session:
            session.run(GCNLayerSpec(dataset=cora, feature_dim=4,
                                     hidden_dim=4))
            session.run(GNNModelSpec(dataset=cora, layer_dims=(4,),
                                     feature_dim=4))
        stats = adjacency_cache_stats()
        assert stats["misses"] == 1
        assert stats["hits"] >= 1

    def test_capacity_is_bounded(self):
        stats = adjacency_cache_stats()
        assert stats["entries"] <= stats["capacity"]

    @pytest.mark.parametrize("name", ["cora", "wiki-Vote", "facebook"])
    def test_memo_csr_is_canonical(self, name):
        """The runner hands the memo's CSR straight to the backends: it is
        bitwise what a CSR -> CSC -> CSR round trip rebuilds."""
        a_hat = normalize_adjacency_cached(
            load_dataset(name, max_nodes=200, seed=1).adjacency)
        rebuilt = csc_to_csr(csr_to_csc(a_hat))
        for field in ("indptr", "indices", "data"):
            mine, theirs = getattr(a_hat, field), getattr(rebuilt, field)
            assert mine.dtype == theirs.dtype
            assert mine.tobytes() == theirs.tobytes(), field
        assert a_hat.shape == rebuilt.shape

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_runs_leave_the_memo_csr_untouched(self, cora, backend):
        a_hat = normalize_adjacency_cached(cora.adjacency)
        before = [array.copy() for array in
                  (a_hat.indptr, a_hat.indices, a_hat.data)]
        with make_session(backend) as session:
            session.run(GNNModelSpec(dataset=cora, layer_dims=(8, 4),
                                     feature_dim=8))
            session.run(GCNLayerSpec(dataset=cora, feature_dim=8,
                                     hidden_dim=4))
        assert normalize_adjacency_cached(cora.adjacency) is a_hat
        for old, new in zip(before, (a_hat.indptr, a_hat.indices,
                                     a_hat.data)):
            assert old.tobytes() == new.tobytes()


class TestPipelining:
    def test_single_batch_has_no_pipeline_win(self, cora):
        with make_session("analytic") as session:
            metrics = session.run(GNNModelSpec(
                dataset=cora, layer_dims=(8, 8), feature_dim=8)).metrics
        assert metrics["batches"] == 1
        assert metrics["pipeline_cycles"] == metrics["total_cycles"]
        assert metrics["pipeline_speedup"] == 1.0

    def test_uniform_stack_pipelines_at_depth_over_stages(self, cora):
        # Uniform layers -> bottleneck == stack/3; 4 batches pipeline to
        # stack + 3 * bottleneck = 2 * stack -> speedup 2.0.
        with make_session("analytic") as session:
            metrics = session.run(GNNModelSpec(
                dataset=cora, layer_dims=(8, 8, 8), feature_dim=8,
                batches=4)).metrics
        assert metrics["pipeline_speedup"] == pytest.approx(2.0, rel=0.01)
        assert metrics["pipeline_cycles"] < metrics["batches"] * \
            metrics["total_cycles"]


class TestFullStructureEncoding:
    def test_structure_is_shape_determined(self):
        a = full_structure_csr(np.zeros((3, 4)))
        b = full_structure_csr(np.arange(12, dtype=np.float64).reshape(3, 4))
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)
        assert a.nnz == 12  # explicit zeros are kept

    def test_values_round_trip(self):
        dense = np.arange(6, dtype=np.float64).reshape(2, 3)
        assert np.array_equal(full_structure_csr(dense).to_dense(), dense)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError, match="2-D"):
            full_structure_csr(np.zeros(3))


class TestSpecValidation:
    def test_requires_dataset(self):
        with pytest.raises(ValueError, match="dataset"):
            GNNModelSpec()

    def test_rejects_empty_layer_dims(self, cora):
        with pytest.raises(ValueError):
            GNNModelSpec(dataset=cora, layer_dims=())

    def test_rejects_bad_batches(self, cora):
        with pytest.raises(ValueError):
            GNNModelSpec(dataset=cora, batches=0)

    def test_rejects_activation_length_mismatch(self, cora):
        with pytest.raises(ValueError):
            GNNModelSpec(dataset=cora, layer_dims=(8, 4),
                         activations=("relu",))

    @pytest.mark.parametrize("spec_type", [GCNLayerSpec, GNNModelSpec])
    @pytest.mark.parametrize("density", [float("nan"), float("inf"),
                                         float("-inf")])
    def test_rejects_non_finite_feature_density(self, cora, spec_type,
                                                density):
        with pytest.raises(ValueError, match="feature_density"):
            spec_type(dataset=cora, feature_density=density)

    @pytest.mark.parametrize("spec_type", [GCNLayerSpec, GNNModelSpec])
    @pytest.mark.parametrize("density", [-0.5, 0.0, 7.0])
    def test_finite_out_of_range_density_is_clipped(self, cora, spec_type,
                                                    density):
        spec = spec_type(dataset=cora, feature_dim=8, feature_density=density)
        assert spec.feature_density == density


class TestServingCoalescing:
    def test_identical_stacks_share_a_key(self, cora):
        first = _coalesce_key(GNNModelSpec(dataset=cora, layer_dims=(8, 4),
                                           feature_dim=8, label="a"))
        second = _coalesce_key(GNNModelSpec(dataset=cora, layer_dims=(8, 4),
                                            feature_dim=8, label="b"))
        assert first is not None
        assert first == second

    def test_different_dims_differ(self, cora):
        first = _coalesce_key(GNNModelSpec(dataset=cora, layer_dims=(8, 4),
                                           feature_dim=8))
        second = _coalesce_key(GNNModelSpec(dataset=cora, layer_dims=(8, 8),
                                            feature_dim=8))
        assert first != second

    def test_gcn_layer_coalesces_unless_features_are_explicit(self, cora):
        synthetic = GCNLayerSpec(dataset=cora, feature_dim=8, hidden_dim=4)
        explicit = GCNLayerSpec(dataset=cora, feature_dim=8, hidden_dim=4,
                                features=np.ones((cora.n_nodes, 8)))
        assert _coalesce_key(synthetic) is not None
        assert _coalesce_key(explicit) is None

    def test_batcher_coalesces_and_counts_stacks(self, cora):
        specs = [GNNModelSpec(dataset=cora, layer_dims=(4, 4), feature_dim=4,
                              label=str(index)) for index in range(3)]
        with make_session("analytic") as session:
            queue = RequestQueue()
            batcher = MicroBatcher(session, queue, max_batch=8,
                                   max_delay_ms=5.0)
            requests = [queue.put(spec) for spec in specs]
            batcher.start()
            try:
                results = [request.future.result(timeout=60)
                           for request in requests]
            finally:
                batcher.stop()
        assert np.array_equal(results[0].output, results[1].output)
        snapshot = batcher.stats.snapshot()
        assert snapshot["gnn_stacks"] >= 1
        assert snapshot["gnn_layers"] == 2 * snapshot["gnn_stacks"]
        assert snapshot["gnn_last_depth"] == 2
        assert snapshot["coalesced"] >= 1
