"""Multi-chip scale-out backend: per-chip contexts, reduce, equivalence."""

import numpy as np
import pytest

from repro.backends import ChipTopology, get_backend, predict_scaleout
from repro.backends.multichip import MultiChipBackend, MultiChipExecutionResult
from repro.core import Session, SpGEMMSpec
from repro.datasets import load_dataset


@pytest.fixture(scope="module")
def ctx():
    """The Tile-4 chip every fleet test runs its chips on."""
    return Session("Tile-4").ctx


@pytest.fixture(scope="module")
def wiki():
    return load_dataset("wiki-Vote", max_nodes=80, seed=5).adjacency_csr()


@pytest.fixture(scope="module")
def facebook():
    return load_dataset("facebook", max_nodes=80, seed=5).adjacency_csr()


@pytest.fixture(scope="module")
def single_chip(wiki):
    """The single-chip unsharded analytic reference result."""
    with Session("Tile-4", backend="analytic") as session:
        return session.run(SpGEMMSpec(a=wiki, verify=False))


def assert_byte_identical(result, reference):
    """CSR equality down to the raw arrays, not just allclose."""
    assert np.array_equal(result.output.indptr, reference.output.indptr)
    assert np.array_equal(result.output.indices, reference.output.indices)
    assert np.array_equal(result.output.data, reference.output.data)


class TestCrossBackendEquivalence:
    """multichip (1..4 chips x serial/thread/process) == single chip."""

    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    @pytest.mark.parametrize("chips", [1, 2, 3, 4])
    def test_equivalent_to_single_chip(self, wiki, single_chip, chips,
                                       executor):
        workers = 2 if executor != "serial" else None
        with Session("Tile-4", backend="multichip", chips=chips,
                     executor=executor, workers=workers) as session:
            result = session.run(SpGEMMSpec(a=wiki, verify=False))
        assert_byte_identical(result, single_chip)
        assert result.metrics["partial_products"] == \
            single_chip.metrics["partial_products"]
        assert result.metrics["output_nnz"] == \
            single_chip.metrics["output_nnz"]
        assert result.provenance.chips == chips
        assert result.provenance.executor == executor

    def test_distinct_b_operand(self, wiki, facebook):
        with Session("Tile-4", backend="analytic") as session:
            whole = session.run(SpGEMMSpec(a=wiki, b=facebook, verify=False))
        with Session("Tile-4", backend="multichip", chips=3) as session:
            multi = session.run(SpGEMMSpec(a=wiki, b=facebook, verify=False))
        assert_byte_identical(multi, whole)

    @pytest.mark.parametrize("fleet", ["multichip", "shards"])
    def test_cycle_chips_byte_identical_to_single_chip(self, wiki,
                                                        single_chip, fleet):
        with Session("Tile-4", backend="cycle") as session:
            whole = session.run(SpGEMMSpec(a=wiki, verify=True))
            if fleet == "shards":
                split = session.run(SpGEMMSpec(a=wiki, shards=2, verify=True))
        if fleet == "multichip":
            topology = ChipTopology(n_chips=2, chip_backend="cycle")
            with Session("Tile-4", backend="multichip",
                         topology=topology) as session:
                split = session.run(SpGEMMSpec(a=wiki, verify=True))
        assert whole.metrics["verified"] is True
        assert split.metrics["verified"] is True
        assert_byte_identical(whole, single_chip)
        assert_byte_identical(split, whole)

    def test_cycle_chip_backend_verifies(self, wiki):
        topology = ChipTopology(n_chips=2, chip_backend="cycle")
        with Session("Tile-4", backend="multichip",
                     topology=topology) as session:
            result = session.run(SpGEMMSpec(a=wiki, verify=True))
        assert result.metrics["verified"] is True
        dense = wiki.to_dense()
        assert np.allclose(result.output.to_dense(), dense @ dense)

    def test_functional_chip_backend_has_no_report(self, wiki, single_chip):
        topology = ChipTopology(n_chips=2, chip_backend="functional")
        with Session("Tile-4", backend="multichip",
                     topology=topology) as session:
            result = session.run(SpGEMMSpec(a=wiki, verify=False))
        assert result.report is None
        assert result.metrics["output_nnz"] == \
            single_chip.metrics["output_nnz"]
        assert np.allclose(result.output.to_dense(),
                           single_chip.output.to_dense())


class TestAggregateMetrics:
    def test_cycle_fleet_keeps_every_cpi_observation(self, wiki):
        """A merged report's Figure 14/15 histograms hold one observation
        per instruction of every chip, as a single chip's do."""
        topology = ChipTopology(n_chips=2, chip_backend="cycle")
        with Session("Tile-4", backend="multichip",
                     topology=topology) as session:
            report = session.run(SpGEMMSpec(a=wiki, verify=False)).report
        assert report.mmh_instructions > 0
        assert (report.mmh_cpi_histogram.total_observations
                == report.mmh_instructions)
        assert (report.hacc_cpi_histogram.total_observations
                == report.hacc_instructions)
        assert report.mmh_cpi_histogram.counts.sum() == report.mmh_instructions

    def test_cycles_are_max_over_chips_plus_host_terms(self, wiki):
        with Session("Tile-4", backend="multichip", chips=4) as session:
            result = session.run(SpGEMMSpec(a=wiki, verify=False))
        counters = result.report.counters
        chip_cycles = [counters[f"multichip.chip{i}.cycles"]
                       for i in range(4)]
        reduce_cycles = counters["multichip.reduce_cycles"]
        broadcast_cycles = counters["multichip.broadcast_cycles"]
        assert reduce_cycles > 0
        assert broadcast_cycles > 0  # cold run: B was broadcast once
        # The counters are rounded to one decimal for readability.
        assert result.report.cycles == \
            pytest.approx(max(chip_cycles) + reduce_cycles + broadcast_cycles,
                          abs=0.12)

    def test_shard_skew_and_per_chip_counters(self, wiki):
        with Session("Tile-4", backend="multichip", chips=3) as session:
            result = session.run(SpGEMMSpec(a=wiki, verify=False))
        counters = result.report.counters
        assert counters["multichip.n_chips"] == 3
        assert counters["multichip.shard_skew"] >= 1.0
        assert 0.0 < counters["multichip.efficiency"] <= 1.0
        rows = sum(counters[f"multichip.chip{i}.rows"] for i in range(3))
        assert rows == wiki.shape[0]
        pp = sum(counters[f"multichip.chip{i}.partial_products"]
                 for i in range(3))
        assert pp == result.metrics["partial_products"]

    def test_power_is_summed_across_chips(self, wiki, single_chip):
        with Session("Tile-4", backend="multichip", chips=4) as session:
            result = session.run(SpGEMMSpec(a=wiki, verify=False))
        # Four active chips burn more than one (each chip's activity is
        # lower, but static power alone quadruples).
        assert result.power_w > single_chip.power_w

    def test_as_row_reports_chips(self, wiki):
        with Session("Tile-4", backend="multichip", chips=2) as session:
            row = session.run(SpGEMMSpec(a=wiki, verify=False)).as_row()
        assert row["chips"] == 2
        assert row["backend"] == "multichip"

    def test_single_chip_topology_has_no_host_terms(self, wiki):
        with Session("Tile-4", backend="multichip", chips=1) as session:
            result = session.run(SpGEMMSpec(a=wiki, verify=False))
        assert result.report.counters["multichip.reduce_cycles"] == 0.0
        assert result.report.counters["multichip.broadcast_cycles"] == 0.0

    def test_broadcast_charges_b_nnz_bytes(self, wiki):
        topology = ChipTopology(n_chips=2, reduce_bytes_per_cycle=32.0)
        with Session("Tile-4", backend="multichip",
                     topology=topology) as session:
            result = session.run(SpGEMMSpec(a=wiki, verify=False))
        counters = result.report.counters
        assert counters["multichip.broadcast_bytes"] == wiki.nnz
        assert counters["multichip.broadcast_cycles"] == \
            pytest.approx(wiki.nnz / 32.0, abs=0.06)


class TestProgramCaching:
    def test_per_shard_programs_cache(self, wiki):
        with Session("Tile-4", backend="multichip", chips=3) as session:
            first = session.run(SpGEMMSpec(a=wiki, verify=False))
            second = session.run(SpGEMMSpec(a=wiki, verify=False))
        assert first.cache_hit is False
        assert second.cache_hit is True
        for key in ("mmh", "partial_products", "output_nnz", "chips"):
            assert second.metrics[key] == first.metrics[key]

    def test_broadcast_amortizes_across_cached_runs(self, wiki):
        # The one-time B broadcast is charged on the cold run only: once
        # every shard program hits the cache, B is already on the fleet.
        with Session("Tile-4", backend="multichip", chips=3) as session:
            cold = session.run(SpGEMMSpec(a=wiki, verify=False))
            warm = session.run(SpGEMMSpec(a=wiki, verify=False))
        cold_counters = cold.report.counters
        warm_counters = warm.report.counters
        assert cold_counters["multichip.broadcast_cycles"] > 0
        assert warm_counters["multichip.broadcast_cycles"] == 0.0
        assert warm.metrics["cycles"] == pytest.approx(
            cold.metrics["cycles"]
            - cold_counters["multichip.broadcast_cycles"], abs=0.12)

    def test_new_b_values_are_broadcast(self, wiki):
        # B is keyed by structure, so a B with new values reuses every unit
        # program, but the host still has to send those values to the
        # fleet; once it has, a repeat of the same B is warm.
        b2 = type(wiki)(wiki.indptr, wiki.indices, wiki.data * 2.0 + 1.0,
                        wiki.shape)
        with Session("Tile-4", backend="multichip", chips=3) as session:
            session.run(SpGEMMSpec(a=wiki, b=wiki, verify=False))
            second = session.run(SpGEMMSpec(a=wiki, b=b2, verify=False))
            third = session.run(SpGEMMSpec(a=wiki, b=b2, verify=False))
        with Session("Tile-4", backend="multichip", chips=3,
                     cache_capacity=0) as uncached:
            reference = uncached.run(SpGEMMSpec(a=wiki, b=b2, verify=False))
        counters = second.report.counters
        assert second.cache_hit is True
        assert counters["multichip.broadcast_cycles"] > 0
        assert counters["multichip.broadcast_bytes"] == b2.nnz
        assert second.metrics["cycles"] == reference.metrics["cycles"]
        assert_byte_identical(second, reference)
        assert third.report.counters["multichip.broadcast_cycles"] == 0.0

    def test_nan_b_repeat_is_warm(self):
        # B's values compare bit for bit: a B holding a NaN matches itself,
        # so its repeat re-binds nothing and charges no broadcast.
        a = load_dataset("wiki-Vote", max_nodes=128, seed=5).adjacency_csr()
        cycles = []
        for value in (np.nan, 0.5):
            data = a.data.copy()
            data[0] = value
            b = type(a)(a.indptr, a.indices, data, a.shape)
            with Session("Tile-4", backend="multichip", chips=2) as session:
                session.run(SpGEMMSpec(a=a, b=b, verify=False))
                repeat = session.run(SpGEMMSpec(a=a, b=b, verify=False))
            assert repeat.cache_hit is True
            assert repeat.report.counters["multichip.broadcast_cycles"] == 0.0
            cycles.append(repeat.metrics["cycles"])
        assert cycles[0] == cycles[1]

    def test_disk_cache_shared_across_sessions(self, tmp_path, wiki):
        with Session("Tile-4", backend="multichip", chips=2,
                     cache_dir=tmp_path) as cold:
            cold.run(SpGEMMSpec(a=wiki, verify=False))
        with Session("Tile-4", backend="multichip", chips=2,
                     cache_dir=tmp_path) as warm:
            result = warm.run(SpGEMMSpec(a=wiki, verify=False))
        assert result.cache_hit is True


class TestValidation:
    def test_topology_validation(self):
        with pytest.raises(ValueError, match="n_chips"):
            ChipTopology(n_chips=0)
        with pytest.raises(ValueError, match="nest"):
            ChipTopology(chip_backend="multichip")
        with pytest.raises(ValueError, match="reduce_bytes_per_cycle"):
            ChipTopology(reduce_bytes_per_cycle=0.0)

    def test_chips_require_multichip_backend(self):
        with pytest.raises(ValueError, match="multichip"):
            Session("Tile-4", backend="analytic", chips=4)

    def test_chips_and_topology_must_agree(self):
        with pytest.raises(ValueError, match="contradicts"):
            Session("Tile-4", backend="multichip", chips=4,
                    topology=ChipTopology(n_chips=2))

    def test_unknown_chip_backend_fails_fast(self):
        with pytest.raises(ValueError, match="registered backends"):
            Session("Tile-4", backend="multichip",
                    topology=ChipTopology(chip_backend="quantum"))

    def test_shards_and_chips_are_mutually_exclusive(self, wiki):
        with Session("Tile-4", backend="multichip", chips=2) as session:
            with pytest.raises(ValueError, match="chips=N"):
                session.run(SpGEMMSpec(a=wiki, shards=2))

    def test_degenerate_chip_count_clamps(self, wiki):
        # More chips than rows of work: the contiguous plan (and the
        # counters) shrink instead of emitting empty shards.
        tiny = wiki.row_slice(0, 3)
        with Session("Tile-4", backend="multichip", chips=16,
                     partition="contiguous") as session:
            result = session.run(SpGEMMSpec(a=tiny, b=wiki, verify=False))
        assert result.metrics["chips"] <= 3

    def test_auto_splits_few_heavy_rows_across_fleet(self, wiki):
        # Under auto, the makespan probe now keeps the fleet busy on this
        # input: splitting the heavy rows into column-range fragments
        # beats three whole-row shards even after the per-unit overhead
        # charge, so the chip count does NOT clamp to the row count.
        tiny = wiki.row_slice(0, 3)
        with Session("Tile-4", backend="multichip", chips=16) as session:
            result = session.run(SpGEMMSpec(a=tiny, b=wiki, verify=False))
        with Session("Tile-4", backend="analytic") as single:
            reference = single.run(SpGEMMSpec(a=tiny, b=wiki, verify=False))
        assert result.metrics["partition"] == "degree"
        assert result.metrics["chips"] > 3
        assert result.metrics["output_nnz"] == reference.metrics["output_nnz"]


class TestFacadeAndSubmit:
    def test_run_program_route(self, wiki, single_chip, ctx):
        # A fleet is built with its configuration, never by name.
        with pytest.raises(ValueError, match="single-chip"):
            get_backend("multichip")
        result = MultiChipBackend().execute_operands(
            wiki, None, ctx, tile_size=4, verify=False)
        assert result.backend == "multichip"
        assert np.array_equal(result.output.to_dense(),
                              single_chip.output.to_dense())

    def test_submit_on_process_executor(self, wiki, single_chip):
        with Session("Tile-4", backend="multichip", chips=2,
                     executor="process", workers=2) as session:
            result = session.submit(SpGEMMSpec(a=wiki,
                                               verify=False)).result()
        assert result.provenance.chips == 2
        assert result.metrics["output_nnz"] == \
            single_chip.metrics["output_nnz"]

    def test_gcn_layer_through_multichip(self):
        dataset = load_dataset("cora", max_nodes=64, seed=6)
        from repro.core import GCNLayerSpec

        with Session("Tile-4", backend="analytic") as session:
            reference = session.run(GCNLayerSpec(dataset=dataset,
                                                 feature_dim=8, hidden_dim=4,
                                                 verify=False))
        with Session("Tile-4", backend="multichip", chips=2) as session:
            result = session.run(GCNLayerSpec(dataset=dataset, feature_dim=8,
                                              hidden_dim=4, verify=False))
        assert result.output.shape == reference.output.shape
        assert np.allclose(result.output, reference.output)
        assert result.provenance.chips == 2

    def test_sweep_respects_topology(self, wiki):
        # Regression: the sweep worker used to drop the topology and run
        # every configuration on a default single-chip fleet.
        from repro.core import SweepSpec

        with Session("Tile-4", backend="analytic") as session:
            single = session.run(SweepSpec(a=wiki, configs=("Tile-4",),
                                           normalize_to=None))
        with Session("Tile-4", backend="multichip", chips=2) as session:
            multi = session.run(SweepSpec(a=wiki, configs=("Tile-4",),
                                          normalize_to=None))
        # A one-chip fleet reports exactly the analytic cycles (no reduce
        # term), so equality here would mean the topology was dropped.
        assert multi.output["Tile-4"]["cycles"] != \
            single.output["Tile-4"]["cycles"]


class TestPredictScaleout:
    def test_matches_shard_histogram(self, wiki):
        prediction = predict_scaleout(wiki, 4)
        loads = prediction["shard_partial_products"]
        assert len(loads) == prediction["n_chips"] == 4
        assert prediction["predicted_speedup"] == \
            pytest.approx(sum(loads) / max(loads), rel=1e-3)
        assert 0.0 < prediction["efficiency"] <= 1.0
        assert prediction["skew"] >= 1.0

    def test_clamps_degenerate_requests(self, wiki):
        tiny = wiki.row_slice(0, 2)
        prediction = predict_scaleout(tiny, 16, wiki,
                                      partition="contiguous")
        assert prediction["n_chips"] <= 2

    def test_degree_splitting_beats_the_contiguous_clamp(self, wiki):
        # Two rows on 16 chips: the contiguous planner clamps to 2 shards,
        # the degree planner merge-path-splits the rows into column-range
        # fragments and keeps more of the fleet busy.
        tiny = wiki.row_slice(0, 2)
        contiguous = predict_scaleout(tiny, 16, wiki,
                                      partition="contiguous")
        degree = predict_scaleout(tiny, 16, wiki, partition="degree")
        assert degree["n_chips"] > contiguous["n_chips"]
        assert degree["split_rows"] >= 1
        assert degree["strategy"] == "degree"

    def test_execution_result_type(self, wiki, ctx):
        backend = MultiChipBackend(
            topology=ChipTopology(n_chips=2, partition="contiguous"))
        execution = backend.execute_operands(wiki, None, ctx,
                                             tile_size=4, verify=False)
        assert isinstance(execution, MultiChipExecutionResult)
        assert execution.n_chips == 2
        assert [run.chip for run in execution.chip_runs] == [0, 1]
        assert execution.plan.strategy == "contiguous"
        # Contiguous assignments are consecutive row ranges.
        first, second = (run.assignment.rows for run in execution.chip_runs)
        assert np.array_equal(first, np.arange(first[0], first[-1] + 1))
        assert np.array_equal(second, np.arange(second[0], second[-1] + 1))
        assert first[-1] + 1 == second[0]
