"""Integration tests: full-chip cycle simulation of compiled programs."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.arch.config import TILE16, TILE4
from repro.compiler import compile_spgemm
from repro.datasets import load_dataset
from repro.datasets.features import feature_matrix
from repro.hashing import MAPPING_SCHEMES
from repro.sim.accelerator import NeuraChipAccelerator
from repro.sim.functional import FunctionalAccelerator
from repro.sim.neuramem import NeuraMem
from repro.sim.params import SimulationParams


@pytest.fixture(scope="module")
def small_program():
    dataset = load_dataset("wiki-Vote", max_nodes=80, seed=2)
    return compile_spgemm(dataset.adjacency_csc(), dataset.adjacency_csr(),
                          tile_size=4, source="wiki-Vote-small")


class TestCorrectness:
    def test_rolling_eviction_output_matches_reference(self, small_program):
        report = NeuraChipAccelerator(TILE4).run(small_program)
        assert report.correct is True
        assert report.max_abs_error < 1e-9

    def test_barrier_eviction_output_matches_reference(self, small_program):
        report = NeuraChipAccelerator(TILE4, eviction_mode="barrier").run(small_program)
        assert report.correct is True

    @pytest.mark.parametrize("scheme", ["ring", "modular", "random", "drhm"])
    def test_every_mapping_scheme_is_correct(self, small_program, scheme):
        report = NeuraChipAccelerator(TILE4, mapping_scheme=scheme).run(small_program)
        assert report.correct is True, scheme

    def test_tiny_hashpad_forces_spills_but_stays_correct(self, small_program):
        from dataclasses import replace

        from repro.arch.config import NeuraMemConfig

        tiny_mem = NeuraMemConfig(comparators=2, hash_engines=2, hashlines=4,
                                  accumulators=16, ports=4)
        config = replace(TILE4, mem=tiny_mem, name="Tile-4-tinypad")
        report = NeuraChipAccelerator(config).run(small_program)
        assert report.spills > 0
        assert report.correct is True

    def test_gcn_aggregation_program_is_correct(self):
        dataset = load_dataset("cora", max_nodes=96, seed=1)
        features = feature_matrix(dataset.n_nodes, 12, density=0.4)
        program = compile_spgemm(dataset.adjacency_csc(), features, tile_size=4)
        report = NeuraChipAccelerator(TILE4).run(program)
        assert report.correct is True

    def test_empty_program_completes(self):
        from repro.sparse.csr import CSRMatrix
        from repro.sparse.convert import coo_to_csc

        empty = CSRMatrix.empty((16, 16))
        program = compile_spgemm(coo_to_csc(empty.to_coo()), empty)
        report = NeuraChipAccelerator(TILE4).run(program)
        assert report.mmh_instructions == 0
        assert report.output_nnz == 0


class TestReportContents:
    def test_instruction_counts_match_program(self, small_program):
        report = NeuraChipAccelerator(TILE4).run(small_program, verify=False)
        assert report.mmh_instructions == small_program.n_instructions
        assert report.hacc_instructions == small_program.total_partial_products
        assert report.evictions >= small_program.output_nnz

    def test_throughput_metrics_are_consistent(self, small_program):
        report = NeuraChipAccelerator(TILE4).run(small_program, verify=False)
        assert report.cycles > 0
        assert report.ipc == pytest.approx(report.mmh_instructions / report.cycles)
        assert report.gflops == pytest.approx(2 * report.gops, rel=1e-6)
        assert report.memory_traffic_bytes > 0
        assert report.noc_flits >= small_program.total_partial_products

    def test_histograms_populated(self, small_program):
        report = NeuraChipAccelerator(TILE4).run(small_program, verify=False)
        assert report.mmh_cpi_histogram.total_observations == report.mmh_instructions
        assert report.hacc_cpi_histogram.total_observations == report.hacc_instructions

    def test_utilizations_in_range(self, small_program):
        report = NeuraChipAccelerator(TILE4).run(small_program, verify=False)
        assert 0.0 <= report.core_utilization <= 1.0
        assert 0.0 <= report.mem_utilization <= 1.0
        assert 0.0 <= report.hashpad_occupancy_fraction <= 1.0

    def test_speedup_over_helper(self, small_program):
        fast = NeuraChipAccelerator(TILE16).run(small_program, verify=False)
        slow = NeuraChipAccelerator(TILE4).run(small_program, verify=False)
        assert fast.speedup_over(slow) > 1.0
        assert slow.speedup_over(fast) < 1.0


class TestArchitecturalTrends:
    """The relative effects the paper reports must hold in the simulator."""

    def test_larger_tiles_are_faster(self, small_program):
        tile4 = NeuraChipAccelerator(TILE4).run(small_program, verify=False)
        tile16 = NeuraChipAccelerator(TILE16).run(small_program, verify=False)
        assert tile16.cycles < tile4.cycles

    def test_rolling_eviction_lowers_hacc_latency(self, small_program):
        rolling = NeuraChipAccelerator(TILE16).run(small_program, verify=False)
        barrier = NeuraChipAccelerator(TILE16, eviction_mode="barrier").run(
            small_program, verify=False)
        assert rolling.hacc_cpi_mean < barrier.hacc_cpi_mean

    def test_rolling_eviction_reduces_hashpad_occupancy(self, small_program):
        rolling = NeuraChipAccelerator(TILE16).run(small_program, verify=False)
        barrier = NeuraChipAccelerator(TILE16, eviction_mode="barrier").run(
            small_program, verify=False)
        assert rolling.peak_hashpad_occupancy < barrier.peak_hashpad_occupancy

    def test_mmh_cpi_grows_with_tile_size(self):
        dataset = load_dataset("wiki-Vote", max_nodes=80, seed=2)
        cpis = []
        for tile in (1, 4):
            program = compile_spgemm(dataset.adjacency_csc(),
                                     dataset.adjacency_csr(), tile_size=tile)
            report = NeuraChipAccelerator(TILE16).run(program, verify=False)
            cpis.append(report.mmh_cpi_mean)
        assert cpis[1] > cpis[0]

    def test_slower_memory_increases_stalls(self, small_program):
        fast = NeuraChipAccelerator(TILE4).run(small_program, verify=False)
        slow_params = SimulationParams().scaled(hbm_row_hit_cycles=120,
                                                hbm_row_miss_cycles=240,
                                                hbm_bytes_per_cycle_per_channel=2.0)
        slow = NeuraChipAccelerator(TILE4, params=slow_params).run(small_program,
                                                                   verify=False)
        assert slow.stall_cycles > fast.stall_cycles
        assert slow.cycles > fast.cycles


class TestFunctionalModel:
    def test_functional_matches_reference(self, small_program,
                                          reference_result):
        report = FunctionalAccelerator(TILE16).run(small_program)
        assert np.allclose(report.output, reference_result(small_program))
        assert report.total_partial_products == small_program.total_partial_products

    @pytest.mark.parametrize("scheme", ["ring", "modular", "random", "drhm"])
    def test_functional_correct_for_every_mapping(self, small_program, scheme,
                                                  reference_result):
        report = FunctionalAccelerator(TILE16, mapping_scheme=scheme).run(small_program)
        assert np.allclose(report.output, reference_result(small_program))

    def test_functional_tracks_load_balance(self, small_program):
        report = FunctionalAccelerator(TILE16).run(small_program)
        assert report.per_mem_haccs.sum() == small_program.total_partial_products
        assert report.load_imbalance >= 1.0

    def test_functional_spills_with_tiny_pad(self, small_program,
                                             reference_result):
        from dataclasses import replace

        from repro.arch.config import NeuraMemConfig

        tiny_mem = NeuraMemConfig(comparators=2, hash_engines=2, hashlines=2,
                                  accumulators=16, ports=4)
        config = replace(TILE4, mem=tiny_mem, name="Tile-4-tinypad")
        report = FunctionalAccelerator(config).run(small_program)
        assert report.spills > 0
        assert np.allclose(report.output, reference_result(small_program))

    def test_functional_agrees_with_cycle_simulator(self, small_program,
                                                    reference_result):
        functional = FunctionalAccelerator(TILE4).run(small_program)
        cycle = NeuraChipAccelerator(TILE4).run(small_program)
        assert cycle.correct is True
        assert np.allclose(functional.output, reference_result(small_program))

    @pytest.mark.parametrize("scheme", MAPPING_SCHEMES)
    def test_both_models_send_each_hacc_to_one_neuramem(self, monkeypatch,
                                                        small_program, scheme):
        """NeuraSim's per-NeuraMem HACC arrivals equal the functional
        model's per-NeuraMem loads under every scheme."""
        arrivals = np.zeros(TILE4.total_mems, dtype=np.int64)
        receive = NeuraMem.receive_hacc

        def counting_receive(mem, *args):
            arrivals[mem.mem_id] += 1
            return receive(mem, *args)

        monkeypatch.setattr(NeuraMem, "receive_hacc", counting_receive)
        cycle = NeuraChipAccelerator(TILE4, mapping_scheme=scheme).run(
            small_program)
        functional = FunctionalAccelerator(TILE4, mapping_scheme=scheme).run(
            small_program)
        assert cycle.correct is True
        assert arrivals.tolist() == functional.per_mem_haccs.tolist()

    def test_unknown_mapping_scheme_raises(self, small_program):
        for model in (NeuraChipAccelerator, FunctionalAccelerator):
            with pytest.raises(ValueError, match="unknown mapping scheme"):
                model(TILE4, mapping_scheme="quantum").run(small_program)


# ----------------------------------------------------------------------
# Pinned runs: the spill and eviction traffic of tiny pads
# ----------------------------------------------------------------------
def with_hashlines(hashlines):
    return replace(TILE4, mem=replace(TILE4.mem, hashlines=hashlines))


#: Counters every tiny-pad run below shares.
_COMMON_COUNTERS = {
    "dispatcher.issued": 2085.0, "core.busy_cycles": 13428.5,
    "core.haccs_dispatched": 10554.0, "core.instructions_retired": 2085.0,
    "neuramem.evictions": 4728.0, "memctrl.reads": 8340.0,
    "hbm.row_hits": 1227.0, "hbm.row_misses": 252.0,
    "hbm.bytes_read": 47328.0, "noc.flits": 10554.0,
}
_COUNTER_KEYS = ("core.stall_cycles", "neuramem.accumulations",
                 "neuramem.insertions", "neuramem.spills",
                 "memctrl.buffer_hits", "memctrl.coalesced", "memctrl.writes",
                 "hbm.bytes_written", "noc.hop_flits")

#: (hashlines, eviction mode) -> ((cycles, spills, evictions,
#: peak_hashpad_occupancy), the remaining counters in _COUNTER_KEYS order).
TINY_PAD_RUNS = {
    (2, "rolling"): ((2971.0, 4594, 4728, 2),
                     (143579.5, 1232, 9322, 4594, 7390, 1866, 9322, 74576,
                      21066)),
    (2, "barrier"): ((2975.0, 4590, 4728, 2),
                     (143848.0, 1236, 9318, 4590, 7383, 1873, 9318, 74544,
                      21153)),
    (4, "rolling"): ((2942.0, 3453, 4728, 4),
                     (141931.0, 2373, 8181, 3453, 7389, 1867, 8181, 65448,
                      21066)),
    (4, "barrier"): ((2946.0, 3461, 4728, 4),
                     (142111.5, 2365, 8189, 3461, 7392, 1864, 8189, 65512,
                      21158)),
}


@pytest.mark.parametrize("job", sorted(TINY_PAD_RUNS),
                         ids=lambda job: f"{job[0]}-{job[1]}")
def test_tiny_pad_neurasim_runs_pinned(small_program, job):
    hashlines, mode = job
    report = NeuraChipAccelerator(with_hashlines(hashlines),
                                  eviction_mode=mode).run(small_program)
    fields, counters = TINY_PAD_RUNS[job]
    assert report.correct is True
    assert (report.cycles, report.spills, report.evictions,
            report.peak_hashpad_occupancy) == fields
    assert report.counters == {**_COMMON_COUNTERS,
                               **dict(zip(_COUNTER_KEYS, map(float, counters)))}


#: Per-mapping NeuraMem loads of small_program on Tile-4 (ring and modular
#: coincide): (per_mem_haccs, per_mem_evictions, load_imbalance).
_LOADS = {
    "ring": ([1402, 1505, 1256, 1090, 1410, 1140, 1364, 1387],
             [616, 613, 590, 542, 609, 559, 582, 617], 1.1407996967974228),
    "random": ([1380, 1266, 1287, 1278, 1365, 1226, 1383, 1369],
               [609, 576, 579, 589, 601, 564, 598, 612], 1.0483229107447414),
    "drhm": ([1343, 1288, 1339, 1288, 1173, 1290, 1476, 1357],
             [565, 578, 623, 582, 559, 589, 653, 579], 1.1188175099488347),
}
_LOADS["modular"] = _LOADS["ring"]

#: (hashlines, scheme) -> (peak_occupancy, spills).
FUNCTIONAL_PADS = {
    (2, "ring"): (2, 5134), (2, "modular"): (2, 5134),
    (2, "random"): (2, 5123), (2, "drhm"): (2, 5123),
    (16, "ring"): (16, 608), (16, "modular"): (16, 608),
    (16, "random"): (16, 613), (16, "drhm"): (16, 579),
    (2048, "ring"): (32, 0), (2048, "modular"): (32, 0),
    (2048, "random"): (38, 0), (2048, "drhm"): (30, 0),
}


@pytest.mark.parametrize("job", sorted(FUNCTIONAL_PADS),
                         ids=lambda job: f"{job[0]}-{job[1]}")
def test_functional_reports_pinned(small_program, job):
    hashlines, scheme = job
    report = FunctionalAccelerator(with_hashlines(hashlines),
                                   mapping_scheme=scheme).run(small_program)
    haccs, evictions, imbalance = _LOADS[scheme]
    assert report.per_mem_haccs.tolist() == haccs
    assert report.per_mem_evictions.tolist() == evictions
    assert report.per_core_mmhs.tolist() == [261] * 5 + [260] * 3
    assert (report.peak_occupancy, report.spills) == FUNCTIONAL_PADS[job]
    assert report.total_partial_products == 10554
    assert report.load_imbalance == imbalance
    assert report.metadata == {"mapping_scheme": scheme}
    assert report.output.shape == (80, 80)
    assert report.output.dtype == "float64"
    assert hashlib.sha256(report.output.tobytes()).hexdigest()[:16] \
        == "bb6adf90b77f9736"
