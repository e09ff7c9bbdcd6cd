"""Integration tests: full-chip cycle simulation of compiled programs."""

import numpy as np
import pytest

from repro.arch.config import TILE16, TILE4
from repro.compiler import compile_spgemm
from repro.datasets import load_dataset
from repro.datasets.features import feature_matrix
from repro.sim.accelerator import NeuraChipAccelerator
from repro.sim.functional import FunctionalAccelerator
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
