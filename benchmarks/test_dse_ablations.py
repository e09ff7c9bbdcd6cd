"""Section 4 design-space-exploration ablations.

The paper's DSE commentary (register-file size, HashPad size, mapping scheme)
is backed by observations rather than a dedicated figure; this benchmark
regenerates those observations as explicit ablations:

* register-file size: more in-flight MMH instructions per pipeline increase
  the number of outstanding HBM requests until the channels saturate;
* HashPad size: smaller HashPads spill once they cannot hold a row group's
  working set, while the default sizes never spill on these workloads;
* mapping scheme: DRHM keeps the NeuraMem load imbalance close to the ideal
  random mapping, unlike ring/modular hashing.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.arch.config import TILE16
from repro.compiler import compile_spgemm
from repro.sim.accelerator import NeuraChipAccelerator
from repro.sim.functional import FunctionalAccelerator
from repro.sim.params import SimulationParams

from _harness import emit


@pytest.fixture(scope="module")
def cora_program(cora_sim):
    return compile_spgemm(cora_sim.adjacency_csc(),
                          cora_sim.features(dim=16, density=0.4),
                          tile_size=4, source="cora-dse")


def test_dse_register_file_size(benchmark, cora_program):
    """Register-file ablation: in-flight memory requests grow with registers."""
    def run(registers):
        core = replace(TILE16.core, pipeline_registers=registers,
                       register_file_bits=registers * 128)
        config = replace(TILE16, core=core, name=f"Tile-16-r{registers}")
        return NeuraChipAccelerator(config).run(cora_program, verify=False)

    reports = {registers: run(registers) for registers in (2, 8, 32)}
    benchmark.pedantic(run, args=(8,), rounds=1, iterations=1)

    rows = [{"pipeline_registers": registers,
             "avg_inflight_mem": round(report.avg_inflight_mem, 2),
             "cycles": report.cycles,
             "cpi": round(report.cpi, 2)}
            for registers, report in reports.items()]
    emit("dse_register_file", rows)

    assert reports[8].avg_inflight_mem >= reports[2].avg_inflight_mem
    assert reports[8].cycles <= reports[2].cycles
    # Diminishing returns: quadrupling the registers again buys less than the
    # first expansion did (the DRAM channels become the limit).
    first_gain = reports[2].cycles - reports[8].cycles
    second_gain = reports[8].cycles - reports[32].cycles
    assert second_gain <= first_gain


def test_dse_hashpad_size(benchmark, cora_program):
    """HashPad ablation: shrinking the HashPad induces spills, the default
    configuration absorbs the whole row-group working set."""
    def run(hashlines):
        mem = replace(TILE16.mem, hashlines=hashlines)
        config = replace(TILE16, mem=mem, name=f"Tile-16-h{hashlines}")
        return FunctionalAccelerator(config).run(cora_program)

    reports = {hashlines: run(hashlines) for hashlines in (2, 16, 2048)}
    benchmark.pedantic(run, args=(2048,), rounds=1, iterations=1)

    rows = [{"hashlines": hashlines,
             "spills": report.spills,
             "peak_occupancy": report.peak_occupancy}
            for hashlines, report in reports.items()]
    emit("dse_hashpad_size", rows)

    assert reports[2].spills > 0
    assert reports[2048].spills == 0
    assert reports[2048].peak_occupancy <= TILE16.mem.hashlines


#: Feature seeds the mapping ablation averages over: one draw's imbalance
#: moves by up to ~0.1 between seeds, more than the margins asserted.
MAPPING_FEATURE_SEEDS = range(8)


def test_dse_mapping_scheme(benchmark, cora_sim):
    """Mapping ablation: DRHM's NeuraMem load imbalance, averaged over the
    feature draws, tracks random mapping and beats ring/modular hashing."""
    schemes = ("ring", "modular", "random", "drhm")
    programs = [compile_spgemm(cora_sim.adjacency_csc(),
                               cora_sim.features(dim=16, density=0.4,
                                                 seed=seed),
                               tile_size=4, source=f"cora-dse-f{seed}")
                for seed in MAPPING_FEATURE_SEEDS]

    def run(scheme, program):
        return FunctionalAccelerator(TILE16, mapping_scheme=scheme).run(program)

    imbalance = {scheme: [run(scheme, program).load_imbalance
                          for program in programs] for scheme in schemes}
    benchmark.pedantic(run, args=("drhm", programs[0]), rounds=1,
                       iterations=1)
    mean = {scheme: float(np.mean(values))
            for scheme, values in imbalance.items()}

    emit("dse_mapping_scheme",
         [{"scheme": scheme, "load_imbalance": round(mean[scheme], 3)}
          for scheme in schemes],
         extra_json={"feature_seeds": list(MAPPING_FEATURE_SEEDS),
                     "load_imbalance": imbalance})

    assert mean["drhm"] <= mean["ring"] + 0.05
    assert mean["drhm"] <= mean["modular"] + 0.05
    assert mean["drhm"] == pytest.approx(mean["random"], rel=0.25)


def test_dse_noc_and_memory_sensitivity(benchmark, cora_program):
    """Bandwidth sensitivity: halving the per-channel HBM data rate slows the
    workload down, confirming the simulator is memory-bandwidth sensitive in
    the regime the paper describes (Tile-64 being bandwidth bound)."""
    def run(bytes_per_cycle):
        params = SimulationParams().scaled(
            hbm_bytes_per_cycle_per_channel=bytes_per_cycle)
        return NeuraChipAccelerator(TILE16, params=params).run(cora_program,
                                                               verify=False)

    full = benchmark.pedantic(run, args=(16.0,), rounds=1, iterations=1)
    half = run(8.0)
    emit("dse_bandwidth_sensitivity", [
        {"bytes_per_cycle_per_channel": 16.0, "cycles": full.cycles},
        {"bytes_per_cycle_per_channel": 8.0, "cycles": half.cycles},
    ])
    assert half.cycles > full.cycles
