"""Top-level NeuraChip accelerator model: builds and runs the full chip.

``NeuraChipAccelerator`` wires the Dispatcher, NeuraCores, NeuraMems, the
torus NoC and the memory system according to a
:class:`~repro.arch.config.NeuraChipConfig`, executes a compiled
:class:`~repro.compiler.program.Program`, and returns a
:class:`SimulationReport` with the timing, utilisation and correctness data
the benchmark harness consumes.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field

import numpy as np

from repro.arch.config import NeuraChipConfig
from repro.compiler.program import HACCMacroOp, MMHMacroOp, Program
from repro.hashing.mappings import MappingScheme, make_mapping
from repro.sim.dispatcher import Dispatcher
from repro.sim.engine import Simulator
from repro.sim.memory import MemorySystem
from repro.sim.neuracore import NeuraCore
from repro.sim.neuramem import HashLine, NeuraMem
from repro.sim.params import SimulationParams
from repro.sim.router import TorusNetwork, interleaved_positions
from repro.sim.stats import Histogram, StatsCollector

#: Approximate NoC round-trip overhead charged on memory requests, in cycles.
_MEMORY_NOC_OVERHEAD = 4
#: HACC message size on the NoC (one 128-bit instruction).
_HACC_BYTES = 16


@dataclass
class SimulationReport:
    """Result of one NeuraSim execution.

    Attributes:
        config_name: NeuraChip configuration simulated.
        workload: program source label.
        cycles: total simulated cycles until the last write-back drained.
        mmh_instructions: MMH instructions executed.
        hacc_instructions: HACC instructions executed.
        useful_flops: useful floating point work (2 x partial products).
        gflops: sustained GFLOP/s at the configuration's clock frequency.
        gops: sustained GOP/s counting one multiply-accumulate per partial
            product (the paper's Table 5 "SpGEMM Perf." metric).
        mmh_cpi_mean / hacc_cpi_mean: average instruction latencies.
        mmh_cpi_histogram / hacc_cpi_histogram: Figure 14 / 15 histograms.
        ipc: retired MMH instructions per cycle.
        cpi: cycles per retired MMH instruction.
        stall_cycles: aggregate NeuraCore stall cycles (data starvation).
        busy_cycles: aggregate NeuraCore busy cycles.
        core_utilization: busy cycles / (cycles x number of cores).
        mem_utilization: NeuraMem hash-engine busy fraction.
        avg_inflight_mem: time-averaged outstanding memory requests.
        memory_traffic_bytes: total HBM read + write traffic.
        evictions / spills: HashPad eviction and overflow-spill counts.
        peak_hashpad_occupancy: maximum hash lines resident in any NeuraMem.
        hashpad_occupancy_fraction: peak occupancy / per-NeuraMem capacity.
        noc_flits / noc_avg_hops: on-chip network activity.
        output_nnz: number of output elements produced.
        correct: True when the accumulated output matches the reference
            (only populated when ``verify=True``).
        max_abs_error: largest absolute deviation from the reference.
        wall_clock_seconds: host time spent simulating.
        events: number of simulation events processed.
        eviction_mode: 'rolling' or 'barrier'.
        mapping_scheme: accumulation mapping scheme used.
        counters: raw counter dump for debugging / extended analysis.
    """

    config_name: str
    workload: str
    cycles: float
    mmh_instructions: int
    hacc_instructions: int
    useful_flops: int
    gflops: float
    gops: float
    mmh_cpi_mean: float
    hacc_cpi_mean: float
    mmh_cpi_histogram: Histogram
    hacc_cpi_histogram: Histogram
    ipc: float
    cpi: float
    stall_cycles: float
    busy_cycles: float
    core_utilization: float
    mem_utilization: float
    avg_inflight_mem: float
    memory_traffic_bytes: int
    evictions: int
    spills: int
    peak_hashpad_occupancy: int
    hashpad_occupancy_fraction: float
    noc_flits: int
    noc_avg_hops: float
    output_nnz: int
    correct: bool | None
    max_abs_error: float
    wall_clock_seconds: float
    events: int
    eviction_mode: str
    mapping_scheme: str
    counters: dict = field(default_factory=dict)

    @property
    def simulation_kcps(self) -> float:
        """Simulator throughput in kilocycles per host second (the NeuraSim
        appendix metric: 112 / 48 / 11 KCPS for Tile-4/16/64 in the paper)."""
        if self.wall_clock_seconds <= 0:
            return 0.0
        return self.cycles / self.wall_clock_seconds / 1e3

    def speedup_over(self, other: "SimulationReport") -> float:
        """Cycle-count speedup of this run relative to another run."""
        if self.cycles <= 0:
            return 0.0
        return other.cycles / self.cycles


class NeuraChipAccelerator:
    """Builds the chip described by a configuration and executes programs."""

    def __init__(self, config: NeuraChipConfig,
                 params: SimulationParams | None = None,
                 eviction_mode: str = "rolling",
                 mapping_scheme: str | None = None,
                 mapping_seed: int = 0) -> None:
        self.config = config
        self.params = params or SimulationParams()
        self.eviction_mode = eviction_mode
        self.mapping_scheme_name = mapping_scheme or config.mapping_scheme
        self.mapping_seed = mapping_seed

    # ------------------------------------------------------------------
    # Chip construction (per run, so state never leaks between runs)
    # ------------------------------------------------------------------
    def _build(self) -> None:
        config, params = self.config, self.params
        self.sim = Simulator()
        self.stats = StatsCollector()
        self.memory = MemorySystem(self.sim, params, config.memory_controllers,
                                   self.stats)
        core_pos, mem_pos, width, height = interleaved_positions(
            config.total_cores, config.total_mems)
        self.noc = TorusNetwork(self.sim, params, width, height, self.stats)
        if self.mapping_scheme_name == "random":
            self.mapping: MappingScheme = make_mapping("random", config.total_mems,
                                                       seed=self.mapping_seed)
        elif self.mapping_scheme_name == "drhm":
            self.mapping = make_mapping("drhm", config.total_mems,
                                        seed=self.mapping_seed)
        else:
            self.mapping = make_mapping(self.mapping_scheme_name, config.total_mems)

        self.mems = [
            NeuraMem(mem_id=i, position=mem_pos[i], sim=self.sim, params=params,
                     stats=self.stats, hashlines=config.mem.hashlines,
                     hash_engines=config.mem.hash_engines,
                     eviction_mode=self.eviction_mode,
                     writeback=self._writeback,
                     on_evict=self._on_evict,
                     on_spill=self._on_spill,
                     on_applied=self._on_hacc_applied,
                     resume_lookup=self._spilled_applied_count)
            for i in range(config.total_mems)
        ]
        self.cores = [
            NeuraCore(core_id=i, position=core_pos[i], sim=self.sim, params=params,
                      stats=self.stats, n_pipelines=config.core.pipelines,
                      pipeline_registers=config.core.pipeline_registers,
                      multipliers=config.core.multipliers,
                      read_fn=self._memory_read,
                      dispatch_hacc_fn=self._dispatch_hacc,
                      on_retire=self._on_mmh_retire)
            for i in range(config.total_cores)
        ]
        self.dispatcher = Dispatcher(self.sim, params, self.cores, self.stats)

        # Per-run program state: the program's HACC stream, op by op.
        self._haccs: list[HACCMacroOp] = []
        self._op_start: list[int] = []
        self._output: dict[tuple[int, int], float] = {}
        self._spilled_value: dict[int, float] = {}
        self._spilled_applied: dict[int, int] = {}
        self._haccs_applied = 0
        self._haccs_expected = 0
        self._columns_completed = 0
        self._finalized = False

    # ------------------------------------------------------------------
    # Component callbacks
    # ------------------------------------------------------------------
    def _memory_read(self, addr: int, nbytes: int, callback) -> None:
        """Route a NeuraCore operand fetch through the NoC to memory."""
        def respond() -> None:
            self.sim.schedule(_MEMORY_NOC_OVERHEAD / 2, callback)

        self.sim.schedule(_MEMORY_NOC_OVERHEAD / 2, self.memory.read, addr, nbytes,
                          respond)

    def _writeback(self, addr: int, nbytes: int) -> None:
        """A NeuraMem wrote an evicted result back to HBM."""
        self.memory.write(addr, nbytes)

    def _dispatch_hacc(self, core: NeuraCore, op: MMHMacroOp, index: int,
                       arrival_callback) -> None:
        """Send one HACC of an MMH to its NeuraMem over the torus."""
        hacc = self._haccs[self._op_start[op.sequence] + index]
        mem_index = self.mapping.map(hacc.tag, group=hacc.out_row)
        mem = self.mems[mem_index]
        dispatch_time = self.sim.now

        def on_arrival() -> None:
            arrival_callback()
            mem.receive_hacc(hacc, dispatch_time)

        self.noc.send(core.position, mem.position, _HACC_BYTES, on_arrival)

    def _on_mmh_retire(self, core: NeuraCore, op: MMHMacroOp, latency: float) -> None:
        self.dispatcher.notify_slot_free()
        if op.reseed_after:
            self._columns_completed += 1
            self.mapping.reseed(op.k)
            if (self.eviction_mode == "barrier"
                    and self._columns_completed % self.params.barrier_interval_columns == 0):
                for mem in self.mems:
                    mem.barrier_flush()

    def _on_hacc_applied(self) -> None:
        self._haccs_applied += 1
        if self._haccs_applied >= self._haccs_expected and not self._finalized:
            self._finalized = True
            # Defer the flush so the current hash-engine event finishes first.
            self.sim.schedule(0.0, self._finalize)

    def _finalize(self) -> None:
        for mem in self.mems:
            mem.finalize()

    def _on_evict(self, line: HashLine, evict_time: float) -> None:
        key = (line.out_row, line.out_col)
        value = line.value + self._spilled_value.pop(line.tag, 0.0)
        self._spilled_applied.pop(line.tag, None)
        self._output[key] = self._output.get(key, 0.0) + value

    def _on_spill(self, line: HashLine, spill_time: float) -> None:
        self._spilled_value[line.tag] = (self._spilled_value.get(line.tag, 0.0)
                                         + line.value)
        self._spilled_applied[line.tag] = (self._spilled_applied.get(line.tag, 0)
                                           + len(line.dispatch_times))

    def _spilled_applied_count(self, tag: int) -> int:
        return self._spilled_applied.get(tag, 0)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, program: Program, verify: bool = True,
            max_events: int | None = None) -> SimulationReport:
        """Execute a compiled program and return the simulation report.

        Args:
            program: compiled MMH stream (see :mod:`repro.compiler`).
            verify: when True, the accumulated output is compared against
                the program's replay (the plain accumulation of the same
                HACC stream).
            max_events: optional safety cap on simulation events.

        Returns:
            A :class:`SimulationReport`.
        """
        start_wall = _time.perf_counter()
        self._build()
        stream = program.hacc_stream()
        self._op_start = stream.op_start.tolist()
        self._haccs = stream.macro_ops()
        del stream
        self._haccs_expected = program.total_partial_products
        self.dispatcher.load(program.iter_mmh_ops())
        self.dispatcher.start()
        self.sim.run(max_events=max_events)
        if not self._finalized:
            # Degenerate programs (no partial products) never trigger the
            # applied-count finalizer.
            self._finalize()
            self.sim.run(max_events=max_events)
        self._haccs, self._op_start = [], []
        wall = _time.perf_counter() - start_wall
        return self._build_report(program, verify, wall)

    # ------------------------------------------------------------------
    def _check_output(self, program: Program) -> tuple[bool, float]:
        """Compare the accumulated output with the program's replay, slot
        by slot: ``(correct, max_abs_error)``.  Correct needs exactly the
        symbolic output keys and every value within 1e-9; the error is
        the largest deviation over all produced and expected elements (a
        produced key outside the structure counts its whole value)."""
        arrays = program.arrays
        expected = arrays.flat_keys()
        reference = program.replay().data
        n_cols = program.shape[1]
        keys = np.fromiter((row * n_cols + col for row, col in self._output),
                           dtype=np.int64, count=len(self._output))
        values = np.fromiter(self._output.values(), dtype=np.float64,
                             count=len(self._output))
        slots = np.searchsorted(expected, keys)
        known = slots < expected.size
        known[known] = expected[slots[known]] == keys[known]
        produced = np.zeros(expected.size, dtype=np.float64)
        produced[slots[known]] = values[known]
        max_err = float(max(np.abs(produced - reference).max(initial=0.0),
                            np.abs(values[~known]).max(initial=0.0)))
        correct = (bool(known.all()) and keys.size == expected.size
                   and bool(np.allclose(produced, reference,
                                        rtol=1e-9, atol=1e-9)))
        return correct, max_err

    def _build_report(self, program: Program, verify: bool,
                      wall: float) -> SimulationReport:
        config = self.config
        cycles = float(np.ceil(max(self.sim.now, 1.0)))
        n_mmh = sum(core.instructions_retired for core in self.cores)
        n_hacc = sum(mem.haccs_received for mem in self.mems)
        useful_flops = program.useful_flops
        seconds = cycles / (config.frequency_ghz * 1e9)
        gflops = useful_flops / seconds / 1e9 if seconds > 0 else 0.0
        gops = program.total_partial_products / seconds / 1e9 if seconds > 0 else 0.0

        stall = sum(core.stall_cycles for core in self.cores)
        busy = sum(core.busy_cycles for core in self.cores)
        mem_busy = sum(mem.busy_cycles for mem in self.mems)
        evictions = sum(mem.evictions for mem in self.mems)
        spills = sum(mem.spills for mem in self.mems)
        peak_occ = max((mem.peak_occupancy for mem in self.mems), default=0)

        correct: bool | None = None
        max_err = 0.0
        if verify:
            correct, max_err = self._check_output(program)

        mmh_hist = self.stats.histograms.get(
            "mmh_cpi", Histogram(bin_width=25, n_bins=20))
        hacc_hist = self.stats.histograms.get(
            "hacc_cpi", Histogram(bin_width=50, n_bins=20))

        return SimulationReport(
            config_name=config.name,
            workload=program.source,
            cycles=cycles,
            mmh_instructions=n_mmh,
            hacc_instructions=n_hacc,
            useful_flops=useful_flops,
            gflops=gflops,
            gops=gops,
            mmh_cpi_mean=mmh_hist.mean,
            hacc_cpi_mean=hacc_hist.mean,
            mmh_cpi_histogram=mmh_hist,
            hacc_cpi_histogram=hacc_hist,
            ipc=n_mmh / cycles,
            cpi=cycles / n_mmh if n_mmh else 0.0,
            stall_cycles=stall,
            busy_cycles=busy,
            core_utilization=min(1.0, busy / (cycles * max(1, config.total_pipelines))),
            mem_utilization=min(1.0, mem_busy / (cycles * max(1, config.total_hash_engines))),
            avg_inflight_mem=self.stats.level("memctrl.in_flight").average(cycles),
            memory_traffic_bytes=self.memory.total_traffic_bytes,
            evictions=evictions,
            spills=spills,
            peak_hashpad_occupancy=peak_occ,
            hashpad_occupancy_fraction=peak_occ / max(1, config.mem.hashlines),
            noc_flits=self.noc.flits_sent,
            noc_avg_hops=self.noc.average_hops_per_flit,
            output_nnz=len(self._output),
            correct=correct,
            max_abs_error=max_err,
            wall_clock_seconds=wall,
            events=self.sim.events_processed,
            eviction_mode=self.eviction_mode,
            mapping_scheme=self.mapping_scheme_name,
            counters=dict(self.stats.counters),
        )
