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
from repro.compiler.program import Program
from repro.hashing.mappings import map_haccs
from repro.sim.dispatcher import Dispatcher
from repro.sim.engine import Simulator
from repro.sim.memory import MemorySystem
from repro.sim.neuracore import MMH_HIST_BIN_WIDTH, MMH_HIST_BINS, NeuraCore
from repro.sim.hashpad import HashPad, SpillStore
from repro.sim.neuramem import HACC_HIST_BIN_WIDTH, HACC_HIST_BINS, NeuraMem
from repro.sim.params import SimulationParams
from repro.sim.router import TorusNetwork, interleaved_positions
from repro.sim.stats import Histogram

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
        events: simulation events processed (a core's HACC sends of one
            cycle are one event); compare only within one simulator version.
        eviction_mode: 'rolling' or 'barrier'.
        mapping_scheme: accumulation mapping scheme used.
        counters: the components' event counts by dotted name
            (``"neuramem.evictions"``, ``"hbm.row_hits"``, ...) as floats,
            read from the components when the run ends; zero counts are
            omitted.  ``core.busy_cycles`` equals ``busy_cycles``, HACC
            dispatch included.  Other backends put their own keys here.
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
    def _build(self, program: Program) -> None:
        config, params = self.config, self.params
        self.sim = Simulator()
        self.mmh_cpi = Histogram(MMH_HIST_BIN_WIDTH, MMH_HIST_BINS)
        self.hacc_cpi = Histogram(HACC_HIST_BIN_WIDTH, HACC_HIST_BINS)
        self.memory = MemorySystem(self.sim, params, config.memory_controllers)
        core_pos, mem_pos, width, height = interleaved_positions(
            config.total_cores, config.total_mems)
        self.noc = TorusNetwork(self.sim, params, width, height)
        self._hops = [[self.noc.hops(core, mem) for mem in mem_pos.values()]
                      for core in core_pos.values()]

        # Per-run program state: the op columns the simulation reads, and
        # the HACC stream's columns, in ``NeuraMem.receive_hacc`` order, as
        # lists; op ``s`` sends HACCs ``op_start[s]:op_start[s + 1]``, HACC
        # ``h`` to NeuraMem ``hacc_mem[h]``.
        stream = program.hacc_stream()
        op_reads = program.operand_reads().tolist()
        op_products = program.partial_products_per_op.tolist()
        self._op_reseed = program.op_reseed.tolist()
        self._op_start = stream.op_start.tolist()
        self._hacc_mem = map_haccs(self.mapping_scheme_name, stream.tag,
                                   stream.out_row, config.total_mems,
                                   self.mapping_seed).tolist()
        self._haccs = (stream.tag.tolist(), stream.value.tolist(),
                       stream.counter.tolist(), stream.out_row.tolist(),
                       stream.out_col.tolist(), stream.writeback_addr.tolist())

        self.store = SpillStore()
        self.mems = [
            NeuraMem(mem_id=i, position=mem_pos[i], sim=self.sim, params=params,
                     cpi_histogram=self.hacc_cpi,
                     pad=HashPad(config.mem.hashlines, self.store,
                                 self.eviction_mode),
                     hash_engines=config.mem.hash_engines,
                     writeback=self.memory.write,
                     on_applied=self._on_hacc_applied)
            for i in range(config.total_mems)
        ]
        self.cores = [
            NeuraCore(core_id=i, position=core_pos[i], sim=self.sim, params=params,
                      cpi_histogram=self.mmh_cpi, n_pipelines=config.core.pipelines,
                      pipeline_registers=config.core.pipeline_registers,
                      multipliers=config.core.multipliers,
                      op_reads=op_reads, op_products=op_products,
                      read_fn=self._memory_read,
                      dispatch_haccs_fn=self._dispatch_haccs,
                      on_retire=self._on_mmh_retire)
            for i in range(config.total_cores)
        ]
        self.dispatcher = Dispatcher(self.sim, params, self.cores)
        self._haccs_applied = 0
        self._haccs_expected = program.total_partial_products
        self._columns_completed = 0
        self._finalized = False

    # ------------------------------------------------------------------
    # Component callbacks
    # ------------------------------------------------------------------
    def _memory_read(self, addr: int, nbytes: int, callback, *args) -> None:
        """Route a NeuraCore operand fetch through the NoC to its controller
        (the route is fixed at issue); the response crosses the NoC back
        before ``callback(*args)`` runs."""
        sim, half = self.sim, _MEMORY_NOC_OVERHEAD / 2
        sim.schedule(half, self.memory.controller_for(addr).read, addr, nbytes,
                     sim.schedule, half, callback, *args)

    def _dispatch_haccs(self, core: NeuraCore, op: int, first: int,
                        stop: int, on_arrival, state) -> None:
        """Send HACCs ``first:stop`` of op ``op`` over the torus, in order."""
        hops, now = self._hops[core.core_id], self.sim.now
        offset, hacc_mem, mems = self._op_start[op], self._hacc_mem, self.mems
        deliver, arrived = self.noc.deliver, self._hacc_arrived
        for hacc in range(offset + first, offset + stop):
            mem_index = hacc_mem[hacc]
            mem = mems[mem_index]
            deliver(mem.position, hops[mem_index], _HACC_BYTES, arrived, mem,
                    hacc, now, on_arrival, state)

    def _hacc_arrived(self, mem: NeuraMem, hacc: int, dispatch_time: float,
                      on_arrival, state) -> None:
        """A HACC reached its NeuraMem: tell its core, then hand it over."""
        on_arrival(state)
        tag, value, counter, out_row, out_col, writeback_addr = self._haccs
        mem.receive_hacc(tag[hacc], value[hacc], counter[hacc], out_row[hacc],
                         out_col[hacc], writeback_addr[hacc], dispatch_time)

    def _on_mmh_retire(self, core: NeuraCore, op: int, latency: float) -> None:
        self.dispatcher.notify_slot_free(core)
        if self._op_reseed[op]:
            self._columns_completed += 1
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
        self._build(program)
        self.dispatcher.load(program.n_instructions)
        self.dispatcher.start()
        self.sim.run(max_events=max_events)
        if not self._finalized:
            # Degenerate programs (no partial products) never trigger the
            # applied-count finalizer.
            self._finalize()
            self.sim.run(max_events=max_events)
        wall = _time.perf_counter() - start_wall
        report = self._build_report(program, verify, wall)
        # Drop the run's state: the components call back into this
        # accelerator, a cycle only the cyclic collector would free.
        self.cores, self.mems, self.dispatcher = [], [], None
        self._haccs, self._op_start, self._hacc_mem = (), [], []
        self._op_reseed = []
        return report

    # ------------------------------------------------------------------
    def _check_output(self, program: Program) -> tuple[bool, float]:
        """Compare the accumulated output with the program's replay, slot
        by slot: ``(correct, max_abs_error)``.  Correct needs exactly the
        symbolic output keys and every value within 1e-9; the error is
        the largest deviation over all produced and expected elements (a
        produced key outside the structure counts its whole value)."""
        expected = program.flat_keys()
        reference = program.replay().data
        n_cols = program.shape[1]
        output = self.store.output
        keys = np.fromiter((row * n_cols + col for row, col in output),
                           dtype=np.int64, count=len(output))
        values = np.fromiter(output.values(), dtype=np.float64,
                             count=len(output))
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
        pads = [mem.pad for mem in self.mems]
        evictions = sum(pad.evictions for pad in pads)
        spills = sum(pad.spills for pad in pads)
        peak_occ = max((pad.peak_occupancy for pad in pads), default=0)
        channels = self.memory.channels
        controllers = self.memory.controllers
        counts = {
            "dispatcher.issued": self.dispatcher.instructions_issued,
            "core.stall_cycles": stall,
            "core.busy_cycles": busy,
            "core.haccs_dispatched": sum(c.haccs_dispatched for c in self.cores),
            "core.instructions_retired": n_mmh,
            "neuramem.accumulations": sum(p.accumulations for p in pads),
            "neuramem.insertions": sum(p.insertions for p in pads),
            "neuramem.evictions": evictions,
            "neuramem.spills": spills,
            "neuramem.incomplete_lines": sum(p.incomplete_lines for p in pads),
            "memctrl.reads": sum(c.reads_received for c in controllers),
            "memctrl.buffer_hits": sum(c.reads_buffered for c in controllers),
            "memctrl.coalesced": sum(c.reads_coalesced for c in controllers),
            "memctrl.writes": sum(c.writes_received for c in controllers),
            "hbm.row_hits": sum(c.row_hits for c in channels),
            "hbm.row_misses": sum(c.row_misses for c in channels),
            "hbm.bytes_read": self.memory.total_bytes_read,
            "hbm.bytes_written": self.memory.total_bytes_written,
            "noc.flits": self.noc.flits_sent,
            "noc.hop_flits": self.noc.total_hops,
        }
        counters = {name: float(value) for name, value in counts.items() if value}

        correct: bool | None = None
        max_err = 0.0
        if verify:
            correct, max_err = self._check_output(program)

        return SimulationReport(
            config_name=config.name,
            workload=program.source,
            cycles=cycles,
            mmh_instructions=n_mmh,
            hacc_instructions=n_hacc,
            useful_flops=useful_flops,
            gflops=gflops,
            gops=gops,
            mmh_cpi_mean=self.mmh_cpi.mean,
            hacc_cpi_mean=self.hacc_cpi.mean,
            mmh_cpi_histogram=self.mmh_cpi,
            hacc_cpi_histogram=self.hacc_cpi,
            ipc=n_mmh / cycles,
            cpi=cycles / n_mmh if n_mmh else 0.0,
            stall_cycles=stall,
            busy_cycles=busy,
            core_utilization=min(1.0, busy / (cycles * max(1, config.total_pipelines))),
            mem_utilization=min(1.0, mem_busy / (cycles * max(1, config.total_hash_engines))),
            avg_inflight_mem=self.memory.in_flight.average(cycles),
            memory_traffic_bytes=self.memory.total_traffic_bytes,
            evictions=evictions,
            spills=spills,
            peak_hashpad_occupancy=peak_occ,
            hashpad_occupancy_fraction=peak_occ / max(1, config.mem.hashlines),
            noc_flits=self.noc.flits_sent,
            noc_avg_hops=self.noc.average_hops_per_flit,
            output_nnz=len(self.store.output),
            correct=correct,
            max_abs_error=max_err,
            wall_clock_seconds=wall,
            events=self.sim.events_processed,
            eviction_mode=self.eviction_mode,
            mapping_scheme=self.mapping_scheme_name,
            counters=counters,
        )
