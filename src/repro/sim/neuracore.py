"""NeuraCore: the multiplication engine (Section 3.3).

A NeuraCore owns several multiply pipelines (the quad-pipeline layout of
Figure 6).  Each in-flight MMH instruction occupies register-file slots in
one pipeline, fetches its four operand groups from HBM through the memory
controllers, computes its partial products, and dispatches HACC instructions
over the NoC to the NeuraMems selected by the mapping function.

The per-instruction latency (issue to the arrival of its last HACC at a
NeuraMem) is the quantity the Figure 14 CPI histograms plot; every core of a
chip records it into the one histogram the accelerator hands it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from repro.sim.engine import Simulator
from repro.sim.params import SimulationParams
from repro.sim.stats import Histogram

#: Histogram shape of Figure 14 (bins of 25 cycles, 0 to 500+).
MMH_HIST_BIN_WIDTH = 25
MMH_HIST_BINS = 20


@dataclass(slots=True)
class _InFlightMMH:
    """Book-keeping for one MMH instruction travelling through a pipeline."""

    op: int
    pipeline: int
    issue_time: float
    frontend_done: float = 0.0
    outstanding_reads: int = 0
    outstanding_haccs: int = 0


class NeuraCore:
    """In-order multiplication core with a small number of pipelines.

    An MMH instruction is an op index into the program's columns: op
    ``s`` fetches the ``(address, nbytes)`` pairs ``op_reads[s]`` (rows of
    :meth:`~repro.compiler.program.Program.operand_reads`) and
    computes ``op_products[s]`` partial products.

    ``pipelines`` holds each pipeline's in-flight MMH count, against
    ``slots_per_pipeline`` register slots; ``in_flight`` and ``capacity``
    are their totals.  ``read_fn(addr, nbytes, callback, *args)`` runs
    ``callback(*args)`` when the operand arrives; ``dispatch_haccs_fn(core,
    op, first, stop, on_arrival, state)`` sends HACCs ``first:stop`` of
    ``op`` and runs ``on_arrival(state)`` as each one lands.
    """

    def __init__(self, core_id: int, position: tuple[int, int], sim: Simulator,
                 params: SimulationParams, cpi_histogram: Histogram,
                 n_pipelines: int, pipeline_registers: int, multipliers: int,
                 op_reads: Sequence[Sequence[Sequence[int]]],
                 op_products: Sequence[int],
                 read_fn: Callable[..., None],
                 dispatch_haccs_fn: Callable[..., None],
                 on_retire: Callable[["NeuraCore", int, float], None]) -> None:
        self.core_id = core_id
        self.position = position
        self.sim = sim
        self.params = params
        self.cpi_histogram = cpi_histogram
        self.multipliers = max(1, multipliers)
        self.slots_per_pipeline = max(1, pipeline_registers // params.registers_per_mmh)
        self.pipelines = [0] * max(1, n_pipelines)
        self.capacity = self.slots_per_pipeline * len(self.pipelines)
        self.in_flight = 0
        self._op_reads = op_reads
        self._op_products = op_products
        self._read = read_fn
        self._send = dispatch_haccs_fn
        self._on_retire = on_retire
        self._next_pipeline = 0
        self._frontend_cycles = (params.decode_cycles + params.register_alloc_cycles
                                 + params.address_gen_cycles)
        self._multiply_cycles = params.multiply_cycles
        self._sends_per_cycle = max(1, params.hacc_sends_per_cycle)
        self.busy_cycles = 0.0
        self.stall_cycles = 0.0
        self.instructions_retired = 0
        self.haccs_dispatched = 0

    # ------------------------------------------------------------------
    def issue(self, op: int) -> None:
        """Accept an MMH instruction from the Dispatcher (Step 1, Figure 6)."""
        pipeline_index = self._select_pipeline()
        self.pipelines[pipeline_index] += 1
        self.in_flight += 1
        state = _InFlightMMH(op, pipeline_index, self.sim.now)
        self.sim.schedule(self._frontend_cycles, self._issue_memory_requests, state)

    def _select_pipeline(self) -> int:
        """Round-robin over pipelines with a free slot (Figure 6, Step 1)."""
        n = len(self.pipelines)
        for offset in range(n):
            candidate = (self._next_pipeline + offset) % n
            if self.pipelines[candidate] < self.slots_per_pipeline:
                self._next_pipeline = (candidate + 1) % n
                return candidate
        raise RuntimeError("issue() called with no free pipeline slot")

    # ------------------------------------------------------------------
    def _issue_memory_requests(self, state: _InFlightMMH) -> None:
        """Steps 4-5: generate operand fetches and send them to memory."""
        state.frontend_done = self.sim.now
        reads = self._op_reads[state.op]
        state.outstanding_reads = len(reads)
        read, respond = self._read, self._on_read_response
        for addr, nbytes in reads:
            read(addr, nbytes, respond, state)

    def _on_read_response(self, state: _InFlightMMH) -> None:
        """Step 6-7: a memory response arrived; execute once all are present."""
        state.outstanding_reads -= 1
        if state.outstanding_reads > 0:
            return
        self.stall_cycles += self.sim.now - state.frontend_done  # the clock only advances
        batches = -(-self._op_products[state.op] // self.multipliers)
        compute_latency = batches * self._multiply_cycles
        if compute_latency < 1:
            compute_latency = 1
        self.busy_cycles += compute_latency
        self.sim.schedule(compute_latency, self._dispatch_haccs, state)

    # ------------------------------------------------------------------
    def _dispatch_haccs(self, state: _InFlightMMH) -> None:
        """Step 8: relay HACC instructions to NeuraMem units via the NoC,
        ``hacc_sends_per_cycle`` of them per cycle in index order: one
        burst event per cycle."""
        n_haccs = self._op_products[state.op]
        state.outstanding_haccs = n_haccs
        if not n_haccs:
            self._retire(state)
            return
        sends_per_cycle = self._sends_per_cycle
        self.busy_cycles += n_haccs / sends_per_cycle
        for first in range(0, n_haccs, sends_per_cycle):
            self.sim.schedule(first // sends_per_cycle, self._send_haccs, state,
                              first, min(first + sends_per_cycle, n_haccs))

    def _send_haccs(self, state: _InFlightMMH, first: int, stop: int) -> None:
        self.haccs_dispatched += stop - first
        self._send(self, state.op, first, stop, self._on_hacc_arrival, state)

    def _on_hacc_arrival(self, state: _InFlightMMH) -> None:
        """A HACC reached its NeuraMem; retire once the last one lands."""
        state.outstanding_haccs -= 1
        if state.outstanding_haccs > 0:
            return
        self._retire(state)

    # ------------------------------------------------------------------
    def _retire(self, state: _InFlightMMH) -> None:
        latency = self.sim.now - state.issue_time
        self.cpi_histogram.add(latency)
        self.pipelines[state.pipeline] -= 1
        self.in_flight -= 1
        self.instructions_retired += 1
        self._on_retire(self, state.op, latency)
