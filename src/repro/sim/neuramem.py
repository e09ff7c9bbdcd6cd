"""NeuraMem: on-chip hash-based accumulation unit (Section 3.4).

Each NeuraMem owns a HashPad — an array of hash lines, each holding a TAG, a
DATA accumulator and a rolling-eviction COUNTER — and a set of hash engines
that process incoming HACC instructions (Algorithm 2).  Two eviction policies
are modelled:

* **rolling** (HACC-RE): a hash line is evicted, and its result written back
  to HBM, the moment its counter reaches zero;
* **barrier** (HACC-BE): completed lines stay resident until a computation
  barrier (a group of input columns finishing) flushes them.

The latency of a HACC instruction is measured from its dispatch by a
NeuraCore to the eviction of the hash line it contributed to, which is the
quantity Figure 15 plots; every NeuraMem of a chip records it into the one
histogram the accelerator hands it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.compiler.program import HACCMacroOp
from repro.sim.engine import Simulator
from repro.sim.params import SimulationParams
from repro.sim.stats import Histogram

#: Histogram shape of Figure 15 (bins of 50 cycles, 0 to 1000+).
HACC_HIST_BIN_WIDTH = 50
HACC_HIST_BINS = 20


@dataclass
class HashLine:
    """One TAG/DATA/COUNTER entry of the HashPad."""

    tag: int
    value: float
    remaining: int
    out_row: int
    out_col: int
    writeback_addr: int
    dispatch_times: list[float] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        """True once every contributing partial product has been accumulated."""
        return self.remaining <= 0


class NeuraMem:
    """Hash-based accumulation unit with a bounded HashPad."""

    def __init__(self, mem_id: int, position: tuple[int, int], sim: Simulator,
                 params: SimulationParams, cpi_histogram: Histogram,
                 hashlines: int, hash_engines: int,
                 eviction_mode: str = "rolling",
                 writeback: Callable[[int, int], None] | None = None,
                 on_evict: Callable[[HashLine, float], None] | None = None,
                 on_spill: Callable[[HashLine, float], None] | None = None,
                 on_applied: Callable[[], None] | None = None,
                 resume_lookup: Callable[[int], int] | None = None) -> None:
        if eviction_mode not in ("rolling", "barrier"):
            raise ValueError("eviction_mode must be 'rolling' or 'barrier'")
        self.mem_id = mem_id
        self.position = position
        self.sim = sim
        self.params = params
        self.cpi_histogram = cpi_histogram
        self.capacity = int(hashlines)
        self.eviction_mode = eviction_mode
        self._writeback = writeback
        self._on_evict = on_evict
        self._on_spill = on_spill
        self._on_applied = on_applied
        self._resume_lookup = resume_lookup
        self._engine_next_free = [0.0] * max(1, hash_engines)
        self._pad: dict[int, HashLine] = {}
        self._completed: dict[int, HashLine] = {}
        self.busy_cycles = 0.0
        self.accumulations = 0
        self.insertions = 0
        self.evictions = 0
        self.spills = 0
        self.peak_occupancy = 0
        self.haccs_received = 0
        self.incomplete_lines = 0

    # ------------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        """Currently allocated hash lines (resident + completed-but-unevicted)."""
        return len(self._pad) + len(self._completed)

    # ------------------------------------------------------------------
    def receive_hacc(self, hacc: HACCMacroOp, dispatch_time: float) -> None:
        """Accept a HACC instruction arriving from the NoC.

        The instruction queues for the least-busy hash engine; Algorithm 2 is
        applied when the engine becomes available.
        """
        self.haccs_received += 1
        engine = min(range(len(self._engine_next_free)),
                     key=self._engine_next_free.__getitem__)
        start = max(self.sim.now, self._engine_next_free[engine])
        latency = self.params.hash_lookup_cycles + self.params.hash_accumulate_cycles
        self._engine_next_free[engine] = start + latency
        self.busy_cycles += latency
        self.sim.schedule_at(start + latency, self._apply, hacc, dispatch_time)

    # ------------------------------------------------------------------
    def _apply(self, hacc: HACCMacroOp, dispatch_time: float) -> None:
        """Algorithm 2: hash, accumulate / insert, decrement, maybe evict."""
        line = self._pad.get(hacc.tag)
        if line is not None:
            line.value += hacc.value
            line.remaining -= 1
            line.dispatch_times.append(dispatch_time)
            self.accumulations += 1
        else:
            if self.occupancy >= self.capacity:
                self._spill_victim()
            already_applied = 0
            if self._resume_lookup is not None:
                # If this TAG was spilled earlier, resume its counter where it
                # left off (the spilled partial value is merged at eviction).
                already_applied = self._resume_lookup(hacc.tag)
            line = HashLine(tag=hacc.tag, value=hacc.value,
                            remaining=hacc.counter - 1 - already_applied,
                            out_row=hacc.out_row, out_col=hacc.out_col,
                            writeback_addr=hacc.writeback_addr,
                            dispatch_times=[dispatch_time])
            self._pad[hacc.tag] = line
            self.insertions += 1
        self.peak_occupancy = max(self.peak_occupancy, self.occupancy)
        if self._on_applied is not None:
            self._on_applied()

        if line.complete:
            del self._pad[hacc.tag]
            if self.eviction_mode == "rolling":
                self._evict(line)
            else:
                self._completed[hacc.tag] = line

    # ------------------------------------------------------------------
    def _spill_victim(self) -> None:
        """HashPad overflow: spill an incomplete line to HBM (collision routine).

        The partial value is written back and re-fetched when the TAG next
        appears; the accelerator keeps the spilled partials so numerical
        correctness is preserved.
        """
        if self._completed:
            # Prefer evicting a completed line: it is free capacity.
            tag, line = next(iter(self._completed.items()))
            del self._completed[tag]
            self._evict(line)
            return
        if not self._pad:
            return
        tag, line = next(iter(self._pad.items()))
        del self._pad[tag]
        self.spills += 1
        self.busy_cycles += self.params.hash_collision_penalty_cycles
        if self._writeback is not None:
            self._writeback(line.writeback_addr, self.params.writeback_bytes)
        if self._on_spill is not None:
            self._on_spill(line, self.sim.now)
        self._record_hacc_latencies(line, self.sim.now)

    # ------------------------------------------------------------------
    def _evict(self, line: HashLine) -> None:
        """Rolling/barrier eviction: write the accumulated value back to HBM."""
        evict_time = self.sim.now + self.params.hash_eviction_cycles
        self.evictions += 1
        self.busy_cycles += self.params.hash_eviction_cycles
        if self._writeback is not None:
            self._writeback(line.writeback_addr, self.params.writeback_bytes)
        if self._on_evict is not None:
            self._on_evict(line, evict_time)
        self._record_hacc_latencies(line, evict_time)

    def _record_hacc_latencies(self, line: HashLine, end_time: float) -> None:
        for dispatch_time in line.dispatch_times:
            self.cpi_histogram.add(end_time - dispatch_time)

    # ------------------------------------------------------------------
    def barrier_flush(self) -> int:
        """Evict every completed-but-resident line (barrier eviction policy)."""
        flushed = 0
        for tag in list(self._completed):
            line = self._completed.pop(tag)
            self._evict(line)
            flushed += 1
        return flushed

    def finalize(self) -> int:
        """End-of-program flush; also detects lines that never completed."""
        flushed = self.barrier_flush()
        if self._pad:
            # Remaining lines indicate a counter mismatch; evict them anyway so
            # the output is complete, and record the anomaly.
            self.incomplete_lines += len(self._pad)
            for tag in list(self._pad):
                line = self._pad.pop(tag)
                self._evict(line)
                flushed += 1
        return flushed
