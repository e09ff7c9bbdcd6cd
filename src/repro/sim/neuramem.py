"""NeuraMem: on-chip hash-based accumulation unit (Section 3.4).

Each NeuraMem owns a :class:`~repro.sim.hashpad.HashPad`, which runs
Algorithm 2 (accumulate or insert, rolling or barrier eviction, spills),
and a set of hash engines that process incoming HACC instructions.  The
NeuraMem adds only what is timed: a HACC queues for the least-busy hash
engine, and every line the pad evicts or spills costs engine cycles and
an HBM write-back.

The latency of a HACC instruction is measured from its dispatch by a
NeuraCore to the eviction (or spill) of the hash line it contributed to,
which is the quantity Figure 15 plots; every NeuraMem of a chip records
it into the one histogram the accelerator hands it.
"""

from __future__ import annotations

from typing import Callable

from repro.sim.engine import Simulator
from repro.sim.hashpad import HashLine, HashPad
from repro.sim.params import SimulationParams
from repro.sim.stats import Histogram

#: Histogram shape of Figure 15 (bins of 50 cycles, 0 to 1000+).
HACC_HIST_BIN_WIDTH = 50
HACC_HIST_BINS = 20


class NeuraMem:
    """Timed front end of one HashPad: hash engines and write-backs."""

    def __init__(self, mem_id: int, position: tuple[int, int], sim: Simulator,
                 params: SimulationParams, cpi_histogram: Histogram,
                 pad: HashPad, hash_engines: int,
                 writeback: Callable[[int, int], None] | None = None,
                 on_applied: Callable[[], None] | None = None) -> None:
        self.mem_id = mem_id
        self.position = position
        self.sim = sim
        self.params = params
        self.cpi_histogram = cpi_histogram
        self.pad = pad
        self._writeback = writeback
        self._on_applied = on_applied
        self._engine_next_free = [0.0] * max(1, hash_engines)
        self._engine_cycles = params.hash_lookup_cycles + params.hash_accumulate_cycles
        self._eviction_cycles, self._writeback_bytes = (params.hash_eviction_cycles,
                                                        params.writeback_bytes)
        self.busy_cycles = 0.0
        self.haccs_received = 0

    # ------------------------------------------------------------------
    def receive_hacc(self, tag: int, value: float, counter: int, out_row: int,
                     out_col: int, writeback_addr: int,
                     dispatch_time: float) -> None:
        """Accept a HACC instruction (its fields) arriving from the NoC.

        The instruction queues for the least-busy hash engine; Algorithm 2 is
        applied when the engine becomes available.
        """
        self.haccs_received += 1
        sim, engine_free = self.sim, self._engine_next_free
        free = min(engine_free)
        end = (free if free > sim.now else sim.now) + self._engine_cycles
        engine_free[engine_free.index(free)] = end
        self.busy_cycles += self._engine_cycles
        sim.push(end, self._apply, (tag, value, counter, out_row, out_col,
                                    writeback_addr, dispatch_time))

    # ------------------------------------------------------------------
    def _apply(self, tag: int, value: float, counter: int, out_row: int,
               out_col: int, writeback_addr: int, dispatch_time: float) -> None:
        """Run the HACC through the pad and charge for the lines it moved."""
        victim, evicted = self.pad.apply(tag, value, counter, out_row, out_col,
                                         writeback_addr, dispatch_time)
        if victim is not None and not victim.complete:
            # Spill: the collision routine writes the partial to HBM.
            penalty = self.params.hash_collision_penalty_cycles
            self._charge(victim, penalty, self.sim.now)
        elif victim is not None:
            self._evicted(victim)
        if self._on_applied is not None:
            self._on_applied()
        if evicted is not None:
            self._evicted(evicted)

    def _evicted(self, line: HashLine) -> None:
        self._charge(line, self._eviction_cycles,
                     self.sim.now + self._eviction_cycles)

    def _charge(self, line: HashLine, cycles: int, end_time: float) -> None:
        """Engine cycles, the HBM write-back and the line's HACC latencies."""
        self.busy_cycles += cycles
        if self._writeback is not None:
            self._writeback(line.writeback_addr, self._writeback_bytes)
        for dispatch_time in line.dispatch_times:
            self.cpi_histogram.add(end_time - dispatch_time)

    # ------------------------------------------------------------------
    def barrier_flush(self) -> int:
        """Evict every parked line (barrier eviction policy)."""
        return self._evicted_all(self.pad.barrier_flush())

    def finalize(self) -> int:
        """End-of-program flush, incomplete lines included."""
        return self._evicted_all(self.pad.finalize())

    def _evicted_all(self, lines: list[HashLine]) -> int:
        for line in lines:
            self._evicted(line)
        return len(lines)
