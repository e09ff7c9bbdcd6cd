"""The HashPad: Algorithm 2's accumulate-or-insert, without timing.

A HACC hashes its TAG and either accumulates into the matching hash line
(TAG, DATA, COUNTER) or inserts a new one; the counter counts down, and
at zero the line is complete.  Under **rolling** eviction (HACC-RE) a
complete line is evicted at once; under **barrier** eviction (HACC-BE)
it stays parked until a computation barrier flushes it.  A full pad
evicts a parked line if it has one, else spills its oldest line to HBM.
A chip's pads share one :class:`SpillStore` (the HBM side), so a spilled
TAG resumes its counter where it left off — on any pad — and its partial
is merged back at eviction.

NeuraSim's NeuraMems charge hash-engine, write-back and latency costs for
the lines each call returns; the functional model runs the same pads
untimed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(slots=True)
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


class SpillStore:
    """One run's spilled partials (value and HACCs applied, by TAG) and
    evicted outputs (by ``(row, col)``), shared by a chip's HashPads."""

    def __init__(self) -> None:
        self.spilled_value: dict[int, float] = {}
        self.spilled_applied: dict[int, int] = {}
        self.output: dict[tuple[int, int], float] = {}

    def spill(self, line: HashLine) -> None:
        tag = line.tag
        self.spilled_value[tag] = self.spilled_value.get(tag, 0.0) + line.value
        self.spilled_applied[tag] = (self.spilled_applied.get(tag, 0)
                                     + len(line.dispatch_times))

    def evict(self, line: HashLine) -> None:
        """Merge the line's spilled partial back and accumulate it into the
        output."""
        key = (line.out_row, line.out_col)
        value = line.value + self.spilled_value.pop(line.tag, 0.0)
        self.spilled_applied.pop(line.tag, None)
        self.output[key] = self.output.get(key, 0.0) + value

    def to_dense(self, shape: tuple[int, int]) -> np.ndarray:
        """The output as a dense matrix (elements never evicted are 0)."""
        dense = np.zeros(shape, dtype=np.float64)
        if self.output:
            keys = np.array(list(self.output), dtype=np.int64)
            dense[keys[:, 0], keys[:, 1]] = list(self.output.values())
        return dense


class HashPad:
    """One NeuraMem's bounded HashPad; counts its own events."""

    def __init__(self, capacity: int, store: SpillStore,
                 eviction_mode: str = "rolling") -> None:
        if eviction_mode not in ("rolling", "barrier"):
            raise ValueError("eviction_mode must be 'rolling' or 'barrier'")
        self.capacity = int(capacity)
        self.store = store
        self.barrier = eviction_mode == "barrier"
        self.lines: dict[int, HashLine] = {}   # incomplete, oldest first
        self.parked: dict[int, HashLine] = {}  # complete, awaiting a barrier
        self.accumulations = self.insertions = 0
        self.evictions = self.spills = self.incomplete_lines = 0
        self.peak_occupancy = 0

    @property
    def occupancy(self) -> int:
        return len(self.lines) + len(self.parked)

    def apply(self, tag: int, value: float, counter: int, out_row: int,
              out_col: int, writeback_addr: int = 0,
              dispatch_time: float = 0.0
              ) -> tuple[HashLine | None, HashLine | None]:
        """Apply one HACC.  Returns ``(victim, evicted)``: the line that
        left to make room (evicted if complete, else spilled) and the
        HACC's own line if it completed and was evicted, or ``None``."""
        victim = None
        line = self.lines.get(tag)
        if line is not None:
            line.value += value
            line.remaining -= 1
            line.dispatch_times.append(dispatch_time)
            self.accumulations += 1
        else:
            if self.occupancy >= self.capacity:
                victim = self._make_room()
            line = HashLine(tag, value,
                            counter - 1 - self.store.spilled_applied.get(tag, 0),
                            out_row, out_col, writeback_addr, [dispatch_time])
            self.lines[tag] = line
            self.insertions += 1  # only an insert can raise the peak
            self.peak_occupancy = max(self.peak_occupancy, self.occupancy)
        if line.remaining > 0:
            return victim, None
        del self.lines[tag]
        if self.barrier:
            self.parked[tag] = line
            return victim, None
        self._evict(line)
        return victim, line

    def _make_room(self) -> HashLine | None:
        if self.parked:
            line = self.parked.pop(next(iter(self.parked)))
            self._evict(line)
            return line
        if not self.lines:
            return None
        line = self.lines.pop(next(iter(self.lines)))
        self.spills += 1
        self.store.spill(line)
        return line

    def _evict(self, line: HashLine) -> None:
        self.evictions += 1
        self.store.evict(line)

    def barrier_flush(self) -> list[HashLine]:
        """Evict every parked line; returns them in eviction order."""
        flushed = list(self.parked.values())
        self.parked.clear()
        for line in flushed:
            self._evict(line)
        return flushed

    def finalize(self) -> list[HashLine]:
        """End-of-program flush: the parked lines, then every line that
        never completed (a counter mismatch, counted in
        ``incomplete_lines``), in eviction order."""
        incomplete = list(self.lines.values())
        self.lines.clear()
        self.incomplete_lines += len(incomplete)
        flushed = self.barrier_flush()
        for line in incomplete:
            self._evict(line)
        return flushed + incomplete
