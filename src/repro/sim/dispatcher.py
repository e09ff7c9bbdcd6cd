"""Dispatcher: issues MMH instructions to NeuraCores (Step 1 of Figure 5).

The Dispatcher walks the compiled program in order and pushes MMH
instructions — op indices into the program's columns — onto whichever
NeuraCore has the most free capacity, issuing up to ``dispatch_width``
instructions per cycle.  When every core's instruction buffer is full it
sleeps until a core retires an instruction.
"""

from __future__ import annotations

from math import inf
from typing import Sequence

from repro.sim.engine import Simulator
from repro.sim.neuracore import NeuraCore
from repro.sim.params import SimulationParams


class Dispatcher:
    """Push-based task distribution onto the NeuraCores."""

    def __init__(self, sim: Simulator, params: SimulationParams,
                 cores: Sequence[NeuraCore]) -> None:
        self.sim = sim
        self.params = params
        self.cores = list(cores)
        # Cores with a free slot: "all full" is one compare, not a scan.
        self._free_cores = sum(c.in_flight < c.capacity for c in self.cores)
        self._width = params.dispatch_width
        self._n_ops = 0
        self._next_index = 0
        self._issue_scheduled = False
        self._waiting_for_slot = False
        self.instructions_issued = 0

    # ------------------------------------------------------------------
    def load(self, n_ops: int) -> None:
        """Load a program of ``n_ops`` MMH instructions for issue, in
        program order."""
        self._n_ops = n_ops
        self._next_index = 0
        self.instructions_issued = 0

    @property
    def done(self) -> bool:
        """True when every instruction has been issued."""
        return self._next_index >= self._n_ops

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin issuing at cycle 0."""
        self._schedule_issue(0.0)

    def _schedule_issue(self, delay: float) -> None:
        if self._issue_scheduled or self.done:
            return
        self._issue_scheduled = True
        self.sim.schedule(delay, self._issue_cycle)

    def _issue_cycle(self) -> None:
        """Issue up to ``dispatch_width`` instructions this cycle."""
        self._issue_scheduled = False
        stop = min(self._next_index + self._width, self._n_ops)
        while self._next_index < stop:
            core = self._least_loaded_core()
            if core is None:
                self._waiting_for_slot = True
                return
            core.issue(self._next_index)
            if core.in_flight == core.capacity:
                self._free_cores -= 1
            self._next_index += 1
            self.instructions_issued += 1
        self._schedule_issue(1.0)

    def _least_loaded_core(self) -> NeuraCore | None:
        """The first least-loaded core among those that can accept, or None."""
        if not self._free_cores:
            return None
        best, least = None, inf
        for core in self.cores:
            load = core.in_flight
            if load < least and load < core.capacity:
                best, least = core, load
        return best

    # ------------------------------------------------------------------
    def notify_slot_free(self, core: NeuraCore) -> None:
        """``core`` retired an instruction; resume issuing if we were
        blocked."""
        if core.in_flight == core.capacity - 1:
            self._free_cores += 1
        if self._waiting_for_slot and not self.done:
            self._waiting_for_slot = False
            self._schedule_issue(0.0)
