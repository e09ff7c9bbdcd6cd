"""Memory hierarchy model: per-tile memory controllers and HBM channels.

NeuraChip attaches one HBM channel to each of its eight tiles (Figure 5).
The controller coalesces read requests that fall into the same cache line
(Step 3 of the on-chip dataflow) and forwards them to a channel model with a
small number of banks, a row-buffer hit/miss latency, and a peak per-channel
data rate.  Aggregate bandwidth across the eight channels matches the
128 GB/s the paper assumes.
"""

from __future__ import annotations

from typing import Callable

from repro.sim.engine import Simulator
from repro.sim.params import SimulationParams
from repro.sim.stats import LevelTracker


class HBMChannel:
    """A single HBM pseudo-channel with banked row buffers."""

    def __init__(self, sim: Simulator, params: SimulationParams,
                 channel_id: int) -> None:
        self.sim = sim
        self.params = params
        self.channel_id = channel_id
        self._bank_next_free = [0.0] * params.hbm_banks_per_channel
        self._bank_open_row = [-1] * params.hbm_banks_per_channel
        self._data_bus_next_free = 0.0
        self._row_bytes, self._banks = params.hbm_row_bytes, params.hbm_banks_per_channel
        self._hit_cycles, self._miss_cycles = params.hbm_row_hit_cycles, params.hbm_row_miss_cycles
        self._bytes_per_cycle = params.hbm_bytes_per_cycle_per_channel
        self.bytes_read = 0
        self.bytes_written = 0
        self.row_hits = 0
        self.row_misses = 0
        self.busy_cycles = 0.0

    def access(self, addr: int, nbytes: int, is_write: bool,
               callback: Callable[..., None] | None, *args) -> float:
        """Issue one DRAM access; returns the completion time, at which
        ``callback(*args)`` runs.

        The access waits for its bank and for the channel data bus, pays a
        row-buffer hit or miss latency, then streams ``nbytes`` at the
        channel's peak data rate.
        """
        transfer = nbytes / self._bytes_per_cycle
        if is_write:
            # Writes are posted: the controller's write buffer absorbs them and
            # drains over the data bus without disturbing the read row buffers.
            bus_start = max(self.sim.now, self._data_bus_next_free)
            finish = bus_start + transfer
            self._data_bus_next_free = finish
            self.busy_cycles += transfer
            self.bytes_written += nbytes
            if callback is not None:
                self.sim.schedule_at(finish, callback, *args)
            return finish
        row = addr // self._row_bytes
        bank = row % self._banks
        if self._bank_open_row[bank] == row:
            access_latency = self._hit_cycles
            self.row_hits += 1
        else:
            access_latency = self._miss_cycles
            self._bank_open_row[bank] = row
            self.row_misses += 1
        # Banks overlap their access latencies; the shared data bus is only
        # occupied for the transfer itself, which sets the channel's peak rate.
        bank_ready = max(self.sim.now, self._bank_next_free[bank]) + access_latency
        bus_start = max(bank_ready, self._data_bus_next_free)
        finish = bus_start + transfer
        self._bank_next_free[bank] = finish
        self._data_bus_next_free = bus_start + transfer
        self.busy_cycles += transfer
        self.bytes_read += nbytes
        if callback is not None:
            self.sim.schedule_at(finish, callback, *args)
        return finish


#: A read waiting for its lines, then ``callback(*args)``: a list (built
#: without a Python call) ``[lines still missing, callback, args]``.
_Read = list


class MemoryController:
    """Per-tile memory controller with coalescing and a small read buffer.

    Requests to the same ``coalesce_line_bytes``-aligned line that are still
    outstanding are merged into a single DRAM access, and recently returned
    lines are kept in a small LRU read buffer (Step 3 of Figure 5: the
    controller coalesces requests and reorganises transactions to enhance
    spatial locality).  All waiters are notified when the line is available.
    Outstanding reads are tracked in ``in_flight``, the level shared by all
    controllers of a memory system.
    """

    def __init__(self, sim: Simulator, params: SimulationParams, tile_id: int,
                 channel: HBMChannel, in_flight: LevelTracker) -> None:
        self.sim = sim
        self.params = params
        self.tile_id = tile_id
        self.channel = channel
        self.in_flight = in_flight
        self._line_bytes, self._cycles = params.coalesce_line_bytes, params.memory_controller_cycles
        # line address -> reads waiting for that line.
        self._pending_lines: dict[int, list[_Read]] = {}
        # LRU of recently fetched lines (insertion ordered dict).
        self._line_buffer: dict[int, bool] = {}
        self.reads_received = 0
        self.reads_coalesced = 0
        self.reads_buffered = 0
        self.writes_received = 0

    def read(self, addr: int, nbytes: int, callback: Callable[..., None],
             *args) -> None:
        """Issue a read; ``callback(*args)`` runs when the data is available."""
        sim, buffer, pending = self.sim, self._line_buffer, self._pending_lines
        self.reads_received += 1
        self.in_flight.change(sim.now, +1)
        line_bytes = self._line_bytes
        first_line = addr // line_bytes
        last_line = (addr + (nbytes if nbytes > 1 else 1) - 1) // line_bytes
        request: _Read = [last_line - first_line + 1, callback, args]
        for line in range(first_line, last_line + 1):
            if line in buffer:
                # Read-buffer hit: serviced at controller latency, no DRAM trip.
                del buffer[line]
                buffer[line] = True  # refresh LRU position
                self.reads_buffered += 1
                sim.schedule(self._cycles, self._line_ready, request)
            elif line in pending:
                # Coalesced with an outstanding request for the same line.
                pending[line].append(request)
                self.reads_coalesced += 1
            else:
                pending[line] = [request]
                sim.schedule(self._cycles, self.channel.access, line * line_bytes,
                             line_bytes, False, self._line_filled, line)

    def _line_ready(self, request: _Read) -> None:
        """One line of ``request`` arrived; complete it after the last."""
        request[0] -= 1
        if request[0] == 0:
            self.in_flight.change(self.sim.now, -1)
            request[1](*request[2])

    def _insert_buffer_line(self, line: int) -> None:
        capacity = self.params.controller_buffer_lines
        if capacity <= 0:
            return
        self._line_buffer[line] = True
        while len(self._line_buffer) > capacity:
            self._line_buffer.pop(next(iter(self._line_buffer)))

    def _line_filled(self, line: int) -> None:
        """A DRAM line read completed: buffer it and serve its waiters."""
        self._insert_buffer_line(line)
        for request in self._pending_lines.pop(line, []):
            self._line_ready(request)

    def write(self, addr: int, nbytes: int) -> None:
        """Issue a posted write."""
        self.writes_received += 1
        self.sim.schedule(self._cycles, self.channel.access, addr, nbytes, True,
                          None)


class MemorySystem:
    """All memory controllers and channels, with address interleaving.

    Addresses are interleaved across channels at ``coalesce_line_bytes``
    granularity so contiguous operand streams load-balance over the eight
    HBM channels.  ``in_flight`` tracks the reads outstanding at all
    controllers together.
    """

    def __init__(self, sim: Simulator, params: SimulationParams,
                 n_channels: int) -> None:
        self.sim = sim
        self.params = params
        self.in_flight = LevelTracker()
        self._line_bytes = params.coalesce_line_bytes
        self.channels = [HBMChannel(sim, params, i) for i in range(n_channels)]
        self.controllers = [MemoryController(sim, params, i, self.channels[i],
                                             self.in_flight)
                            for i in range(n_channels)]

    def controller_for(self, addr: int) -> MemoryController:
        """The controller owning an address under the interleaving scheme."""
        return self.controllers[addr // self._line_bytes % len(self.controllers)]

    def read(self, addr: int, nbytes: int, callback: Callable[..., None],
             *args) -> None:
        """Route a read request to the owning controller."""
        self.controller_for(addr).read(addr, nbytes, callback, *args)

    def write(self, addr: int, nbytes: int) -> None:
        """Route a write request to the owning controller."""
        self.controllers[addr // self._line_bytes % len(self.controllers)].write(addr, nbytes)

    @property
    def total_bytes_read(self) -> int:
        return sum(c.bytes_read for c in self.channels)

    @property
    def total_bytes_written(self) -> int:
        return sum(c.bytes_written for c in self.channels)

    @property
    def total_traffic_bytes(self) -> int:
        return self.total_bytes_read + self.total_bytes_written
