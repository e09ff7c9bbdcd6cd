"""2-D torus on-chip network model.

NeuraCores and NeuraMems are arranged in an interleaved pattern and connected
through a 2-D torus fabric (Figure 5).  The model charges per-hop latency plus
serialisation, and approximates contention by limiting each destination port
to one flit acceptance per ``router_flit_bytes / router_link_bytes_per_cycle``
cycles.  Dimension-order hop counts with wraparound are used for distance.
"""

from __future__ import annotations

from typing import Callable

from repro.sim.engine import Simulator
from repro.sim.params import SimulationParams


class TorusNetwork:
    """A width x height torus carrying HACC and control traffic."""

    def __init__(self, sim: Simulator, params: SimulationParams,
                 width: int, height: int) -> None:
        if width <= 0 or height <= 0:
            raise ValueError("torus dimensions must be positive")
        self.sim = sim
        self.params = params
        self.width = width
        self.height = height
        self._flit_bytes, self._link_bytes, self._hop_cycles = (
            params.router_flit_bytes, params.router_link_bytes_per_cycle, params.router_hop_cycles)
        # Per-destination ingress port availability (contention approximation).
        self._ingress_next_free: dict[tuple[int, int], float] = {}
        self.flits_sent = 0
        self.total_hops = 0

    def hops(self, src: tuple[int, int], dst: tuple[int, int]) -> int:
        """Minimal dimension-order hop count on the torus."""
        dx = abs(src[0] - dst[0])
        dy = abs(src[1] - dst[1])
        dx = min(dx, self.width - dx)
        dy = min(dy, self.height - dy)
        return dx + dy

    def latency(self, src: tuple[int, int], dst: tuple[int, int],
                nbytes: int) -> float:
        """Zero-load latency for a message of ``nbytes``."""
        hops = self.hops(src, dst)
        serialization = nbytes / self.params.router_link_bytes_per_cycle
        return hops * self.params.router_hop_cycles + serialization

    def send(self, src: tuple[int, int], dst: tuple[int, int], nbytes: int,
             callback: Callable[..., None] | None = None, *args) -> float:
        """Send a message; returns the arrival time, at which
        ``callback(*args)`` runs."""
        return self.deliver(dst, self.hops(src, dst), nbytes, callback, *args)

    def deliver(self, dst: tuple[int, int], hops: int, nbytes: int,
                callback: Callable[..., None] | None = None, *args) -> float:
        """:meth:`send` for a caller that already knows the hop count."""
        flits = -(-nbytes // self._flit_bytes) or 1
        serialization = flits * self._flit_bytes / self._link_bytes
        sim = self.sim
        arrival = self._ingress_next_free.get(dst, 0.0) + serialization
        zero_load_arrival = sim.now + hops * self._hop_cycles + serialization
        if arrival < zero_load_arrival:
            arrival = zero_load_arrival
        self._ingress_next_free[dst] = arrival
        self.flits_sent += flits
        self.total_hops += hops * flits
        if callback is not None:
            # arrival >= now: the parameters are non-negative.
            sim.push(arrival, callback, args)
        return arrival

    @property
    def average_hops_per_flit(self) -> float:
        """Mean hop count weighted by flits."""
        if self.flits_sent == 0:
            return 0.0
        return self.total_hops / self.flits_sent


def interleaved_positions(n_cores: int, n_mems: int) -> tuple[dict[int, tuple[int, int]],
                                                              dict[int, tuple[int, int]],
                                                              int, int]:
    """Place cores and mems on a near-square grid in an interleaved pattern.

    Returns (core_positions, mem_positions, width, height).  Positions follow
    the checkerboard-style interleaving of Figure 5: components alternate
    along the row-major order of the grid.
    """
    total = n_cores + n_mems
    width = max(1, int(round(total ** 0.5)))
    height = -(-total // width)
    core_positions: dict[int, tuple[int, int]] = {}
    mem_positions: dict[int, tuple[int, int]] = {}
    core_idx = 0
    mem_idx = 0
    for slot in range(width * height):
        pos = (slot % width, slot // width)
        # Alternate core / mem while either kind remains.
        take_core = (slot % 2 == 0 and core_idx < n_cores) or mem_idx >= n_mems
        if take_core and core_idx < n_cores:
            core_positions[core_idx] = pos
            core_idx += 1
        elif mem_idx < n_mems:
            mem_positions[mem_idx] = pos
            mem_idx += 1
        if core_idx >= n_cores and mem_idx >= n_mems:
            break
    return core_positions, mem_positions, width, height
