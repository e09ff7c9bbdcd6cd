"""Simulation timing parameters.

All latencies are expressed in clock cycles at the configuration's frequency
(1 GHz for every NeuraChip configuration).  The defaults approximate the
magnitudes implied by the paper (HBM access of a few tens of nanoseconds,
single-cycle hash lookups, two-cycle router hops) and can be overridden for
sensitivity studies.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import inf

#: Fields the timing model divides by: they must be > 0, the others >= 0.
_DIVISORS = {"router_flit_bytes", "router_link_bytes_per_cycle", "coalesce_line_bytes",
             "hbm_row_bytes", "hbm_banks_per_channel", "hbm_bytes_per_cycle_per_channel"}


@dataclass(frozen=True)
class SimulationParams:
    """Latency and structural parameters of the NeuraSim timing model.

    Attributes:
        decode_cycles: MMH decode latency in a NeuraCore pipeline.
        register_alloc_cycles: dynamic register allocation latency.
        address_gen_cycles: address generation latency per MMH.
        multiply_cycles: latency of one multiply batch in the pipeline.
        registers_per_mmh: register-file slots one in-flight MMH occupies.
        hacc_sends_per_cycle: HACC instructions a NeuraCore can inject into
            the NoC per cycle (bounded by its ports).
        hash_lookup_cycles: HashPad TAG comparison latency.
        hash_accumulate_cycles: accumulation (adder) latency.
        hash_eviction_cycles: hash-line eviction routine latency.
        hash_collision_penalty_cycles: extra latency when the HashPad is full
            and a line must be spilled to HBM.
        router_hop_cycles: per-hop latency of the 2-D torus.
        router_flit_bytes: bytes carried per flit (128-bit data bus).
        router_link_bytes_per_cycle: ingress bandwidth of each component port.
        memory_controller_cycles: fixed controller pipeline latency.
        coalesce_line_bytes: request-coalescing granularity.
        controller_buffer_lines: recently-fetched lines each memory controller
            keeps in its read buffer (the paper's controllers reorganise and
            buffer transactions to enhance spatial locality); repeated operand
            fetches within a row group hit this buffer instead of DRAM.
        hbm_row_bytes: DRAM row-buffer size per bank.
        hbm_banks_per_channel: banks per HBM channel.
        hbm_row_hit_cycles: access latency on a row-buffer hit.
        hbm_row_miss_cycles: access latency on a row-buffer miss.
        hbm_bytes_per_cycle_per_channel: peak data rate per channel
            (128 GB/s across 8 channels at 1 GHz = 16 B/cycle/channel).
        dispatch_width: MMH instructions the Dispatcher can issue per cycle.
        barrier_interval_columns: for barrier-based eviction, the number of
            completed input columns between HashPad flushes.
        writeback_bytes: bytes written to HBM per evicted hash line.
    """

    decode_cycles: int = 1
    register_alloc_cycles: int = 1
    address_gen_cycles: int = 1
    multiply_cycles: int = 2
    registers_per_mmh: int = 2
    hacc_sends_per_cycle: int = 4

    hash_lookup_cycles: int = 1
    hash_accumulate_cycles: int = 1
    hash_eviction_cycles: int = 2
    hash_collision_penalty_cycles: int = 4

    router_hop_cycles: int = 2
    router_flit_bytes: int = 16
    router_link_bytes_per_cycle: int = 16

    memory_controller_cycles: int = 6
    coalesce_line_bytes: int = 32
    controller_buffer_lines: int = 256
    hbm_row_bytes: int = 1024
    hbm_banks_per_channel: int = 16
    hbm_row_hit_cycles: int = 18
    hbm_row_miss_cycles: int = 36
    hbm_bytes_per_cycle_per_channel: float = 16.0

    dispatch_width: int = 8
    barrier_interval_columns: int = 8
    writeback_bytes: int = 8

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if not (0 < value < inf if name in _DIVISORS else 0 <= value < inf):
                bound = "> 0" if name in _DIVISORS else ">= 0"
                raise ValueError(f"{name} must be finite and {bound}, got {value}")

    def scaled(self, **overrides) -> "SimulationParams":
        """Return a copy with the given fields overridden."""
        return replace(self, **overrides)
