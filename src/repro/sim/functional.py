"""Functional (untimed) model of the NeuraChip dataflow.

The functional accelerator walks a compiled program's HACC stream (the
one the cycle simulator dispatches), in program order, through one
:class:`~repro.sim.hashpad.HashPad` per NeuraMem — the same pads, rolling
counters and capacity-induced spills the cycle simulator runs — but
without any timing, for its per-NeuraMem HACC, eviction and spill
statistics.  Each HACC goes to the NeuraMem of the same
:func:`~repro.hashing.mappings.map_haccs` column NeuraSim indexes, so the
two models place every HACC alike under every mapping scheme.  The test
suite and the design-space ablations use it to check the dataflow
quickly; no execution backend runs it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.arch.config import NeuraChipConfig
from repro.compiler.program import Program
from repro.hashing.mappings import map_haccs
from repro.sim.hashpad import HashPad, SpillStore


@dataclass
class FunctionalReport:
    """Result of a functional execution.

    Attributes:
        output: dense output matrix produced by the hash-accumulate dataflow.
        per_mem_haccs: HACC operations handled by each NeuraMem.
        per_mem_evictions: hash-line evictions per NeuraMem.
        per_core_mmhs: MMH instructions executed per NeuraCore (dispatch by
            least-loaded approximated with round robin in program order).
        peak_occupancy: maximum resident hash lines in any NeuraMem.
        spills: capacity-induced spills across all NeuraMems.
        total_partial_products: HACCs processed (should equal the program's).
        load_imbalance: max/mean ratio of per-NeuraMem HACC counts.
    """

    output: np.ndarray
    per_mem_haccs: np.ndarray
    per_mem_evictions: np.ndarray
    per_core_mmhs: np.ndarray
    peak_occupancy: int
    spills: int
    total_partial_products: int
    load_imbalance: float
    metadata: dict = field(default_factory=dict)


class FunctionalAccelerator:
    """Untimed NeuraChip dataflow executor."""

    def __init__(self, config: NeuraChipConfig,
                 mapping_scheme: str | None = None, mapping_seed: int = 0) -> None:
        self.config = config
        self.mapping_scheme_name = mapping_scheme or config.mapping_scheme
        self.mapping_seed = mapping_seed

    def run(self, program: Program) -> FunctionalReport:
        """Execute a program functionally and return the report."""
        config = self.config
        n_mems = config.total_mems
        n_cores = config.total_cores
        store = SpillStore()
        pads = [HashPad(config.mem.hashlines, store) for _ in range(n_mems)]
        per_core_mmhs = np.bincount(
            np.arange(program.n_instructions) % max(1, n_cores),
            minlength=max(1, n_cores))

        # Walk the program's HACC stream in order, each HACC to the
        # NeuraMem NeuraSim sends it to.
        stream = program.hacc_stream()
        hacc_mem = map_haccs(self.mapping_scheme_name, stream.tag,
                             stream.out_row, n_mems, self.mapping_seed)
        for mem, tag, value, counter, row, col in zip(
                hacc_mem.tolist(), stream.tag.tolist(), stream.value.tolist(),
                stream.counter.tolist(), stream.out_row.tolist(),
                stream.out_col.tolist()):
            pads[mem].apply(tag, value, counter, row, col)
        for pad in pads:
            pad.finalize()

        per_mem_haccs = np.array([pad.accumulations + pad.insertions
                                  for pad in pads], dtype=np.int64)
        mean = per_mem_haccs.mean() if n_mems else 0.0
        imbalance = float(per_mem_haccs.max() / mean) if mean > 0 else 0.0
        return FunctionalReport(
            output=store.to_dense(program.shape),
            per_mem_haccs=per_mem_haccs,
            per_mem_evictions=np.array([pad.evictions for pad in pads],
                                       dtype=np.int64),
            per_core_mmhs=per_core_mmhs,
            peak_occupancy=max((pad.peak_occupancy for pad in pads), default=0),
            spills=sum(pad.spills for pad in pads),
            total_partial_products=int(stream.tag.size),
            load_imbalance=imbalance,
            metadata={"mapping_scheme": self.mapping_scheme_name},
        )
