"""Functional (untimed) model of the NeuraChip dataflow.

The functional accelerator walks a compiled program's HACC stream (the
one the cycle simulator dispatches) through one
:class:`~repro.sim.hashpad.HashPad` per NeuraMem — the same pads, rolling
counters and capacity-induced spills the cycle simulator runs — but
without any timing, for its per-NeuraMem HACC, eviction and spill
statistics.  The test suite and the design-space ablations use it to
check the dataflow quickly; no execution backend runs it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.arch.config import NeuraChipConfig
from repro.compiler.program import Program
from repro.hashing.mappings import make_seeded_mapping
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
        mapping = make_seeded_mapping(self.mapping_scheme_name, n_mems,
                                      self.mapping_seed)

        store = SpillStore()
        pads = [HashPad(config.mem.hashlines, store) for _ in range(n_mems)]
        arrays = program.arrays
        per_core_mmhs = np.bincount(np.arange(arrays.n_ops) % max(1, n_cores),
                                    minlength=max(1, n_cores))

        # Walk the program's HACC stream one reseed segment (a row group)
        # at a time: the mapping only changes between segments, and each
        # segment's columns convert to Python scalars just before use.
        stream = program.hacc_stream()
        cuts = np.flatnonzero(arrays.op_reseed).tolist()
        if arrays.n_ops and (not cuts or cuts[-1] != arrays.n_ops - 1):
            cuts.append(arrays.n_ops - 1)  # trailing ops with no reseed
        lo = 0
        for cut in cuts:
            hi = int(stream.op_start[cut + 1])
            for tag, value, counter, row, col in zip(
                    stream.tag[lo:hi].tolist(), stream.value[lo:hi].tolist(),
                    stream.counter[lo:hi].tolist(),
                    stream.out_row[lo:hi].tolist(),
                    stream.out_col[lo:hi].tolist()):
                pads[mapping.map(tag, group=row)].apply(tag, value, counter,
                                                        row, col)
            if arrays.op_reseed[cut]:
                mapping.reseed(int(arrays.op_k[cut]))
            lo = hi
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
