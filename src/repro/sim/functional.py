"""Functional (untimed) model of the NeuraChip dataflow.

The functional accelerator executes a compiled program with the same
hash-accumulate semantics as the cycle simulator — per-NeuraMem HashPads,
rolling counters, capacity-induced spills — but without any timing.  It
walks the program's HACC stream (the one the cycle simulator dispatches)
for its per-NeuraMem HACC, eviction and spill statistics; the test suite
uses it to validate dataflow correctness quickly, and the benchmark
harness for workloads too large for the cycle simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.arch.config import NeuraChipConfig
from repro.compiler.program import Program
from repro.hashing.mappings import make_seeded_mapping


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

        output = np.zeros(program.shape, dtype=np.float64)
        pads: list[dict[int, list]] = [dict() for _ in range(n_mems)]
        spilled: dict[int, float] = {}
        spilled_applied: dict[int, int] = {}
        per_mem_haccs = np.zeros(n_mems, dtype=np.int64)
        per_mem_evictions = np.zeros(n_mems, dtype=np.int64)
        arrays = program.arrays
        per_core_mmhs = np.bincount(np.arange(arrays.n_ops) % max(1, n_cores),
                                    minlength=max(1, n_cores))
        peak_occupancy = 0
        spills = 0
        capacity = config.mem.hashlines

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
                mem_index = mapping.map(tag, group=row)
                per_mem_haccs[mem_index] += 1
                pad = pads[mem_index]
                line = pad.get(tag)
                if line is None:
                    if len(pad) >= capacity:
                        victim_tag, victim = next(iter(pad.items()))
                        del pad[victim_tag]
                        spilled[victim_tag] = spilled.get(victim_tag, 0.0) + victim[0]
                        spilled_applied[victim_tag] = (
                            spilled_applied.get(victim_tag, 0) + victim[2])
                        spills += 1
                    already = spilled_applied.get(tag, 0)
                    line = pad[tag] = [value, counter - 1 - already, 1,
                                       row, col]
                else:
                    line[0] += value
                    line[1] -= 1
                    line[2] += 1
                peak_occupancy = max(peak_occupancy, len(pad))
                if line[1] <= 0:
                    value = line[0] + spilled.pop(tag, 0.0)
                    spilled_applied.pop(tag, None)
                    output[row, col] += value
                    del pad[tag]
                    per_mem_evictions[mem_index] += 1
            if arrays.op_reseed[cut]:
                mapping.reseed(int(arrays.op_k[cut]))
            lo = hi

        # Flush anything left resident (counter anomalies or spilled resumes).
        for mem_index, pad in enumerate(pads):
            for tag, line in list(pad.items()):
                value = line[0] + spilled.pop(tag, 0.0)
                output[line[3], line[4]] += value
                per_mem_evictions[mem_index] += 1
            pad.clear()

        mean = per_mem_haccs.mean() if n_mems else 0.0
        imbalance = float(per_mem_haccs.max() / mean) if mean > 0 else 0.0
        return FunctionalReport(
            output=output,
            per_mem_haccs=per_mem_haccs,
            per_mem_evictions=per_mem_evictions,
            per_core_mmhs=per_core_mmhs,
            peak_occupancy=peak_occupancy,
            spills=spills,
            total_partial_products=int(stream.tag.size),
            load_imbalance=imbalance,
            metadata={"mapping_scheme": self.mapping_scheme_name},
        )
