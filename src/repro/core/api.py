"""The NeuraChip chip object: configuration, compile and power primitives.

Workloads run through the :class:`~repro.core.session.Session` API::

    from repro.core import Session, SpGEMMSpec
    from repro.datasets import load_dataset

    dataset = load_dataset("facebook", max_nodes=256)
    with Session("Tile-16") as session:
        result = session.run(SpGEMMSpec(a=dataset.adjacency_csr()))
    print(result.metrics["cycles"], result.provenance.wall_time_s)

:class:`NeuraChip` is the *chip* a session binds to: one configuration plus
the compile step, the execution context handed to backends, and the
activity-driven power model.
"""

from __future__ import annotations

import numpy as np

from repro.arch.config import NeuraChipConfig, get_config
from repro.backends import ExecutionContext
from repro.compiler import compile_spgemm
from repro.compiler.program import Program
from repro.gnn.gcn import GCNLayer
from repro.power.model import PowerModel
from repro.sim.accelerator import SimulationReport
from repro.sim.params import SimulationParams
from repro.sparse.convert import coo_to_csr, csr_to_csc, dense_to_coo
from repro.sparse.coo import COOMatrix
from repro.sparse.csc import CSCMatrix
from repro.sparse.csr import CSRMatrix


def _as_csr(matrix) -> CSRMatrix:
    """Accept CSR/CSC/COO/dense and return CSR."""
    if isinstance(matrix, CSRMatrix):
        return matrix
    if isinstance(matrix, CSCMatrix):
        return coo_to_csr(matrix.to_coo())
    if isinstance(matrix, COOMatrix):
        return coo_to_csr(matrix)
    if isinstance(matrix, np.ndarray):
        return coo_to_csr(dense_to_coo(matrix))
    raise TypeError(f"unsupported matrix type {type(matrix)!r}")


class NeuraChip:
    """The chip object: one configuration plus compile / context / power
    primitives.  Workload orchestration lives in
    :class:`~repro.core.session.Session`."""

    def __init__(self, config: str | NeuraChipConfig = "Tile-16",
                 mapping_scheme: str | None = None,
                 eviction_mode: str = "rolling",
                 params: SimulationParams | None = None,
                 mapping_seed: int = 0) -> None:
        self.config = get_config(config) if isinstance(config, str) else config
        self.mapping_scheme = mapping_scheme or self.config.mapping_scheme
        self.eviction_mode = eviction_mode
        self.params = params or SimulationParams()
        self.mapping_seed = mapping_seed
        self._power_model = PowerModel()

    # ------------------------------------------------------------------
    def compile(self, a_matrix, b_matrix=None,
                tile_size: int | None = None, source: str = "spgemm") -> Program:
        """Compile C = A @ B (default B = A) into a NeuraChip program."""
        a_csr = _as_csr(a_matrix)
        b_csr = _as_csr(b_matrix) if b_matrix is not None else a_csr
        a_csc = csr_to_csc(a_csr)
        return compile_spgemm(a_csc, b_csr,
                              tile_size=tile_size or self.config.mmh_tile_size,
                              source=source)

    # ------------------------------------------------------------------
    def _context(self) -> ExecutionContext:
        """Execution context describing this chip for a backend."""
        return ExecutionContext(config=self.config, params=self.params,
                                mapping_scheme=self.mapping_scheme,
                                mapping_seed=self.mapping_seed,
                                eviction_mode=self.eviction_mode)

    # ------------------------------------------------------------------
    def _combination_cycles(self, n_nodes: int, layer: GCNLayer) -> float:
        """Dense combination phase (``n_nodes`` rows times ``layer``'s
        weights) modelled at the chip's peak throughput, bounded by HBM
        streaming of the aggregated features."""
        flops = 2 * n_nodes * layer.in_dim * layer.out_dim
        compute_cycles = flops / max(self.config.peak_gflops, 1e-9)
        traffic = 4.0 * (n_nodes * (layer.in_dim + layer.out_dim))
        memory_cycles = traffic / max(self.config.peak_bandwidth_bytes_per_cycle, 1e-9)
        return max(compute_cycles, memory_cycles)

    @staticmethod
    def _activity_from_report(report: SimulationReport) -> dict[str, float]:
        """Per-component activity factors derived from a simulation report."""
        return {
            "NeuraCore": min(1.0, report.core_utilization * 4.0),
            "NeuraMem": min(1.0, report.mem_utilization * 2.0),
            "Router": min(1.0, report.noc_flits / max(report.cycles, 1.0)),
            "Memory Controller": min(1.0, report.avg_inflight_mem / 16.0),
        }

    def _estimate_power(self, report: SimulationReport | None) -> tuple[float, float]:
        """Average power and energy of a run, from the simulator's activity."""
        if report is None:
            return 0.0, 0.0
        activity = self._activity_from_report(report)
        power = self._power_model.power(self.config, activity).total_power_w
        seconds = report.cycles / (self.config.frequency_ghz * 1e9)
        return power, power * seconds

    # ------------------------------------------------------------------
    def power_breakdown(self, report: SimulationReport | None = None):
        """Table 4 style area/power breakdown for this configuration."""
        activity = self._activity_from_report(report) if report is not None else None
        return self._power_model.combined(self.config, activity)
