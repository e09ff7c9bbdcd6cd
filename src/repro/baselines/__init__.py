"""Baseline performance models.

The paper compares NeuraChip against hardware we cannot execute in this
environment: an Intel Xeon running MKL, NVIDIA H100 / AMD MI100 GPUs running
cuSPARSE / CUSP / hipSPARSE, the OuterSPACE, SpArch and Gamma SpGEMM
accelerators, and the EnGN, GROW, HyGCN and FlowGNN GNN accelerators.

Each baseline is therefore modelled analytically: its execution time on a
workload is the maximum of a compute term (peak throughput) and a memory term
(dataflow-specific traffic divided by platform bandwidth), scaled by a
platform efficiency constant.  The efficiency constants are calibrated so
that the *suite-average* sustained throughput of each platform matches the
paper's Table 5 (SpGEMM) or the paper's reported average speedups
(Section 5.4, GNN accelerators); the per-dataset variation then emerges from
each dataflow's sensitivity to the workload's structure (memory bloat, row
lengths, degree skew).
"""

from repro.baselines.workload import SpGEMMWorkloadStats, GCNWorkloadStats
from repro.baselines.platforms import (
    BaselinePlatform,
    CPU_MKL,
    GPU_CUSP,
    GPU_CUSPARSE,
    GPU_HIPSPARSE,
    calibrate_platforms,
    spgemm_platforms,
)
from repro.baselines.accelerators import (
    ACCEL_GAMMA,
    ACCEL_OUTERSPACE,
    ACCEL_SPARCH,
    NEURACHIP_ANALYTIC_TILE4,
    NEURACHIP_ANALYTIC_TILE16,
    NEURACHIP_ANALYTIC_TILE64,
    neurachip_analytic,
    spgemm_accelerators,
)
from repro.baselines.gnn_accelerators import (
    GNNAcceleratorModel,
    gnn_accelerators,
    neurachip_gnn_model,
)

__all__ = [
    "SpGEMMWorkloadStats",
    "GCNWorkloadStats",
    "BaselinePlatform",
    "CPU_MKL",
    "GPU_CUSPARSE",
    "GPU_CUSP",
    "GPU_HIPSPARSE",
    "spgemm_platforms",
    "calibrate_platforms",
    "ACCEL_OUTERSPACE",
    "ACCEL_SPARCH",
    "ACCEL_GAMMA",
    "NEURACHIP_ANALYTIC_TILE4",
    "NEURACHIP_ANALYTIC_TILE16",
    "NEURACHIP_ANALYTIC_TILE64",
    "neurachip_analytic",
    "spgemm_accelerators",
    "GNNAcceleratorModel",
    "gnn_accelerators",
    "neurachip_gnn_model",
]
