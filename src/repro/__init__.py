"""NeuraChip reproduction library.

A from-scratch Python implementation of the NeuraChip hash-based decoupled
spatial GNN accelerator (Shivdikar et al., ISCA 2024) together with every
substrate its evaluation depends on: sparse formats and a SpGEMM oracle,
synthetic dataset generators, mapping algorithms, the NeuraCompiler, the
NeuraSim cycle-level simulator, analytic baseline models, and the power/area
model.  The README's Layout table maps each subpackage to its role;
``benchmarks/`` regenerates every table and figure of the paper and checks
it against the paper's reported shape.
"""

from repro.arch import (
    GNN_TILE16,
    NeuraChipConfig,
    TILE16,
    TILE4,
    TILE64,
    get_config,
)
from repro.backends import (
    ChipTopology,
    available_backends,
    get_backend,
)
from repro.core import (
    BatchSpec,
    GCNLayerSpec,
    GNNModelSpec,
    Provenance,
    RunResult,
    Session,
    SpGEMMSpec,
    SweepSpec,
    available_executors,
    get_executor,
)
from repro.compiler import Program, compile_gcn_aggregation, compile_spgemm
from repro.datasets import GraphDataset, available_datasets, load_dataset
from repro.sim import (
    FunctionalAccelerator,
    NeuraChipAccelerator,
    SimulationParams,
    SimulationReport,
)
from repro.sparse import COOMatrix, CSCMatrix, CSRMatrix

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "Session",
    "SpGEMMSpec",
    "GCNLayerSpec",
    "GNNModelSpec",
    "SweepSpec",
    "BatchSpec",
    "RunResult",
    "Provenance",
    "get_executor",
    "available_executors",
    "get_backend",
    "available_backends",
    "ChipTopology",
    "NeuraChipConfig",
    "TILE4",
    "TILE16",
    "TILE64",
    "GNN_TILE16",
    "get_config",
    "Program",
    "compile_spgemm",
    "compile_gcn_aggregation",
    "GraphDataset",
    "load_dataset",
    "available_datasets",
    "NeuraChipAccelerator",
    "FunctionalAccelerator",
    "SimulationReport",
    "SimulationParams",
    "COOMatrix",
    "CSRMatrix",
    "CSCMatrix",
]
