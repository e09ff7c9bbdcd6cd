"""High-level NeuraChip API (the paper's primary contribution, packaged).

``repro.core`` is the entry point a downstream user works with: declarative
workload specs (:class:`SpGEMMSpec`, :class:`GCNLayerSpec`,
:class:`GNNModelSpec`, :class:`SweepSpec`, :class:`BatchSpec`) submitted to
a :class:`Session` — which holds one chip (``session.ctx``, the frozen
:class:`~repro.backends.base.ExecutionContext` every run executes on) and
owns backend resolution, an executor layer (serial / thread / process),
and a persistent LRU program cache — and returning unified
:class:`RunResult` envelopes.
"""

from repro.core.executors import (
    Executor,
    available_executors,
    get_executor,
)
from repro.core.runner import (
    ProgramCache,
    default_cache_dir,
    matrix_fingerprint,
)
from repro.core.session import Session
from repro.sparse.partition import (
    ShardPlan,
    estimate_row_partial_products,
    plan_shards,
)
from repro.core.specs import (
    BatchSpec,
    ChipTopology,
    GCNLayerSpec,
    GNNModelSpec,
    Provenance,
    RunResult,
    SpGEMMSpec,
    SweepSpec,
    WorkloadSpec,
)

__all__ = [
    "Session",
    "ChipTopology",
    "WorkloadSpec",
    "SpGEMMSpec",
    "GCNLayerSpec",
    "GNNModelSpec",
    "SweepSpec",
    "BatchSpec",
    "RunResult",
    "Provenance",
    "plan_shards",
    "ShardPlan",
    "estimate_row_partial_products",
    "Executor",
    "get_executor",
    "available_executors",
    "ProgramCache",
    "matrix_fingerprint",
    "default_cache_dir",
]
