"""High-level NeuraChip API (the paper's primary contribution, packaged).

``repro.core`` is the entry point a downstream user works with: declarative
workload specs (:class:`SpGEMMSpec`, :class:`GCNLayerSpec`,
:class:`GNNModelSpec`, :class:`SweepSpec`, :class:`BatchSpec`) submitted to
a :class:`Session` — which owns backend resolution, a pluggable executor
layer (serial / thread / process), and a persistent LRU program cache —
and returning unified :class:`RunResult` envelopes.  :class:`NeuraChip` is
the chip primitive a session binds to (configuration, compile, execution
context, power).
"""

from repro.core.api import NeuraChip
from repro.core.executors import (
    Executor,
    available_executors,
    get_executor,
    register_executor,
)
from repro.core.runner import (
    ProgramCache,
    default_cache_dir,
    matrix_fingerprint,
)
from repro.core.session import (
    Session,
    ShardPlan,
    estimate_row_partial_products,
    plan_row_shards,
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
    "plan_row_shards",
    "plan_shards",
    "ShardPlan",
    "estimate_row_partial_products",
    "Executor",
    "register_executor",
    "get_executor",
    "available_executors",
    "NeuraChip",
    "ProgramCache",
    "matrix_fingerprint",
    "default_cache_dir",
]
