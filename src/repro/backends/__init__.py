"""Pluggable execution backends for the NeuraChip reproduction.

Every entry point (the :class:`~repro.core.session.Session` API, the CLI
and the serving layer) executes compiled programs through a backend looked
up by name in this package's registry:

* ``functional`` — untimed hash-accumulate dataflow;
* ``cycle``      — event-driven cycle-level NeuraSim model;
* ``analytic``   — roofline cycle prediction, for graphs too large for
  event simulation;
* ``multichip``  — N chip instances, one row shard each, reduced on the
  host into the single-chip product (see :class:`ChipTopology`); a
  session's ``SpGEMMSpec(shards=N)`` host sharding runs through it too.

All of them return the compiled program's replay as the numeric output.
The functional and cycle backends live in :mod:`repro.backends.simulators`.

Third-party backends register with :func:`register_backend`.
"""

from repro.backends.base import (
    ExecutionBackend,
    ExecutionContext,
    ExecutionResult,
)
from repro.backends.registry import (
    available_backends,
    get_backend,
    register_backend,
)

# Importing the implementation modules populates the registry.
from repro.backends.simulators import CycleBackend, FunctionalBackend
from repro.backends.analytic import (
    CALIBRATED_TOLERANCE,
    AnalyticBackend,
)
from repro.backends.multichip import (
    SCALEOUT_CALIBRATION_BAND,
    ChipTopology,
    MultiChipBackend,
    MultiChipExecutionResult,
    predict_scaleout,
)

__all__ = [
    "ExecutionBackend",
    "ExecutionContext",
    "ExecutionResult",
    "register_backend",
    "get_backend",
    "available_backends",
    "FunctionalBackend",
    "CycleBackend",
    "AnalyticBackend",
    "MultiChipBackend",
    "MultiChipExecutionResult",
    "ChipTopology",
    "predict_scaleout",
    "CALIBRATED_TOLERANCE",
    "SCALEOUT_CALIBRATION_BAND",
]
