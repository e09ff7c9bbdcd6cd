"""Execution backends for the NeuraChip reproduction.

Every entry point (the :class:`~repro.core.session.Session` API, the CLI
and the serving layer) executes compiled programs through a backend named
in :data:`~repro.backends.registry.CHIP_BACKENDS` or through the fleet:

* ``functional`` — the program's replay, untimed (no report);
* ``cycle``      — event-driven cycle-level NeuraSim model;
* ``analytic``   — roofline cycle prediction, for graphs too large for
  event simulation;
* ``multichip``  — N chip instances, one row shard each, reduced on the
  host into the single-chip product (see :class:`ChipTopology`); a
  session's ``SpGEMMSpec(shards=N)`` host sharding runs through it too.
  :class:`MultiChipBackend` is built with its fleet configuration, so
  :func:`get_backend` resolves only the three single-chip backends.

All of them return the compiled program's replay as the numeric output.
The functional and cycle backends live in :mod:`repro.backends.simulators`.
"""

from repro.backends.base import (
    ExecutionBackend,
    ExecutionContext,
    ExecutionResult,
)
from repro.backends.registry import (
    available_backends,
    get_backend,
)
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
