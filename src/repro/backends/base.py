"""Execution backend protocol and shared datatypes.

A *backend* is one way of executing a compiled
:class:`~repro.compiler.program.Program` on a configured chip.  The three
built-in backends trade fidelity for speed:

========== ====================================== =========================
name       what runs                              cost
========== ====================================== =========================
functional the program's replay, untimed          one vectorized replay
cycle      event-driven NeuraSim timing model     O(events) — slowest
analytic   roofline cycle prediction, no events   O(MMH instructions)
========== ====================================== =========================

Backends receive the compiled program plus (optionally) the CSR/CSC
operands.  All three share one numeric path: the output is the program's
replay, one vectorized gather-multiply-scatter over its columnar arrays;
what sets them apart is the report each adds.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.arch.config import NeuraChipConfig
from repro.compiler.program import Program
from repro.sim.accelerator import SimulationReport
from repro.sim.params import SimulationParams
from repro.sparse.csr import CSRMatrix


@dataclass(frozen=True)
class ExecutionContext:
    """Everything a backend needs to know about the chip it runs on.

    Attributes:
        config: hardware configuration (tile counts, engine counts, ...).
        params: simulation timing parameters.
        mapping_scheme: accumulation mapping scheme name.
        mapping_seed: seed for the randomised mapping schemes.
        eviction_mode: 'rolling' or 'barrier'.
    """

    config: NeuraChipConfig
    params: SimulationParams
    mapping_scheme: str
    mapping_seed: int = 0
    eviction_mode: str = "rolling"


@dataclass
class ExecutionResult:
    """What a backend hands back to the
    :class:`~repro.core.session.Session` that ran it.

    Attributes:
        backend: name of the backend that produced this result.
        output: the product matrix C in CSR — the program's replay, with
            the compiled output structure (a slot whose partial products
            cancel stays an explicit zero).
        report: timing report; populated by the cycle backend (measured) and
            the analytic backend (predicted), ``None`` for functional.
    """

    backend: str
    output: CSRMatrix
    report: SimulationReport | None = None

    def to_dense(self) -> np.ndarray:
        """Dense form of the output (a dense replay's block, unscattered)."""
        return self.output.to_dense()


class ExecutionBackend(ABC):
    """One way of executing a compiled program on a configured chip."""

    #: The backend's name in :data:`~repro.backends.registry.CHIP_BACKENDS`.
    name: str = ""

    @abstractmethod
    def execute(self, program: Program, ctx: ExecutionContext,
                a_csr: CSRMatrix | None = None,
                b_csr: CSRMatrix | None = None,
                verify: bool = True) -> ExecutionResult:
        """Execute ``program`` and return an :class:`ExecutionResult`.

        Args:
            program: compiled MMH program.
            ctx: chip configuration and timing parameters.
            a_csr / b_csr: the operands the program was compiled from, when
                the caller still holds them; backends that only need the
                program may ignore them.
            verify: ask the backend to check its output against a reference
                (only meaningful for the cycle backend).
        """
