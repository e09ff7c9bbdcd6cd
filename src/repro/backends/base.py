"""Execution backend protocol and shared datatypes.

A *backend* is one way of executing a compiled
:class:`~repro.compiler.program.Program` on a configured chip.  The three
built-in backends trade fidelity for speed:

========== ====================================== =========================
name       what runs                              cost
========== ====================================== =========================
functional hash-accumulate dataflow, untimed      O(partial products)
cycle      event-driven NeuraSim timing model     O(events) — slowest
analytic   roofline cycle prediction, no events   O(MMH instructions)
========== ====================================== =========================

Backends receive the compiled program plus (optionally) the CSR/CSC
operands; the analytic backend replays the program's columnar arrays in
one vectorized pass instead of materializing the macro-op stream.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.arch.config import NeuraChipConfig
from repro.compiler.program import Program
from repro.sim.accelerator import SimulationReport
from repro.sim.functional import FunctionalReport
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
        output: the product matrix C in CSR.
        report: timing report; populated by the cycle backend (measured) and
            the analytic backend (predicted), ``None`` for functional.
        functional: functional-model report; ``None`` for the analytic
            backend, which bypasses the hash-accumulate replay entirely.
        output_dense: dense form of the output when the backend already
            materialised one (the functional model's accumulator); saves
            callers that need a dense result a CSR round trip.
    """

    backend: str
    output: CSRMatrix
    report: SimulationReport | None = None
    functional: FunctionalReport | None = None
    output_dense: np.ndarray | None = None

    def to_dense(self) -> np.ndarray:
        """Dense output, reusing the backend's own dense array when present."""
        if self.output_dense is not None:
            return self.output_dense
        return self.output.to_dense()


class ExecutionBackend(ABC):
    """One way of executing a compiled program on a configured chip."""

    #: Registry name; set by the @register_backend decorator.
    name: str = ""

    @abstractmethod
    def execute(self, program: Program, ctx: ExecutionContext,
                a_csr: CSRMatrix | None = None,
                b_csr: CSRMatrix | None = None,
                verify: bool = True) -> ExecutionResult:
        """Execute ``program`` and return an :class:`ExecutionResult`.

        Args:
            program: compiled MMH macro-op stream.
            ctx: chip configuration and timing parameters.
            a_csr / b_csr: the operands the program was compiled from, when
                the caller still holds them; backends that only need the
                macro-op stream may ignore them.
            verify: ask the backend to check its output against a reference
                (only meaningful for the cycle backend).
        """
