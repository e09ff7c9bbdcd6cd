"""The functional and cycle execution backends.

Both sit behind the :class:`~repro.backends.base.ExecutionBackend`
protocol, so every entry point (session, CLI, serving layer) selects them
by name.  They share one numeric path with the analytic backend: the
``output`` is the compiled program's replay
(:meth:`~repro.compiler.program.Program.replay`), byte-identical across
all three.

The functional backend is that replay and nothing else: no timing report,
no simulator run.  (The untimed
:class:`~repro.sim.functional.FunctionalAccelerator`, with its
per-NeuraMem HACC, eviction and spill statistics, is a library model the
tests and ablations call directly.)  The cycle backend runs NeuraSim over
the program's HACC stream for its timing report, whose verify step checks
the hash-accumulated output against the same replay.
"""

from __future__ import annotations

from repro.backends.base import ExecutionBackend, ExecutionContext, ExecutionResult
from repro.compiler.program import Program
from repro.sim.accelerator import NeuraChipAccelerator
from repro.sparse.csr import CSRMatrix


class FunctionalBackend(ExecutionBackend):
    """The program's replay, untimed: no report."""

    name = "functional"

    def execute(self, program: Program, ctx: ExecutionContext,
                a_csr: CSRMatrix | None = None,
                b_csr: CSRMatrix | None = None,
                verify: bool = True) -> ExecutionResult:
        return ExecutionResult(backend=self.name, output=program.replay())


class CycleBackend(ExecutionBackend):
    """Event-driven cycle-level NeuraSim model (highest fidelity)."""

    name = "cycle"

    def execute(self, program: Program, ctx: ExecutionContext,
                a_csr: CSRMatrix | None = None,
                b_csr: CSRMatrix | None = None,
                verify: bool = True) -> ExecutionResult:
        accelerator = NeuraChipAccelerator(ctx.config, ctx.params,
                                           eviction_mode=ctx.eviction_mode,
                                           mapping_scheme=ctx.mapping_scheme,
                                           mapping_seed=ctx.mapping_seed)
        report = accelerator.run(program, verify=verify)
        return ExecutionResult(backend=self.name, output=program.replay(),
                               report=report)
