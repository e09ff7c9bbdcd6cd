"""The functional and cycle execution backends.

Both wrap a simulator — the untimed hash-accumulate model and the
event-driven NeuraSim — behind the
:class:`~repro.backends.base.ExecutionBackend` protocol, so every entry
point (session, CLI, serving layer) selects them by name instead of
wiring the simulators by hand.

They share one numeric path with the analytic backend: the ``output`` is
the compiled program's replay
(:meth:`~repro.compiler.program.Program.replay`), byte-identical
across all three.  The simulators walk the program's HACC stream for what
only they model — NeuraSim's timing report (whose verify step checks the
hash-accumulated output against that same replay) and the functional
model's per-NeuraMem HACC, eviction and spill statistics.
"""

from __future__ import annotations

from repro.backends.base import ExecutionBackend, ExecutionContext, ExecutionResult
from repro.backends.registry import register_backend
from repro.compiler.program import Program
from repro.sim.accelerator import NeuraChipAccelerator
from repro.sim.functional import FunctionalAccelerator
from repro.sparse.csr import CSRMatrix


@register_backend("functional")
class FunctionalBackend(ExecutionBackend):
    """Untimed hash-accumulate dataflow; validates semantics quickly."""

    def execute(self, program: Program, ctx: ExecutionContext,
                a_csr: CSRMatrix | None = None,
                b_csr: CSRMatrix | None = None,
                verify: bool = True) -> ExecutionResult:
        functional = FunctionalAccelerator(ctx.config, ctx.mapping_scheme,
                                           ctx.mapping_seed).run(program)
        return ExecutionResult(backend=self.name, output=program.replay(),
                               report=None, functional=functional)


@register_backend("cycle")
class CycleBackend(ExecutionBackend):
    """Event-driven cycle-level NeuraSim model (highest fidelity)."""

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
