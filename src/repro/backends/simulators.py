"""The functional and cycle execution backends.

Both wrap the pre-existing simulators — the untimed hash-accumulate model
and the event-driven NeuraSim — behind the
:class:`~repro.backends.base.ExecutionBackend` protocol, so every entry
point (session, CLI, serving layer) selects them by name instead of
wiring the simulators by hand.
"""

from __future__ import annotations

from repro.backends.base import ExecutionBackend, ExecutionContext, ExecutionResult
from repro.backends.registry import register_backend
from repro.compiler.program import Program
from repro.sim.accelerator import NeuraChipAccelerator
from repro.sim.functional import FunctionalAccelerator, FunctionalReport
from repro.sparse.convert import coo_to_csr, dense_to_coo
from repro.sparse.csr import CSRMatrix


def _run_functional(program: Program, ctx: ExecutionContext) -> FunctionalReport:
    return FunctionalAccelerator(ctx.config, ctx.mapping_scheme,
                                 ctx.mapping_seed).run(program)


@register_backend("functional")
class FunctionalBackend(ExecutionBackend):
    """Untimed hash-accumulate dataflow; validates semantics quickly."""

    def execute(self, program: Program, ctx: ExecutionContext,
                a_csr: CSRMatrix | None = None,
                b_csr: CSRMatrix | None = None,
                verify: bool = True) -> ExecutionResult:
        functional = _run_functional(program, ctx)
        output = coo_to_csr(dense_to_coo(functional.output))
        return ExecutionResult(backend=self.name, output=output,
                               report=None, functional=functional,
                               output_dense=functional.output)


@register_backend("cycle")
class CycleBackend(ExecutionBackend):
    """Event-driven cycle-level NeuraSim model (highest fidelity)."""

    def execute(self, program: Program, ctx: ExecutionContext,
                a_csr: CSRMatrix | None = None,
                b_csr: CSRMatrix | None = None,
                verify: bool = True) -> ExecutionResult:
        functional = _run_functional(program, ctx)
        accelerator = NeuraChipAccelerator(ctx.config, ctx.params,
                                           eviction_mode=ctx.eviction_mode,
                                           mapping_scheme=ctx.mapping_scheme,
                                           mapping_seed=ctx.mapping_seed)
        report = accelerator.run(program, verify=verify)
        output = coo_to_csr(dense_to_coo(functional.output))
        return ExecutionResult(backend=self.name, output=output,
                               report=report, functional=functional,
                               output_dense=functional.output)
