"""Multi-chip scale-out execution backend.

NeuraChip's decoupled SpGEMM pipeline and Tesseract-style hash partitioning
are designed to scale across chips: rows of A partition the partial
products of C = A @ B exactly, so each chip can own a row shard, compile
and execute it independently, and the host reduces the per-chip products
into a result identical to the single-chip run.

The ``multichip`` backend models exactly that:

* :class:`ChipTopology` describes the fleet — chip count, the per-chip
  execution backend (``analytic`` by default, ``cycle`` / ``functional``
  for fidelity) and the partition strategy — and prices its host terms
  at the interconnect constants below;
* shards come from :func:`~repro.sparse.partition.plan_shards`:
  contiguous row ranges on balanced inputs, degree-aware row index sets
  (with merge-path column-range splitting of monster rows) on skewed
  power-law inputs — the ``partition`` knob picks, defaulting to an
  ``auto`` skew probe;
* every chip executes in isolation — its own compiled shard program(s)
  and its own simulator (memory / NeuraMem) state and stats, built fresh
  per chip by the inner backend — in this process, inline or on a thread
  executor, against the session's program cache, so the modelled result
  never depends on the host executor;
* the fleet takes ``cycles = max over chips + host reduce term (+
  one-time B broadcast on cold runs)``; a one-shot run's timing report
  also sums activity-style totals (busy / stall cycles, traffic, NoC
  flits, evictions) and records per-chip and shard-skew counters (a GNN
  stack layer, whose features are one dense array, skips it);
* the analytic fast path is the plan itself: ``plan_shards(a, n)``
  predicts scale-out (:attr:`~repro.sparse.partition.ShardPlan.speedup`,
  ``efficiency``, ``skew``) from the per-shard partial-product histogram
  alone, without compiling or simulating anything, and it is the plan an
  A @ A run on ``n`` chips executes.

Every unit program comes from :func:`~repro.core.runner.fetch_or_compile`
through the session's :class:`~repro.core.runner.ProgramCache` (A's shard
slice keyed by its :class:`ShardUnit`'s ``a_key``, B's by structure), so
repeated multi-chip runs of the same graph — and every layer of a resident
GNN stack — skip every per-chip compile; under ``Session(verify=...)``
each distinct unit program is IR-verified once.  A one-shot run
(:meth:`MultiChipBackend.execute_operands`) is a resident graph used
once.  A session's host sharding (``SpGEMMSpec(shards=N)``) runs through
this backend too, on a fleet of N chips of the session backend.

B is replicated on every chip (rows of A shard; all of B is potentially
touched by any shard), so a multi-chip run whose B is not yet on the
fleet additionally charges a one-time B-broadcast term — ``b_nnz`` bytes
pushed over the host interconnect at :data:`REDUCE_BYTES_PER_CYCLE` — that
makes the small-graph break-even point visible.  The broadcast amortizes
across a batch through the program cache: a one-shot run skips it when
every chip's unit programs are cache hits that already hold these B
*values* (a hit re-bound to new values means the host sent a new B); a
resident stack charges it on its first layer only, and only when some
unit program was compiled fresh (later layers' features are made on
chip).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.backends.base import ExecutionContext, ExecutionResult
from repro.backends.registry import CHIP_BACKENDS, get_backend
from repro.sim.accelerator import SimulationReport
from repro.sim.stats import Histogram
from repro.sparse.csr import CSRMatrix, full_structure_csr
from repro.sparse.partition import (
    PARTITION_STRATEGIES,
    ShardAssignment,
    ShardPlan,
    ShardUnit,
    build_shard_units,
    plan_shards,
    stitch_shard_outputs,
)

#: Bytes the host reduce moves per output *row*.  Output ownership follows
#: the row shards (Tesseract-style): each chip keeps its rows of C in its
#: local HBM, so the reduce never moves values or column indices — it only
#: gathers and rebases one int64 row pointer per output row to stitch the
#: per-chip CSR blocks into one logical matrix.
REDUCE_BYTES_PER_ROW = 8

#: Host-interconnect gather bandwidth of the reduce and B-broadcast terms
#: (bytes per chip cycle; the output values stay in chip-local HBM).
REDUCE_BYTES_PER_CYCLE = 64.0

#: Fixed fleet synchronisation latency added once to the reduce term.
REDUCE_LATENCY_CYCLES = 200.0


@dataclass(frozen=True)
class ChipTopology:
    """Description of a multi-chip fleet.

    Attributes:
        n_chips: number of chip instances row shards are assigned to.
        chip_backend: single-chip backend each chip executes its shard
            program through ('analytic', 'cycle', or 'functional').
        partition: shard planning strategy — 'contiguous' row ranges,
            'degree' index sets (LPT over exact per-row weights, with
            merge-path monster-row splitting), or 'auto' (default): a
            cheap skew probe keeps contiguity unless the degree plan is
            measurably more balanced.
    """

    n_chips: int = 1
    chip_backend: str = "analytic"
    partition: str = "auto"

    def __post_init__(self) -> None:
        if self.n_chips < 1:
            raise ValueError(f"n_chips must be >= 1, got {self.n_chips}")
        if self.chip_backend not in CHIP_BACKENDS:
            raise ValueError(f"chip_backend {self.chip_backend!r} is not a "
                             "single-chip backend (chips do not nest); "
                             f"registered backends: {sorted(CHIP_BACKENDS)}")
        if self.partition not in PARTITION_STRATEGIES:
            raise ValueError(f"unknown partition strategy "
                             f"{self.partition!r}; expected one of "
                             f"{PARTITION_STRATEGIES}")

    def reduce_cycles(self, output_rows: int) -> float:
        """Host reduce term: gather and rebase the per-chip row pointers
        (the values themselves stay in the owning chip's HBM) plus one
        fleet synchronisation latency."""
        if self.n_chips == 1:
            return 0.0
        traffic = output_rows * REDUCE_BYTES_PER_ROW
        return traffic / REDUCE_BYTES_PER_CYCLE + REDUCE_LATENCY_CYCLES

    def broadcast_cycles(self, b_nnz: int) -> float:
        """One-time B-broadcast term: push ``b_nnz`` bytes of the
        replicated operand over the host interconnect to every chip.

        Charged only when B is not already on the fleet — every chip's
        unit programs cached with these B values (one-shot runs) or at all
        (a resident stack's first layer) means it is — so the cost
        amortizes across a batch of requests touching the same operands."""
        if self.n_chips == 1:
            return 0.0
        return b_nnz / REDUCE_BYTES_PER_CYCLE


@dataclass
class ChipRun:
    """Outcome of one chip executing its shard (rows unit + fragments)."""

    chip: int
    assignment: ShardAssignment
    #: The rows unit's product: a CSR, or a dense B's dense replay block.
    output: CSRMatrix | np.ndarray | None
    fragment_outputs: list[CSRMatrix]
    report: SimulationReport | None
    mmh: int
    partial_products: int
    #: True when every unit program was cached holding this call's B
    #: values (no compile, no re-bind): the chip already holds this B.
    b_resident: bool = False
    #: Unit programs this chip compiled fresh (0 when all were cached).
    fresh_compiles: int = 0

    @property
    def cycles(self) -> float:
        return self.report.cycles if self.report is not None else 0.0


@dataclass
class MultiChipExecutionResult(ExecutionResult):
    """Aggregate result of a multi-chip execution plus per-chip detail."""

    chip_runs: list[ChipRun] = field(default_factory=list)
    topology: ChipTopology = field(default_factory=ChipTopology)
    plan: ShardPlan | None = None
    reduce_cycles: float = 0.0
    broadcast_cycles: float = 0.0
    #: Slowest chip + reduce + broadcast (0.0 unless every chip is timed).
    cycles: float = 0.0
    #: Shard-unit programs compiled fresh during this execution (0 when the
    #: whole fleet ran from cached / resident programs).
    fresh_compiles: int = 0

    @property
    def n_chips(self) -> int:
        return len(self.chip_runs)

    @property
    def cache_hit(self) -> bool:
        """True when every chip's shard program came from the cache."""
        return bool(self.chip_runs) and self.fresh_compiles == 0


@dataclass
class ResidentGraph:
    """Per-chip shard state kept resident across the layers of a GNN stack.

    Built once per (graph, feature width) by
    :meth:`MultiChipBackend.prepare_resident`: the shard plan and the
    pre-sliced per-chip units of A stay in host memory, and the program
    cache keys each unit's B slice by structure, so every subsequent layer
    only re-binds feature values into the cached unit programs instead of
    re-planning, re-slicing and re-compiling.  A session keeps one per
    width across runs (``Session._resident_graph``).
    """

    plan: ShardPlan
    units: list[list[ShardUnit]]
    tile_size: int
    source: str


#: Report fields :func:`_merge_reports` sums, takes the peak of, averages.
_SUMMED = ("mmh_instructions", "hacc_instructions", "useful_flops",
           "stall_cycles", "busy_cycles", "memory_traffic_bytes",
           "evictions", "spills", "noc_flits", "output_nnz",
           "wall_clock_seconds", "events")
_PEAKED = ("peak_hashpad_occupancy", "hashpad_occupancy_fraction",
           "max_abs_error")
_AVERAGED = ("mmh_cpi_mean", "hacc_cpi_mean", "noc_avg_hops",
             "avg_inflight_mem")


def _merge_reports(reports: list[SimulationReport], config, source: str,
                   cycles: float, side_by_side: int,
                   **overrides) -> SimulationReport:
    """One report over ``reports`` taking ``cycles``: activity totals
    and CPI histograms summed, rates recomputed from the sums.

    ``side_by_side`` is how many of the reports ran at once: the chips of
    a fleet run side by side (utilisations are over that many chips and
    in-flight memory requests add up), a chip's units back to back (one
    report at a time; in-flight requests average).  ``overrides`` replace
    fields before the rates are derived from the instruction counts."""
    fields = {name: sum(getattr(r, name) for r in reports)
              for name in _SUMMED}
    fields.update({name: max(getattr(r, name) for r in reports)
                   for name in _PEAKED})
    fields.update({name: float(np.mean([getattr(r, name) for r in reports]))
                   for name in _AVERAGED})
    fields.update(
        config_name=config.name, workload=source, cycles=cycles,
        mmh_cpi_histogram=Histogram.merged([r.mmh_cpi_histogram
                                            for r in reports]),
        hacc_cpi_histogram=Histogram.merged([r.hacc_cpi_histogram
                                             for r in reports]),
        correct=None if any(r.correct is None for r in reports)
        else all(r.correct for r in reports),
        eviction_mode=reports[0].eviction_mode,
        mapping_scheme=reports[0].mapping_scheme)
    if side_by_side > 1:
        fields["avg_inflight_mem"] = sum(r.avg_inflight_mem for r in reports)
    fields.update(overrides)
    n_mmh = fields["mmh_instructions"]
    seconds = cycles / (config.frequency_ghz * 1e9)
    pipelines = max(1, config.total_pipelines)
    fields.update(
        gflops=fields["useful_flops"] / seconds / 1e9 if seconds > 0
        else 0.0,
        gops=fields["hacc_instructions"] / seconds / 1e9 if seconds > 0
        else 0.0,
        ipc=n_mmh / cycles if cycles else 0.0,
        cpi=cycles / n_mmh if n_mmh else 0.0,
        core_utilization=min(1.0, fields["busy_cycles"]
                             / (cycles * pipelines * side_by_side))
        if cycles else 0.0,
        mem_utilization=min(1.0, sum(r.mem_utilization * r.cycles
                                     for r in reports)
                            / (cycles * side_by_side)) if cycles else 0.0,
    )
    return SimulationReport(**fields)


class MultiChipBackend:
    """Scale one SpGEMM across N chips, one row shard per chip.

    Args:
        topology: the fleet (a default :class:`ChipTopology` when unset).
        cache: optional program cache for the per-shard compiles.
        check: optional ``check(key, program) -> program`` every fetched or
            compiled shard program passes (the session's memoized IR
            verification).
        executor: optional thread :class:`~repro.core.executors.Executor`
            the per-chip work fans out on.  Chips never leave this
            process: without an executor, or given a process pool, they
            run inline.
    """

    def __init__(self, topology: ChipTopology | None = None, cache=None,
                 check=None, executor=None) -> None:
        self.topology = topology if topology is not None else ChipTopology()
        self.cache = cache
        self.check = check
        self.executor = executor

    # ------------------------------------------------------------------
    def execute_operands(self, a_csr: CSRMatrix, b_csr: CSRMatrix | None,
                         ctx: ExecutionContext, tile_size: int,
                         source: str = "spgemm",
                         verify: bool = True) -> MultiChipExecutionResult:
        """Plan, compile per chip, execute per chip, reduce: a one-shot
        run is a resident graph used once, whose B came from the host."""
        b_csr = b_csr if b_csr is not None else a_csr
        resident = self.prepare_resident(a_csr, b_csr, tile_size, source)
        return self._execute(resident, b_csr, ctx, verify,
                             charge_broadcast=True, fresh_b=False)

    # ------------------------------------------------------------------
    def prepare_resident(self, a_csr: CSRMatrix,
                         b_csr: CSRMatrix | np.ndarray, tile_size: int,
                         source: str = "gnn-stack") -> ResidentGraph:
        """Plan and slice the fleet's shard state once for a layer stack.

        The plan and the per-chip unit slices of A are computed from the
        stack's first feature matrix and stay resident; every layer then
        executes through :meth:`execute_resident`, which only swaps feature
        values into the unit programs."""
        if isinstance(b_csr, np.ndarray):
            b_csr = full_structure_csr(b_csr)
        plan = plan_shards(a_csr, self.topology.n_chips, b_csr,
                           strategy=self.topology.partition)
        units = build_shard_units(a_csr, plan)
        return ResidentGraph(plan=plan, units=units, tile_size=tile_size,
                             source=source)

    def execute_resident(self, resident: ResidentGraph, b_csr: np.ndarray,
                         ctx: ExecutionContext, verify: bool = True,
                         charge_broadcast: bool = False
                         ) -> MultiChipExecutionResult:
        """Execute one layer of a stack over the resident shard state.

        Unlike :meth:`execute_operands`, nothing is re-planned or re-sliced
        and unit programs are cache hits re-bound to this layer's values
        after the first layer (the same programs a one-shot run of these
        operands fetches).  ``charge_broadcast`` is set by the pipeline on
        layer 0 only: resident-operand reuse means B ships to the fleet once
        per *stack*, not once per layer (and not at all when the fleet is
        already warm, i.e. no unit program compiles fresh).  ``b_csr``, a
        dense ``(n, W)`` array, is a layer input no caller holds, so the unit
        programs take it without a compare or a copy (``fresh_b``); the
        output is the dense product, and no fleet report is built."""
        return self._execute(resident, b_csr, ctx, verify,
                             charge_broadcast=charge_broadcast,
                             fresh_b=True)

    # ------------------------------------------------------------------
    def _execute(self, resident: ResidentGraph,
                 b_csr: CSRMatrix | np.ndarray, ctx: ExecutionContext,
                 verify: bool, charge_broadcast: bool,
                 fresh_b: bool) -> MultiChipExecutionResult:
        """Run every chip's units against ``b_csr``, stitch, reduce.

        ``fresh_b`` marks B as a stack's own layer input rather than an
        operand from the host; either way the unit programs come through
        the same cache keys.  Only a host operand's run builds the fleet
        report."""
        topology = self.topology
        plan = resident.plan
        b_nnz = b_csr.size if isinstance(b_csr, np.ndarray) else b_csr.nnz
        chips = range(len(plan.shards))
        run_chip = partial(self._run_chip, resident=resident, b_csr=b_csr,
                           ctx=ctx, verify=verify, fresh_b=fresh_b)
        executor = self.executor
        runs = ([run_chip(chip) for chip in chips]
                if executor is None or executor.name == "process"
                else executor.map(run_chip, chips))
        output = stitch_shard_outputs(
            plan, [(run.output, run.fragment_outputs) for run in runs],
            b_csr.shape[1])
        # B is replicated on every chip: the run pays for broadcasting it
        # once unless the fleet already holds it.  A B from the host is
        # held only if every unit program was cached with these values
        # (the ones last sent); a stack's layer-0 features count as held
        # on a warm fleet (no fresh compile).
        warm = all(run.fresh_compiles == 0 if fresh_b else run.b_resident
                   for run in runs)
        reduce = topology.reduce_cycles(plan.n_rows) if len(runs) > 1 else 0.0
        broadcast = (topology.broadcast_cycles(b_nnz)
                     if charge_broadcast and len(runs) > 1 and not warm
                     else 0.0)
        timed = all(run.report is not None for run in runs)
        execution = MultiChipExecutionResult(
            backend="multichip", output=output, chip_runs=runs,
            topology=topology, plan=plan, reduce_cycles=reduce,
            broadcast_cycles=broadcast, cycles=float(
                max(run.cycles for run in runs) + reduce + broadcast)
            if timed else 0.0,
            fresh_compiles=sum(run.fresh_compiles for run in runs))
        if timed and not fresh_b:
            execution.report = _aggregate_report(execution, b_nnz, ctx,
                                                 resident.source)
        return execution

    def _run_chip(self, chip: int, resident: ResidentGraph,
                  b_csr: CSRMatrix | np.ndarray, ctx: ExecutionContext,
                  verify: bool, fresh_b: bool) -> ChipRun:
        """Execute chip ``chip``'s units back to back on a fresh per-chip
        context.

        Each unit's program comes from
        :func:`~repro.core.runner.fetch_or_compile` against its slice of
        ``b_csr`` (:meth:`ShardUnit.slice_b`), so a unit compiled for an
        earlier call's B is re-bound to this one's values, and every
        program passes ``check``.  A dense ``(n, W)`` B makes the rows
        unit's output its dense replay block."""
        from repro.core.runner import fetch_or_compile

        backend = get_backend(self.topology.chip_backend)
        source = resident.source
        rows_output: CSRMatrix | np.ndarray | None = None
        fragment_outputs: list[CSRMatrix] = []
        reports: list[SimulationReport | None] = []
        hits: list[bool] = []
        b_resident = True
        mmh = partial_products = 0
        for unit in resident.units[chip]:
            fragment = unit.fragment
            unit_source = f"{source}@chip{chip}" if fragment is None else (
                f"{source}@chip{chip}[r{fragment.row}:"
                f"c{fragment.col_lo}-{fragment.col_hi}]")
            program, cache_hit, rebound = fetch_or_compile(
                self.cache, unit.a, unit.slice_b(b_csr), resident.tile_size,
                unit_source, check=self.check, a_key=unit.a_key,
                fresh_b=fresh_b)
            b_resident = b_resident and cache_hit and not rebound
            # The context is immutable chip *configuration*; per-chip
            # isolation comes from the backend building fresh simulator
            # state per report.
            reports.append(backend.report(program, ctx, verify=verify))
            if fragment is not None:
                fragment_outputs.append(program.replay())
            else:
                rows_output = (program.replay_dense() if fresh_b
                               else program.replay())
            hits.append(cache_hit)
            mmh += program.n_instructions
            partial_products += program.total_partial_products
        report = None
        if reports and all(r is not None for r in reports):
            report = reports[0] if len(reports) == 1 else _merge_reports(
                reports, ctx.config, source,
                cycles=float(sum(r.cycles for r in reports)), side_by_side=1)
        return ChipRun(chip=chip, assignment=resident.plan.shards[chip],
                       output=rows_output, fragment_outputs=fragment_outputs,
                       report=report, mmh=mmh,
                       partial_products=partial_products,
                       b_resident=bool(hits) and b_resident,
                       fresh_compiles=hits.count(False))

def _aggregate_report(execution: MultiChipExecutionResult, b_nnz: int,
                      ctx: ExecutionContext, source: str) -> SimulationReport:
    """Fleet-level report: the execution's cycles (max over chips + host
    reduce + cold-run B broadcast), activity totals summed over chips
    running side by side, shard-skew counters recorded."""
    config = ctx.config
    runs = execution.chip_runs
    reports = [run.report for run in runs]
    pp = sum(run.partial_products for run in runs)
    plan = execution.plan
    counters = {
        "multichip.n_chips": len(runs),
        "multichip.reduce_cycles": round(execution.reduce_cycles, 1),
        "multichip.broadcast_cycles": round(execution.broadcast_cycles, 1),
        "multichip.broadcast_bytes": 0 if execution.broadcast_cycles == 0.0
        else b_nnz,
        "multichip.shard_skew": round(plan.skew, 4),
        "multichip.efficiency": round(plan.efficiency, 4),
        "multichip.split_rows": len(plan.split_rows),
    }
    for run in runs:
        counters[f"multichip.chip{run.chip}.cycles"] = run.cycles
        counters[f"multichip.chip{run.chip}.rows"] = \
            int(run.assignment.rows.size)
        counters[f"multichip.chip{run.chip}.fragments"] = \
            len(run.assignment.fragments)
        counters[f"multichip.chip{run.chip}.partial_products"] = \
            run.partial_products
    return _merge_reports(
        reports, config, source, execution.cycles, side_by_side=len(runs),
        config_name=f"{config.name}x{len(runs)}",
        mmh_instructions=sum(run.mmh for run in runs), hacc_instructions=pp,
        output_nnz=execution.output.nnz, eviction_mode=ctx.eviction_mode,
        mapping_scheme=ctx.mapping_scheme, counters=counters)

#: Trust band for :attr:`~repro.sparse.partition.ShardPlan.speedup`: on
#: the recorded scaling curve (``benchmarks/results/bench_multichip.json``)
#: the predicted speedup must stay within this multiplicative factor of the
#: measured cycle-model speedup.  The prediction is an upper bound (it
#: ignores the per-chip latency floor, the host reduce term, and the
#: cold-run B broadcast), so the gap is one-sided;
#: ``tests/test_scaleout_calibration.py`` pins it — the same contract as
#: the analytic backend's ±25% ``CALIBRATED_TOLERANCE``.
SCALEOUT_CALIBRATION_BAND = 1.25
