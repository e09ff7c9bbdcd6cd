"""Multi-chip scale-out execution backend.

NeuraChip's decoupled SpGEMM pipeline and Tesseract-style hash partitioning
are designed to scale across chips: rows of A partition the partial
products of C = A @ B exactly, so each chip can own a row shard, compile
and execute it independently, and the host reduces the per-chip products
into a result identical to the single-chip run.

The ``multichip`` backend models exactly that:

* :class:`ChipTopology` describes the fleet — chip count, the per-chip
  execution backend (``analytic`` by default, ``cycle`` / ``functional``
  for fidelity), the partition strategy, and the host-reduce cost model;
* shards come from :func:`~repro.sparse.partition.plan_shards`:
  contiguous row ranges on balanced inputs, degree-aware row index sets
  (with merge-path column-range splitting of monster rows) on skewed
  power-law inputs — the ``partition`` knob picks, defaulting to an
  ``auto`` skew probe;
* every chip executes in isolation — its own compiled shard program(s)
  and its own simulator (memory / NeuraMem) state and stats, built fresh
  per chip by the inner backend — and the per-chip work fans out over any
  host executor (serial / thread / process);
* the aggregate timing report takes ``cycles = max over chips + host
  reduce term (+ one-time B broadcast on cold runs)``, sums
  activity-style totals (busy / stall cycles, traffic, NoC flits,
  evictions), and records per-chip cycles plus shard-skew counters;
* :func:`predict_scaleout` is the analytic fast path: it predicts
  scale-out efficiency from the per-shard partial-product histogram alone,
  without compiling or simulating anything.

Every unit program comes from :func:`~repro.core.runner.fetch_or_compile`
through the session's :class:`~repro.core.runner.ProgramCache` (A's shard
slice keyed by content, B's slice by structure), so repeated multi-chip
runs of the same graph — and every layer of a resident GNN stack — skip
every per-chip compile; under ``Session(verify=...)`` each distinct unit
program is IR-verified once.  A one-shot run (:meth:`MultiChipBackend.
execute_operands`) is a resident graph used once.  A session's host
sharding (``SpGEMMSpec(shards=N)``) runs through this backend too, on a
fleet of N chips of the session backend.

B is replicated on every chip (rows of A shard; all of B is potentially
touched by any shard), so a multi-chip run whose B is not yet on the
fleet additionally charges a one-time B-broadcast term — ``b_nnz`` bytes
pushed over the host interconnect at ``reduce_bytes_per_cycle`` — that
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

import numpy as np

from repro.analysis.verifier import assert_program_valid
from repro.backends.base import ExecutionContext, ExecutionResult
from repro.backends.registry import CHIP_BACKENDS, get_backend
from repro.sim.accelerator import SimulationReport
from repro.sim.stats import Histogram
from repro.sparse.csr import CSRMatrix
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


@dataclass(frozen=True)
class ChipTopology:
    """Description of a multi-chip fleet and its host interconnect.

    Attributes:
        n_chips: number of chip instances row shards are assigned to.
        chip_backend: single-chip backend each chip executes its shard
            program through ('analytic', 'cycle', or 'functional').
        partition: shard planning strategy — 'contiguous' row ranges,
            'degree' index sets (LPT over exact per-row weights, with
            merge-path monster-row splitting), or 'auto' (default): a
            cheap skew probe keeps contiguity unless the degree plan is
            measurably more balanced.
        reduce_bytes_per_cycle: host-interconnect gather bandwidth used by
            the reduce-cost term (row-pointer bytes per chip cycle; the
            output values stay sharded in chip-local HBM).
        reduce_latency_cycles: fixed fleet synchronisation latency added
            once to the reduce term.
    """

    n_chips: int = 1
    chip_backend: str = "analytic"
    partition: str = "auto"
    reduce_bytes_per_cycle: float = 64.0
    reduce_latency_cycles: float = 200.0

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
        if self.reduce_bytes_per_cycle <= 0:
            raise ValueError("reduce_bytes_per_cycle must be > 0")

    def reduce_cycles(self, output_rows: int) -> float:
        """Host reduce term: gather and rebase the per-chip row pointers
        (the values themselves stay in the owning chip's HBM) plus one
        fleet synchronisation latency."""
        if self.n_chips == 1:
            return 0.0
        traffic = output_rows * REDUCE_BYTES_PER_ROW
        return traffic / self.reduce_bytes_per_cycle + self.reduce_latency_cycles

    def broadcast_cycles(self, b_nnz: int) -> float:
        """One-time B-broadcast term: push ``b_nnz`` bytes of the
        replicated operand over the host interconnect to every chip.

        Charged only when B is not already on the fleet — every chip's
        unit programs cached with these B values (one-shot runs) or at all
        (a resident stack's first layer) means it is — so the cost
        amortizes across a batch of requests touching the same operands."""
        if self.n_chips == 1:
            return 0.0
        return b_nnz / self.reduce_bytes_per_cycle


@dataclass
class ChipRun:
    """Outcome of one chip executing its shard (rows unit + fragments)."""

    chip: int
    assignment: ShardAssignment
    output: CSRMatrix | None
    fragment_outputs: list[CSRMatrix]
    report: SimulationReport | None
    mmh: int
    partial_products: int
    cache_hit: bool = False
    #: True when every unit program was cached holding this call's B
    #: values (no compile, no re-bind): the chip already holds this B.
    b_resident: bool = False
    #: Unit programs this chip compiled fresh (0 when all were cached).
    fresh_compiles: int = 0

    @property
    def cycles(self) -> float:
        return self.report.cycles if self.report is not None else 0.0

    @property
    def n_rows(self) -> int:
        """Whole rows this chip owns (split rows count via fragments)."""
        return int(self.assignment.rows.size)


@dataclass
class MultiChipExecutionResult(ExecutionResult):
    """Aggregate result of a multi-chip execution plus per-chip detail."""

    chip_runs: list[ChipRun] = field(default_factory=list)
    topology: ChipTopology = field(default_factory=ChipTopology)
    plan: ShardPlan | None = None
    reduce_cycles: float = 0.0
    broadcast_cycles: float = 0.0
    #: Shard-unit programs compiled fresh during this execution (0 when the
    #: whole fleet ran from cached / resident programs).
    fresh_compiles: int = 0

    @property
    def n_chips(self) -> int:
        return len(self.chip_runs)

    @property
    def cache_hit(self) -> bool:
        """True when every chip's shard program came from the cache."""
        return bool(self.chip_runs) and all(run.cache_hit
                                            for run in self.chip_runs)


@dataclass
class ResidentGraph:
    """Per-chip shard state kept resident across the layers of a GNN stack.

    Built once per (graph, feature width) by
    :meth:`MultiChipBackend.prepare_resident`: the shard plan and the
    pre-sliced per-chip units of A stay in host memory, and the program
    cache keys each unit's B slice by structure, so every subsequent layer
    only re-binds feature values into the cached unit programs instead of
    re-planning, re-slicing and re-compiling.
    """

    plan: ShardPlan
    units: list[list[ShardUnit]]
    tile_size: int
    source: str
    b_rows: int
    width: int


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
    fields = dict(
        config_name=config.name,
        workload=source,
        cycles=cycles,
        mmh_instructions=sum(r.mmh_instructions for r in reports),
        hacc_instructions=sum(r.hacc_instructions for r in reports),
        useful_flops=sum(r.useful_flops for r in reports),
        mmh_cpi_mean=float(np.mean([r.mmh_cpi_mean for r in reports])),
        hacc_cpi_mean=float(np.mean([r.hacc_cpi_mean for r in reports])),
        mmh_cpi_histogram=Histogram.merged([r.mmh_cpi_histogram
                                            for r in reports]),
        hacc_cpi_histogram=Histogram.merged([r.hacc_cpi_histogram
                                             for r in reports]),
        stall_cycles=sum(r.stall_cycles for r in reports),
        busy_cycles=sum(r.busy_cycles for r in reports),
        avg_inflight_mem=sum(r.avg_inflight_mem for r in reports)
        if side_by_side > 1
        else float(np.mean([r.avg_inflight_mem for r in reports])),
        memory_traffic_bytes=sum(r.memory_traffic_bytes for r in reports),
        evictions=sum(r.evictions for r in reports),
        spills=sum(r.spills for r in reports),
        peak_hashpad_occupancy=max(r.peak_hashpad_occupancy
                                   for r in reports),
        hashpad_occupancy_fraction=max(r.hashpad_occupancy_fraction
                                       for r in reports),
        noc_flits=sum(r.noc_flits for r in reports),
        noc_avg_hops=float(np.mean([r.noc_avg_hops for r in reports])),
        output_nnz=sum(r.output_nnz for r in reports),
        correct=None if any(r.correct is None for r in reports)
        else all(r.correct for r in reports),
        max_abs_error=max(r.max_abs_error for r in reports),
        wall_clock_seconds=sum(r.wall_clock_seconds for r in reports),
        events=sum(r.events for r in reports),
        eviction_mode=reports[0].eviction_mode,
        mapping_scheme=reports[0].mapping_scheme,
    )
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


def _run_chip(chip: int, assignment: ShardAssignment,
              units: list[ShardUnit], b_csr: CSRMatrix, source: str,
              chip_backend: str, ctx: ExecutionContext, verify: bool,
              tile_size: int, cache=None, check=None) -> ChipRun:
    """Execute one chip's units back to back on a fresh per-chip context.

    Each unit's program comes from
    :func:`~repro.core.runner.fetch_or_compile` against its slice of
    ``b_csr`` (:meth:`ShardUnit.slice_b`), so a unit
    compiled for an earlier call's B is re-bound to this one's values, and
    every program passes ``check``."""
    from repro.core.runner import fetch_or_compile

    backend = get_backend(chip_backend)
    rows_output: CSRMatrix | None = None
    fragment_outputs: list[CSRMatrix] = []
    reports: list[SimulationReport | None] = []
    hits: list[bool] = []
    b_resident = True
    mmh = partial_products = 0
    for unit in units:
        fragment = unit.fragment
        unit_source = f"{source}@chip{chip}" if fragment is None else (
            f"{source}@chip{chip}[r{fragment.row}:"
            f"c{fragment.col_lo}-{fragment.col_hi}]")
        unit_b = unit.slice_b(b_csr)
        program, cache_hit, rebound = fetch_or_compile(
            cache, unit.a, unit_b, tile_size, unit_source, check=check)
        b_resident = b_resident and cache_hit and not rebound
        # The context is immutable chip *configuration*; per-chip isolation
        # comes from the backend building fresh simulator state per execute.
        execution = backend.execute(program, ctx, a_csr=unit.a, b_csr=unit_b,
                                    verify=verify)
        if fragment is None:
            rows_output = execution.output
        else:
            fragment_outputs.append(execution.output)
        reports.append(execution.report)
        hits.append(cache_hit)
        mmh += program.n_instructions
        partial_products += program.total_partial_products
    report = None
    if reports and all(r is not None for r in reports):
        report = reports[0] if len(reports) == 1 else _merge_reports(
            reports, ctx.config, source,
            cycles=float(sum(r.cycles for r in reports)), side_by_side=1)
    return ChipRun(chip=chip, assignment=assignment, output=rows_output,
                   fragment_outputs=fragment_outputs, report=report,
                   mmh=mmh, partial_products=partial_products,
                   cache_hit=bool(hits) and all(hits),
                   b_resident=bool(hits) and b_resident,
                   fresh_compiles=hits.count(False))


def _chip_worker(payload: dict) -> ChipRun:
    """Process-executor entry point: one chip's :func:`_run_chip`
    arguments, its cache rebuilt from the session's disk tier when one is
    configured (shared through the filesystem; in-memory caches stay
    per-worker) and its programs checked at ``verify_level``."""
    from repro.core.runner import ProgramCache

    disk = payload["disk_cache"]
    cache = None if disk is None else ProgramCache(
        disk["capacity"], cache_dir=disk["cache_dir"],
        max_disk_bytes=disk["max_disk_bytes"])
    level = payload["verify_level"]
    check = None if level is None else \
        (lambda key, program: assert_program_valid(program, level))
    return _run_chip(**payload["chip"], cache=cache, check=check)


class MultiChipBackend:
    """Scale one SpGEMM across N chips, one row shard per chip.

    Args:
        topology: the fleet (a default :class:`ChipTopology` when unset).
        cache: optional program cache for the per-shard compiles.
        check: optional ``check(key, program) -> program`` every fetched or
            compiled shard program passes (the session's memoized IR
            verification).
        verify_level: the IR-verification level process workers apply in
            place of ``check`` (which stays in this process).
        executor: optional :class:`~repro.core.executors.Executor` the
            per-chip work fans out on (chips run serially inline when unset).
    """

    def __init__(self, topology: ChipTopology | None = None, cache=None,
                 check=None, verify_level: str | None = None,
                 executor=None) -> None:
        self.topology = topology if topology is not None else ChipTopology()
        self.cache = cache
        self.check = check
        self.verify_level = verify_level
        self.executor = executor

    # ------------------------------------------------------------------
    def execute_operands(self, a_csr: CSRMatrix, b_csr: CSRMatrix | None,
                         ctx: ExecutionContext, tile_size: int,
                         source: str = "spgemm",
                         verify: bool = True) -> MultiChipExecutionResult:
        """Plan, compile per chip, execute per chip, reduce: a one-shot
        run is a resident graph used once, whose chips a process executor
        ships to its workers."""
        b_csr = b_csr if b_csr is not None else a_csr
        resident = self.prepare_resident(a_csr, b_csr, tile_size, source)
        return self._execute(resident, b_csr, ctx, verify,
                             charge_broadcast=True, one_shot=True)

    # ------------------------------------------------------------------
    def prepare_resident(self, a_csr: CSRMatrix, b_csr: CSRMatrix,
                         tile_size: int,
                         source: str = "gnn-stack") -> ResidentGraph:
        """Plan and slice the fleet's shard state once for a layer stack.

        The plan and the per-chip unit slices of A are computed from the
        stack's first feature matrix and stay resident; every layer then
        executes through :meth:`execute_resident`, which only swaps feature
        values into the unit programs."""
        plan = plan_shards(a_csr, self.topology.n_chips, b_csr,
                           strategy=self.topology.partition)
        units = build_shard_units(a_csr, plan)
        return ResidentGraph(plan=plan, units=units, tile_size=tile_size,
                             source=source, b_rows=b_csr.shape[0],
                             width=b_csr.shape[1])

    def execute_resident(self, resident: ResidentGraph, b_csr: CSRMatrix,
                         ctx: ExecutionContext, verify: bool = True,
                         charge_broadcast: bool = False
                         ) -> MultiChipExecutionResult:
        """Execute one layer of a stack over the resident shard state.

        Unlike :meth:`execute_operands`, nothing is re-planned or re-sliced
        and unit programs are cache hits re-bound to this layer's values
        after the first layer (the same programs a one-shot run of these
        operands fetches).  ``charge_broadcast`` is set by the pipeline on
        layer 0 only:
        resident-operand reuse means B ships to the fleet once per *stack*,
        not once per layer (and not at all when the fleet is already warm,
        i.e. no unit program compiles fresh).  Residency lives in this
        process, so chips never ship to a process pool: that would re-pay
        per layer exactly the operand movement the resident graph exists
        to avoid."""
        if b_csr.shape[0] != resident.b_rows:
            raise ValueError(
                f"resident graph expects {resident.b_rows} feature rows, "
                f"got {b_csr.shape[0]}")
        return self._execute(resident, b_csr, ctx, verify,
                             charge_broadcast=charge_broadcast,
                             one_shot=False)

    # ------------------------------------------------------------------
    def _execute(self, resident: ResidentGraph, b_csr: CSRMatrix,
                 ctx: ExecutionContext, verify: bool, charge_broadcast: bool,
                 one_shot: bool) -> MultiChipExecutionResult:
        """Run every chip's units against ``b_csr``, stitch, reduce.

        A one-shot run may ship its chips to a process pool; a resident
        stack layer runs them in this process.  Both fetch their unit
        programs through the same cache keys."""
        topology = self.topology
        plan = resident.plan
        runs = self._run_chips(resident, b_csr, ctx, verify, one_shot)
        output = stitch_shard_outputs(
            plan, [(run.output, run.fragment_outputs) for run in runs],
            b_csr.shape[1])
        reduce_cycles = (topology.reduce_cycles(output.shape[0])
                         if len(runs) > 1 else 0.0)
        # B is replicated on every chip: the run pays for broadcasting it
        # once unless the fleet already holds it.  A one-shot B comes from
        # the host, so the fleet holds it only if every unit program was
        # cached with these values (the ones last sent); a stack's layer-0
        # features count as held on a warm fleet (no fresh compile).
        warm = all(run.b_resident if one_shot else run.cache_hit
                   for run in runs)
        broadcast_cycles = 0.0
        if charge_broadcast and len(runs) > 1 and not warm:
            broadcast_cycles = topology.broadcast_cycles(b_csr.nnz)
        report = None
        if all(run.report is not None for run in runs):
            report = _aggregate_report(runs, plan, output, reduce_cycles,
                                       broadcast_cycles, b_csr.nnz, ctx,
                                       resident.source)
        return MultiChipExecutionResult(
            backend="multichip", output=output, report=report,
            chip_runs=runs, topology=topology, plan=plan,
            reduce_cycles=reduce_cycles, broadcast_cycles=broadcast_cycles,
            fresh_compiles=sum(run.fresh_compiles for run in runs))

    def _run_chips(self, resident: ResidentGraph, b_csr: CSRMatrix,
                   ctx: ExecutionContext, verify: bool,
                   one_shot: bool) -> list[ChipRun]:
        jobs = [dict(chip=index, assignment=assignment, units=units,
                     b_csr=b_csr, source=resident.source,
                     chip_backend=self.topology.chip_backend, ctx=ctx,
                     verify=verify, tile_size=resident.tile_size)
                for index, (assignment, units)
                in enumerate(zip(resident.plan.shards, resident.units))]
        executor = self.executor
        process_pool = executor is not None and executor.name == "process"
        if process_pool and one_shot:
            # Each payload ships its chip's units and a full copy of B (the
            # executor abstraction has no pool-initializer hook to
            # broadcast B once per worker); chip counts are small, so the
            # duplicated serialization is bounded at n_chips * nnz(B).
            cache_dir = getattr(self.cache, "cache_dir", None)
            disk = None if cache_dir is None else {
                "capacity": self.cache.capacity, "cache_dir": cache_dir,
                "max_disk_bytes": self.cache.max_disk_bytes}
            return executor.map(_chip_worker, [
                {"chip": job, "disk_cache": disk,
                 "verify_level": self.verify_level} for job in jobs])

        def chip_job(job: dict) -> ChipRun:
            return _run_chip(**job, cache=self.cache, check=self.check)

        if executor is None or process_pool:  # resident chips stay here
            return [chip_job(job) for job in jobs]
        return executor.map(chip_job, jobs)


def _aggregate_report(runs: list[ChipRun], plan: ShardPlan,
                      output: CSRMatrix, reduce_cycles: float,
                      broadcast_cycles: float, b_nnz: int,
                      ctx: ExecutionContext, source: str) -> SimulationReport:
    """Fleet-level report: cycles = max over chips + host reduce +
    cold-run B broadcast, activity totals summed over chips running side by
    side, shard-skew counters recorded."""
    config = ctx.config
    reports = [run.report for run in runs]
    pp = sum(run.partial_products for run in runs)
    pp_per_chip = [run.partial_products for run in runs]
    mean_pp = pp / len(runs) if runs else 0.0
    skew = max(pp_per_chip) / mean_pp if mean_pp else 1.0
    counters = {
        "multichip.n_chips": len(runs),
        "multichip.reduce_cycles": round(reduce_cycles, 1),
        "multichip.broadcast_cycles": round(broadcast_cycles, 1),
        "multichip.broadcast_bytes": 0 if broadcast_cycles == 0.0
        else b_nnz,
        "multichip.shard_skew": round(skew, 4),
        "multichip.efficiency": round(
            pp / (len(runs) * max(pp_per_chip)), 4) if pp else 1.0,
        "multichip.split_rows": len(plan.split_rows),
    }
    for run in runs:
        counters[f"multichip.chip{run.chip}.cycles"] = run.cycles
        counters[f"multichip.chip{run.chip}.rows"] = run.n_rows
        counters[f"multichip.chip{run.chip}.fragments"] = \
            len(run.assignment.fragments)
        counters[f"multichip.chip{run.chip}.partial_products"] = \
            run.partial_products
    cycles = float(max(report.cycles for report in reports)
                   + reduce_cycles + broadcast_cycles)
    return _merge_reports(
        reports, config, source, cycles, side_by_side=len(runs),
        config_name=f"{config.name}x{len(runs)}",
        mmh_instructions=sum(run.mmh for run in runs), hacc_instructions=pp,
        output_nnz=output.nnz, eviction_mode=ctx.eviction_mode,
        mapping_scheme=ctx.mapping_scheme, counters=counters)

#: Trust band for :func:`predict_scaleout`: on the recorded scaling curve
#: (``benchmarks/results/bench_multichip.json``) the predicted speedup must
#: stay within this multiplicative factor of the measured cycle-model
#: speedup.  The prediction is an upper bound (it ignores the per-chip
#: latency floor, the host reduce term, and the cold-run B broadcast), so
#: the gap is one-sided; ``tests/test_scaleout_calibration.py`` pins it —
#: the same contract as the analytic backend's ±25% ``CALIBRATED_TOLERANCE``.
SCALEOUT_CALIBRATION_BAND = 1.25


def predict_scaleout(a_csr: CSRMatrix, n_chips: int,
                     b_csr: CSRMatrix | None = None,
                     partition: str = "auto") -> dict:
    """Analytic fast path: predict scale-out efficiency without simulating.

    Uses only the per-shard partial-product histogram the planner would
    produce: the fleet finishes when its most loaded chip does, so the
    throughput-bound speedup is ``total_pp / max_shard_pp`` and the
    efficiency is that speedup over the chip count.  The prediction is an
    *upper bound* — it ignores the per-chip latency floor and the host
    reduce term — and is trustworthy when per-chip work dominates both
    (large graphs on throughput-bound configurations); distrust it on tiny
    or extremely sparse shards where the latency floor sets the runtime.

    ``partition`` selects the planning strategy exactly like
    :class:`ChipTopology.partition`, so the predicted plan (including the
    planner's structurally-empty-product fallback, shared through
    :func:`~repro.sparse.partition.resolve_shard_weights`) is the plan
    ``execute_operands`` actually runs.

    Returns a dict with ``n_chips`` (effective, after degenerate-input
    clamping), ``strategy`` (the plan the probe chose), ``split_rows``,
    ``shard_partial_products``, ``shard_rows``, ``shard_fragments``,
    ``skew`` (max/mean shard load), ``efficiency`` and
    ``predicted_speedup``.
    """
    plan = plan_shards(a_csr, n_chips, b_csr, strategy=partition)
    loads = plan.loads
    total = int(loads.sum())
    peak = int(loads.max()) if loads.size else 0
    speedup = total / peak if peak else 1.0
    return {
        "n_chips": plan.n_shards,
        "strategy": plan.strategy,
        "split_rows": len(plan.split_rows),
        "shard_rows": [int(shard.rows.size) for shard in plan.shards],
        "shard_fragments": [len(shard.fragments) for shard in plan.shards],
        "shard_partial_products": loads.tolist(),
        "skew": round(plan.skew, 4),
        "efficiency": round(speedup / plan.n_shards, 4)
        if plan.n_shards else 1.0,
        "predicted_speedup": round(speedup, 4),
    }
