"""The unified Session API: declarative specs in, RunResult envelopes out.

A :class:`Session` owns one chip — a frozen
:class:`~repro.backends.base.ExecutionContext` every run executes on —
backend resolution, an executor (``serial`` / ``thread`` / ``process``,
named like backends), and a persistent LRU
:class:`~repro.core.runner.ProgramCache`.  Workloads are described
declaratively (:mod:`repro.core.specs`) and submitted through three verbs::

    from repro.core import Session, SpGEMMSpec

    with Session("Tile-16", backend="analytic", executor="process",
                 workers=4, cache_dir="~/.cache/neurachip-repro") as session:
        result = session.run(SpGEMMSpec(a=adjacency))          # one result
        results = session.map([SpGEMMSpec(a=m) for m in mats]) # fan-out
        future = session.submit(SpGEMMSpec(a=adjacency))       # async

Every execution returns a :class:`~repro.core.specs.RunResult` carrying
metrics, activity factors, power/energy, and provenance (backend,
executor, cache hit, wall time, shard count).

Every SpGEMM-shaped run — a plain SpGEMM, a multichip run, a host-sharded
run and the aggregation of every GCN layer — goes through one helper,
:meth:`Session._execute`.  A :class:`~repro.core.specs.GCNLayerSpec` and a
:class:`~repro.core.specs.GNNModelSpec` share one executor,
:func:`repro.gnn.pipeline.run_gnn_model`: a GCN layer is a one-layer
stack fed its own input.

Scale-out: ``Session(backend="multichip", chips=N, chip_backend=...,
partition=...)`` assigns balanced row shards to N distinct chip instances
— one :class:`~repro.backends.base.ExecutionContext` per chip, each with
its own compiled shard program and stats — and reduces per-chip products
into an output byte-identical to the single-chip product, with cycles
modelled as the slowest chip plus a host reduce term and power summed
across the fleet.

Sharding: an :class:`~repro.core.specs.SpGEMMSpec` with ``shards > 1`` runs
through the same multichip machinery on a fleet of ``shards`` chips of the
session backend.  The shards stand for pieces run one after another on
this chip, so cycles and energy sum over them (a sequential estimate) and
power is the peak shard's.

A fleet's chips always run in the session's process (inline, or on the
thread executor), against its program cache, so every executor models
the same cycles; a process executor ships whole specs, never chips.
"""

from __future__ import annotations

import threading
import time
from functools import partial
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from repro.analysis.findings import VerificationError
from repro.analysis.verifier import VERIFY_LEVELS, verify_program
from repro.arch.config import NeuraChipConfig, get_config
from repro.backends import ChipTopology, get_backend
from repro.backends.base import ExecutionContext, ExecutionResult
from repro.backends.multichip import MultiChipBackend, ResidentGraph
from repro.compiler.program import ProgramDigest
from repro.core.executors import Executor, get_executor
from repro.core.runner import (
    DEFAULT_CACHE_CAPACITY,
    DEFAULT_DISK_CAPACITY_BYTES,
    ProgramCache,
    fetch_or_compile,
)
from repro.core.specs import (
    BatchSpec,
    GCNLayerSpec,
    GNNModelSpec,
    Provenance,
    RunResult,
    SpGEMMSpec,
    SweepSpec,
    WorkloadSpec,
)
from repro.power.model import activity_from_report, estimate_power
from repro.sim.params import SimulationParams
from repro.sparse.convert import as_csr
from repro.sparse.csr import CSRMatrix
from repro.sparse.partition import PARTITION_STRATEGIES

#: Feature widths whose resident fleet state a session keeps for one
#: graph: every width of a stack of up to this many layers.
_RESIDENT_WIDTHS = 16


# ----------------------------------------------------------------------
# Process-executor workers (module level so they pickle)
# ----------------------------------------------------------------------
def _process_spec_worker(state: dict, spec: WorkloadSpec) -> RunResult:
    """Run one spec in a worker process with a session rebuilt from
    ``state``; the in-memory cache is per-worker but the disk cache (when
    configured) is shared through the filesystem."""
    session = Session(**state)
    try:
        # Slim the result so the reply doesn't serialise the full program;
        # count-level digests keep every report column working.
        return session.run(spec).slim()
    finally:
        session.close()


def _sweep_config_worker(payload: dict) -> tuple[str, dict[str, float]]:
    """Run one configuration of a design-space sweep through a session
    rebuilt from ``payload["state"]`` and return its raw Figure-11 metrics
    row."""
    with Session(**payload["state"]) as session:
        result = session.run(SpGEMMSpec(a=payload["a"], b=payload["b"],
                                        verify=False))
    report = result.report
    if report is None:
        raise ValueError(f"backend {session.backend!r} produces no timing "
                         "report; use 'cycle' or 'analytic'")
    return session.ctx.config.name, {
        "stall_cycles": report.stall_cycles,
        "cpi": report.cpi,
        "ipc": report.ipc,
        "in_flight_instx": report.avg_inflight_mem,
        "power": result.power_w,
        "busy_cycles": report.busy_cycles,
        "cycles": report.cycles,
        "gops": report.gops,
    }


# ----------------------------------------------------------------------
# Session
# ----------------------------------------------------------------------
class Session:
    """One configured chip (``ctx``) + backend + executor + cache.

    Args:
        chip_config: configuration name or :class:`NeuraChipConfig`.
        backend: execution backend name for every run (see
            :func:`~repro.backends.registry.available_backends`).
        executor: executor name ('serial', 'thread', 'process').
        workers: worker count for the pooled executors.
        cache: an existing :class:`ProgramCache` to share; overrides
            ``cache_dir`` / ``cache_capacity``.
        cache_dir: directory for the persistent program cache; ``None``
            keeps the cache in memory only.
        cache_capacity: in-memory LRU bound.
        cache_max_disk_bytes: size cap of the on-disk cache tier (swept
            oldest-mtime-first on spill); ``None`` disables the sweep.
        chips: chip count of the ``multichip`` backend's fleet (1 when
            unset); requires ``backend="multichip"``.
        chip_backend: single-chip backend every chip of that fleet runs
            ('analytic' when unset, 'cycle' or 'functional'); requires
            ``backend="multichip"``.
        partition: shard planning strategy ('auto', 'contiguous' or
            'degree') for both host-side sharding (``shards > 1``) and the
            multichip backend; 'auto' (default) keeps contiguous ranges
            unless a cheap skew probe shows the degree-aware index-set
            plan is measurably more balanced.
        mapping_scheme / eviction_mode / params / mapping_seed: the chip's
            run settings; ``mapping_scheme=None`` takes the configuration's
            scheme, ``params=None`` the default :class:`SimulationParams`.

    The configuration and these settings resolve once into ``self.ctx``,
    the :class:`~repro.backends.base.ExecutionContext` every run executes
    on, and the fleet settings into ``self.topology`` (a
    :class:`~repro.backends.multichip.ChipTopology`; ``None`` off the
    multichip backend).  All names (configuration, backend, executor,
    chip backend) are resolved eagerly so a typo fails at construction,
    not mid-batch.
    """

    def __init__(self, chip_config: str | NeuraChipConfig = "Tile-16", *,
                 backend: str = "cycle",
                 executor: str = "serial", workers: int | None = None,
                 cache: ProgramCache | None = None,
                 cache_dir: str | Path | None = None,
                 cache_capacity: int = DEFAULT_CACHE_CAPACITY,
                 cache_max_disk_bytes: int | None = DEFAULT_DISK_CAPACITY_BYTES,
                 chips: int | None = None,
                 chip_backend: str | None = None,
                 partition: str = "auto",
                 mapping_scheme: str | None = None,
                 eviction_mode: str = "rolling",
                 params: SimulationParams | None = None,
                 mapping_seed: int = 0,
                 verify: str | None = None) -> None:
        config = get_config(chip_config) if isinstance(chip_config, str) \
            else chip_config
        # Kept unresolved: a sweep's configurations each take their own
        # default scheme unless one was given here.
        self._mapping_scheme = mapping_scheme
        self.ctx = ExecutionContext(
            config=config, params=params or SimulationParams(),
            mapping_scheme=mapping_scheme or config.mapping_scheme,
            mapping_seed=mapping_seed, eviction_mode=eviction_mode)
        if partition not in PARTITION_STRATEGIES:
            raise ValueError(f"unknown partition strategy {partition!r}; "
                             f"expected one of {PARTITION_STRATEGIES}")
        self.topology: ChipTopology | None = None
        if backend == "multichip":
            self.topology = ChipTopology(
                n_chips=1 if chips is None else chips,
                chip_backend=chip_backend or "analytic", partition=partition)
        elif chips is not None or chip_backend is not None:
            raise ValueError("chips/chip_backend require "
                             f"backend='multichip'; got backend={backend!r}")
        else:
            get_backend(backend)  # fail fast on unknown names
        self.backend = backend
        self.partition = partition
        self.executor: Executor = get_executor(executor, workers=workers)
        self.cache = cache if cache is not None else \
            ProgramCache(cache_capacity, cache_dir=cache_dir,
                         max_disk_bytes=cache_max_disk_bytes)
        if verify in (None, "off"):
            self.verify_mode: str | None = None
        elif verify in VERIFY_LEVELS:
            self.verify_mode = verify
        else:
            raise ValueError(f"unknown verify mode {verify!r}; expected "
                             f"one of {VERIFY_LEVELS} or None/'off'")
        self._verify_lock = threading.Lock()
        self._verified_digests: set = set()  # guarded-by: _verify_lock
        self.verify_runs = 0  # guarded-by: _verify_lock
        self.verify_skips = 0  # guarded-by: _verify_lock
        self._resident_lock = threading.Lock()
        self._resident_memo: tuple | None = None  # guarded-by: _resident_lock
        self._local = threading.local()
        self._closed = False

    # ------------------------------------------------------------------
    # Public verbs
    # ------------------------------------------------------------------
    def run(self, spec: WorkloadSpec) -> RunResult:
        """Execute one spec and return its :class:`RunResult`."""
        self._ensure_open()
        return self._run_one(spec)

    def map(self, specs: Iterable[WorkloadSpec]) -> list[RunResult]:
        """Execute many specs over the session executor; results come back
        in submission order."""
        self._ensure_open()
        return self._map_specs(list(specs))

    def submit(self, spec: WorkloadSpec):
        """Schedule one spec; returns a ``concurrent.futures.Future`` whose
        result is the :class:`RunResult`."""
        self._ensure_open()
        if self.executor.name == "process":
            fn = partial(_process_spec_worker, self._subprocess_state())
        else:
            fn = self._run_in_worker
        return self.executor.submit(fn, spec)

    def close(self) -> None:
        """Release executor resources; safe to call more than once."""
        if self._closed:
            return
        self._closed = True
        self.executor.shutdown()

    @property
    def closed(self) -> bool:
        """True once :meth:`close` (or ``__exit__``) has run."""
        return self._closed

    def _ensure_open(self) -> None:
        if self._closed:
            raise RuntimeError("session is closed")

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def cache_stats(self) -> dict:
        """Program-cache hit/miss counters and sizing."""
        return self.cache.stats()

    def verify_stats(self) -> dict:
        """IR-verification counters: mode, programs verified (one per
        distinct cache key, memoized) and memo-hit skips."""
        with self._verify_lock:
            return {"verify_mode": self.verify_mode,
                    "verify_runs": self.verify_runs,
                    "verify_skips": self.verify_skips}

    def _maybe_verify(self, key: tuple, program):
        """Run the static IR verifier on ``program`` once per cache key.

        With ``verify=None`` this is a no-op.  Otherwise the first sight
        of a key (fresh compile, memory hit or disk hit) pays one
        verification at the session's level; repeats are memo hits.  A
        failed verification un-reserves the key (so a later, repaired
        program is re-checked) and raises
        :class:`~repro.analysis.findings.VerificationError`.
        """
        if self.verify_mode is None:
            return program
        with self._verify_lock:
            if key in self._verified_digests:
                self.verify_skips += 1
                return program
            self._verified_digests.add(key)
        findings = verify_program(program, level=self.verify_mode)
        if findings:
            with self._verify_lock:
                self._verified_digests.discard(key)
            raise VerificationError(
                f"program {program.source!r} failed IR verification: "
                + "; ".join(f.format() for f in findings[:3]), findings)
        with self._verify_lock:
            self.verify_runs += 1
        return program

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _run_one(self, spec: WorkloadSpec) -> RunResult:
        if isinstance(spec, SpGEMMSpec):
            return self._run_spgemm(spec)
        if isinstance(spec, (GCNLayerSpec, GNNModelSpec)):
            from repro.gnn.pipeline import run_gnn_model

            return run_gnn_model(self, spec)
        if isinstance(spec, SweepSpec):
            return self._run_sweep(spec)
        if isinstance(spec, BatchSpec):
            return self._run_batch(spec)
        raise TypeError(f"unsupported spec type {type(spec)!r}")

    def _map_specs(self, specs: Sequence[WorkloadSpec]) -> list[RunResult]:
        if getattr(self._local, "in_worker", False):
            # Already inside one of this session's pool workers (a sharded
            # spec within a batch, or a sharded submit): fanning out to the
            # same pool and blocking on the results would deadlock once the
            # pool is saturated, so nested work runs inline instead.
            return [self._run_one(spec) for spec in specs]
        if self.executor.name == "process":
            fn = partial(_process_spec_worker, self._subprocess_state())
            return self.executor.map(fn, specs)
        return self.executor.map(self._run_in_worker, specs)

    def _run_in_worker(self, spec: WorkloadSpec) -> RunResult:
        """Run one spec with the worker flag set so nested fan-out stays
        inline (see :meth:`_map_specs`)."""
        self._local.in_worker = True
        try:
            return self._run_one(spec)
        finally:
            self._local.in_worker = False

    def _subprocess_state(self) -> dict:
        """Constructor kwargs rebuilding this session inside a worker
        process, or each configuration's session of a sweep (executor
        forced serial; disk cache shared, memory not)."""
        ctx, topology = self.ctx, self.topology
        return {
            "chip_config": ctx.config,
            "backend": self.backend,
            "chips": None if topology is None else topology.n_chips,
            "chip_backend": None if topology is None
            else topology.chip_backend,
            "partition": self.partition,
            "executor": "serial",
            "cache_dir": self.cache.cache_dir,
            "cache_capacity": self.cache.capacity,
            "cache_max_disk_bytes": self.cache.max_disk_bytes,
            "mapping_scheme": self._mapping_scheme,
            "eviction_mode": ctx.eviction_mode,
            "params": ctx.params,
            "mapping_seed": ctx.mapping_seed,
            "verify": self.verify_mode,
        }

    # ------------------------------------------------------------------
    # SpGEMM
    # ------------------------------------------------------------------
    def check_shards(self, shards: int) -> None:
        """Refuse host ``shards`` above 1 on a multichip session, whose
        chips are its shards."""
        if self.backend == "multichip" and shards > 1:
            raise ValueError(
                "shards: the multichip backend assigns row shards to chips "
                "itself; set Session(chips=N) instead of SpGEMMSpec(shards=N)")

    def _run_spgemm(self, spec: SpGEMMSpec) -> RunResult:
        start = time.perf_counter()
        self.check_shards(spec.shards)
        a_csr = as_csr(spec.a)
        b_csr = as_csr(spec.b) if spec.b is not None else None
        result, _ = self._execute(
            a_csr, b_csr, self.ctx.config.mmh_tile_size
            if spec.tile_size is None else spec.tile_size,
            spec.source, spec.verify, shards=spec.shards)
        result.label = spec.label
        result.provenance.wall_time_s = time.perf_counter() - start
        return result

    def _execute(self, a_csr: CSRMatrix, b_csr: CSRMatrix | np.ndarray | None,
                 tile: int, source: str, verify: bool, shards: int = 1,
                 resident: ResidentGraph | None = None,
                 charge_broadcast: bool = True, fresh_b: bool = False
                 ) -> tuple[RunResult, ExecutionResult]:
        """Run C = A @ B (``b_csr=None`` means A @ A) on the session
        backend; returns the ``spgemm`` result and the backend's raw
        execution.

        This is the one SpGEMM execution path; a GCN layer and every layer
        of a GNN stack aggregate through it too.  A single-chip backend
        with ``shards == 1`` runs one cached, verified program.  Otherwise
        the multichip backend plans, compiles and executes per chip: over
        the session topology, or — for ``shards > 1`` — over ``shards``
        chips of the session backend that stand for host shards run one
        after another on this chip, so their cycles and energy sum and
        power is the peak chip's.  Given ``resident`` shard state (a GNN
        stack layer on the fleet), the fleet runs over it without
        re-planning and charges the B broadcast only when
        ``charge_broadcast``; without it, the run is one-shot.  ``fresh_b``
        marks B as a stack's own layer input, a dense ``(n, W)`` array
        (:func:`fetch_or_compile`): the output is dense and the result holds
        only ``cycles``, ``verified``, power, energy and provenance.
        Every path yields an output byte-identical to the unsharded product.
        """
        ctx = self.ctx
        if self.backend != "multichip" and shards == 1:
            program, cache_hit, _ = fetch_or_compile(
                self.cache, a_csr, b_csr, tile, source,
                check=self._maybe_verify, fresh_b=fresh_b)
            execution = ExecutionResult(
                self.backend, program.replay_dense() if fresh_b
                else program.replay(), get_backend(self.backend).report(
                    program, ctx, verify=verify))
            report = execution.report
            reports = [report]
            power_w, energy_j = estimate_power(ctx.config, report)
            provenance = self._provenance(cache_hit=cache_hit)
        else:
            backend = self._multichip_backend(shards)
            if resident is None:
                execution = backend.execute_operands(
                    a_csr, b_csr, ctx, tile_size=tile, source=source,
                    verify=verify)
            else:
                execution = backend.execute_resident(
                    resident, b_csr, ctx, verify=verify,
                    charge_broadcast=charge_broadcast)
            runs = execution.chip_runs
            reports = [run.report for run in runs]
            powers, energies = zip(*(estimate_power(ctx.config, r)
                                     for r in reports))
            energy_j = sum(energies)
            provenance = self._provenance(cache_hit=execution.cache_hit)
            if shards > 1:
                # The chips stand for shards run back to back: time them
                # all; no single report backs more than one shard.
                report = reports[0] if len(runs) == 1 else None
                power_w = max(powers)  # the peak shard's
                provenance.shards = len(runs)
            else:  # chips side by side: their power adds up
                report = execution.report
                power_w = sum(powers)
                provenance.chips = execution.n_chips
            if not fresh_b:  # a stack layer's output is a dense array
                program = ProgramDigest(
                    n_instructions=sum(run.mmh for run in runs),
                    total_partial_products=sum(run.partial_products
                                               for run in runs),
                    output_nnz=execution.output.nnz,
                    shape=execution.output.shape, tile_size=tile,
                    a_nnz=a_csr.nnz,
                    b_nnz=(b_csr if b_csr is not None else a_csr).nnz,
                    source=source)
        cycles = execution.cycles if self.backend == "multichip" else float(
            sum(r.cycles for r in reports if r is not None))
        verdicts = [r.correct if r is not None else None for r in reports]
        verified = None if None in verdicts else all(verdicts)
        if fresh_b:  # a stack layer reads nothing else
            return RunResult(kind="spgemm", provenance=provenance,
                             metrics={"cycles": cycles, "verified": verified},
                             output=execution.output, power_w=power_w,
                             energy_j=energy_j), execution
        seconds = cycles / (ctx.config.frequency_ghz * 1e9)
        metrics = {
            "cycles": cycles,
            # Partial products per modelled second: a timing report's own
            # gops, and the correct rate for shards run back to back.
            "gops": round(program.total_partial_products / seconds / 1e9, 3)
            if seconds > 0 else 0.0,
            "mmh": program.n_instructions,
            "partial_products": program.total_partial_products,
            "output_nnz": execution.output.nnz,
        }
        if self.backend == "multichip":
            counters = report.counters if report is not None else {}
            metrics.update({
                "chips": execution.n_chips,
                "shard_skew": counters.get("multichip.shard_skew"),
                "efficiency": counters.get("multichip.efficiency"),
                "partition": execution.plan.strategy,
                "split_rows": len(execution.plan.split_rows),
            })
        metrics["verified"] = verified
        activity = activity_from_report(report) if report is not None else {}
        return RunResult(
            kind="spgemm", metrics=metrics, activity=activity,
            provenance=provenance, output=execution.output, report=report,
            program=program, power_w=power_w, energy_j=energy_j), execution

    def _multichip_backend(self, shards: int = 1) -> MultiChipBackend:
        """A configured :class:`~repro.backends.multichip.MultiChipBackend`.

        Its fleet is the session topology, or for ``shards > 1`` that many
        chips of the session backend under the session's partition
        strategy.  It shares the session's program cache and IR
        verification, and fans per-chip work out over a thread executor
        (inline otherwise, and when already inside a pool worker, so a
        sharded or multichip spec inside a batch cannot deadlock the
        pool)."""
        return MultiChipBackend(
            topology=self.topology if shards == 1 else ChipTopology(
                n_chips=shards, chip_backend=self.backend,
                partition=self.partition),
            cache=self.cache, check=self._maybe_verify,
            executor=None if getattr(self._local, "in_worker", False)
            else self.executor)

    def _resident_graph(self, a_csr: CSRMatrix,
                        b_csr: CSRMatrix | np.ndarray, tile: int,
                        source: str) -> ResidentGraph:
        """The fleet state planned for this ``a_csr`` (held here, so
        identity is sound) at this width, tile, label and topology: one
        per width, all dropped when the graph or anything else changes."""
        key = (tile, source, self.topology)
        width = b_csr.shape[1]
        with self._resident_lock:
            memo = self._resident_memo
            if memo is None or memo[0] is not a_csr or memo[1] != key:
                memo = self._resident_memo = (a_csr, key, {})
            resident = memo[2].get(width)
        if resident is None:
            resident = self._multichip_backend().prepare_resident(
                a_csr, b_csr, tile, source=source)
            with self._resident_lock:
                plans = memo[2]
                if len(plans) >= _RESIDENT_WIDTHS:
                    del plans[next(iter(plans))]  # the oldest width
                plans[width] = resident
        return resident

    # ------------------------------------------------------------------
    # Design-space sweep
    # ------------------------------------------------------------------
    def _run_sweep(self, spec: SweepSpec) -> RunResult:
        start = time.perf_counter()
        if self.backend == "functional":
            raise ValueError("backend 'functional' produces no timing report; "
                             "use 'cycle' or 'analytic'")
        state = self._subprocess_state()
        payloads = [{"state": {**state, "chip_config": config},
                     "a": spec.a, "b": spec.b} for config in spec.configs]
        raw = dict(self.executor.map(_sweep_config_worker, payloads))
        table = raw if spec.normalize_to is None else \
            self._normalize_sweep(raw, spec)
        wall = time.perf_counter() - start
        return RunResult(
            kind="sweep", label=spec.label, metrics={"configs": len(table)},
            provenance=self._provenance(cache_hit=False, wall=wall),
            output=table)

    @staticmethod
    def _normalize_sweep(raw: dict, spec: SweepSpec) -> dict:
        base_name = get_config(spec.normalize_to).name \
            if isinstance(spec.normalize_to, str) else spec.normalize_to.name
        base = raw[base_name]
        normalized: dict[str, dict[str, float]] = {}
        for name, metrics in raw.items():
            normalized[name] = {}
            for key, value in metrics.items():
                if not base.get(key):
                    if spec.on_missing_base == "raise":
                        raise ValueError(
                            f"cannot normalise metric {key!r}: baseline "
                            f"{base_name!r} reports {base.get(key)!r}")
                    continue
                normalized[name][key] = value / base[key]
        return normalized

    # ------------------------------------------------------------------
    # Batch
    # ------------------------------------------------------------------
    def _run_batch(self, spec: BatchSpec) -> RunResult:
        """Run the member specs over the executor; ``parts`` holds the
        per-job results, ``metrics`` the batch summary row."""
        start = time.perf_counter()
        parts = self._map_specs(spec.specs)
        wall = time.perf_counter() - start
        cache_hits = sum(part.cache_hit for part in parts)
        energy_j = sum(part.energy_j for part in parts)
        metrics = {
            "jobs": len(parts),
            "backend": self.backend,
            "executor": self.executor.name,
            "total_cycles": sum(part.metrics["cycles"] for part in parts),
            "total_partial_products": sum(part.metrics["partial_products"]
                                          for part in parts),
            "total_energy_j": round(energy_j, 9),
            "cache_hits": cache_hits,
            "wall_time_s": round(wall, 6),
            "compile_cache_hits": cache_hits,  # older column name
        }
        return RunResult(
            kind="batch", label=spec.label, metrics=metrics,
            provenance=self._provenance(
                cache_hit=bool(parts) and cache_hits == len(parts),
                wall=wall),
            parts=parts,
            power_w=max((part.power_w for part in parts), default=0.0),
            energy_j=energy_j)

    # ------------------------------------------------------------------
    def _provenance(self, cache_hit: bool, wall: float = 0.0) -> Provenance:
        return Provenance(backend=self.backend,
                          executor=self.executor.name,
                          config=self.ctx.config.name,
                          cache_hit=cache_hit, wall_time_s=wall)
