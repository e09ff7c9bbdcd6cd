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

Scale-out: ``Session(backend="multichip", chips=N)`` (or a full
:class:`~repro.backends.multichip.ChipTopology`) assigns balanced row
shards to N distinct chip instances — one
:class:`~repro.backends.base.ExecutionContext` per chip, each with its own
compiled shard program and stats — and reduces per-chip products into an
output byte-identical to the single-chip product, with cycles modelled as
the slowest chip plus a host reduce term and power summed across the fleet.

Sharding: an :class:`~repro.core.specs.SpGEMMSpec` with ``shards > 1`` runs
through the same multichip machinery on a fleet of ``shards`` chips of the
session backend, whose per-chip work fans out over the session executor.
The shards stand for pieces run one after another on this chip, so cycles
and energy sum over them (a sequential estimate) and power is the peak
shard's.
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace as _replace_spec
from functools import partial
from pathlib import Path
from typing import Iterable, Sequence

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
    """Run one configuration of a design-space sweep through its own
    session and return its raw Figure-11 metrics row."""
    with Session(payload["config"], backend=payload["backend"],
                 topology=payload["topology"],
                 eviction_mode=payload["eviction_mode"],
                 params=payload["params"]) as session:
        result = session.run(SpGEMMSpec(a=payload["a"], b=payload["b"],
                                        verify=False))
    report = result.report
    if report is None:
        raise ValueError(f"backend {payload['backend']!r} produces no timing "
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
        chips: chip count for the ``multichip`` backend (shorthand for
            ``topology=ChipTopology(n_chips=chips)``).
        topology: full :class:`~repro.backends.multichip.ChipTopology`
            (chip count, per-chip backend, host-reduce cost model); only
            meaningful with ``backend="multichip"``.
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
    on.  All names (configuration, backend, executor) are resolved eagerly
    so a typo fails at construction, not mid-batch.
    """

    def __init__(self, chip_config: str | NeuraChipConfig = "Tile-16", *,
                 backend: str = "cycle",
                 executor: str = "serial", workers: int | None = None,
                 cache: ProgramCache | None = None,
                 cache_dir: str | Path | None = None,
                 cache_capacity: int = DEFAULT_CACHE_CAPACITY,
                 cache_max_disk_bytes: int | None = DEFAULT_DISK_CAPACITY_BYTES,
                 chips: int | None = None,
                 topology: ChipTopology | None = None,
                 partition: str = "auto",
                 mapping_scheme: str | None = None,
                 eviction_mode: str = "rolling",
                 params: SimulationParams | None = None,
                 mapping_seed: int = 0,
                 verify: str | None = None) -> None:
        config = get_config(chip_config) if isinstance(chip_config, str) \
            else chip_config
        self.ctx = ExecutionContext(
            config=config, params=params or SimulationParams(),
            mapping_scheme=mapping_scheme or config.mapping_scheme,
            mapping_seed=mapping_seed, eviction_mode=eviction_mode)
        if backend != "multichip":
            get_backend(backend)  # fail fast on unknown names
        if chips is not None and topology is not None \
                and topology.n_chips != chips:
            raise ValueError(f"chips={chips} contradicts "
                             f"topology.n_chips={topology.n_chips}")
        if partition not in PARTITION_STRATEGIES:
            raise ValueError(f"unknown partition strategy {partition!r}; "
                             f"expected one of {PARTITION_STRATEGIES}")
        if topology is None and chips is not None:
            topology = ChipTopology(n_chips=chips, partition=partition)
        if backend == "multichip" and topology is None:
            topology = ChipTopology(partition=partition)
        if topology is not None and partition != "auto":
            if topology.partition == "auto":
                topology = _replace_spec(topology, partition=partition)
            elif topology.partition != partition:
                raise ValueError(
                    f"partition={partition!r} contradicts "
                    f"topology.partition={topology.partition!r}")
        if topology is not None and backend != "multichip":
            raise ValueError("chips/topology require backend='multichip'; "
                             f"got backend={backend!r}")
        self.backend = backend
        self.topology = topology
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
        process (executor forced serial; disk cache shared, memory not)."""
        ctx = self.ctx
        return {
            "chip_config": ctx.config,
            "backend": self.backend,
            "topology": self.topology,
            "partition": self.partition,
            "executor": "serial",
            "cache_dir": self.cache.cache_dir,
            "cache_capacity": self.cache.capacity,
            "cache_max_disk_bytes": self.cache.max_disk_bytes,
            "mapping_scheme": ctx.mapping_scheme,
            "eviction_mode": ctx.eviction_mode,
            "params": ctx.params,
            "mapping_seed": ctx.mapping_seed,
            "verify": self.verify_mode,
        }

    # ------------------------------------------------------------------
    # SpGEMM
    # ------------------------------------------------------------------
    def _run_spgemm(self, spec: SpGEMMSpec) -> RunResult:
        start = time.perf_counter()
        if self.backend == "multichip" and spec.shards > 1:
            raise ValueError(
                "the multichip backend assigns row shards to chips itself; "
                "set Session(chips=N) instead of SpGEMMSpec(shards=N)")
        a_csr = as_csr(spec.a)
        b_csr = as_csr(spec.b) if spec.b is not None else None
        result, _ = self._execute(
            a_csr, b_csr, self.ctx.config.mmh_tile_size
            if spec.tile_size is None else spec.tile_size,
            spec.source, spec.verify, shards=spec.shards)
        result.label = spec.label
        result.provenance.wall_time_s = time.perf_counter() - start
        return result

    def _execute(self, a_csr: CSRMatrix, b_csr: CSRMatrix | None,
                 tile: int, source: str, verify: bool, shards: int = 1,
                 resident: ResidentGraph | None = None,
                 charge_broadcast: bool = True
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
        ``charge_broadcast``; without it, the run is one-shot.  Every path
        yields an output byte-identical to the unsharded product.
        """
        ctx = self.ctx
        if self.backend != "multichip" and shards == 1:
            program, cache_hit, _ = fetch_or_compile(
                self.cache, a_csr, b_csr, tile, source,
                check=self._maybe_verify)
            execution = get_backend(self.backend).execute(
                program, ctx, a_csr=a_csr,
                b_csr=b_csr if b_csr is not None else a_csr, verify=verify)
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
            program = ProgramDigest(
                n_instructions=sum(run.mmh for run in runs),
                total_partial_products=sum(run.partial_products
                                           for run in runs),
                output_nnz=execution.output.nnz,
                shape=execution.output.shape, tile_size=tile,
                a_nnz=a_csr.nnz,
                b_nnz=(b_csr if b_csr is not None else a_csr).nnz,
                source=source)
            provenance = self._provenance(cache_hit=execution.cache_hit)
            if shards > 1:
                # The chips stand for shards run back to back: time them
                # all; no single report backs more than one shard.
                reports = [run.report for run in runs]
                report = reports[0] if len(runs) == 1 else None
                power_w, energy_j = self._fleet_power(execution, combine=max)
                provenance.shards = len(runs)
            else:
                report = execution.report
                reports = [report]
                power_w, energy_j = self._fleet_power(execution)
                provenance.chips = execution.n_chips
        cycles = float(sum(r.cycles for r in reports if r is not None))
        seconds = cycles / (ctx.config.frequency_ghz * 1e9)
        verdicts = [r.correct if r is not None else None for r in reports]
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
        metrics["verified"] = None if None in verdicts else all(verdicts)
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
        verification, and fans per-chip work out over the session executor
        (inline when already inside a pool worker, so a sharded or
        multichip spec inside a batch cannot deadlock the pool)."""
        return MultiChipBackend(
            topology=self.topology if shards == 1 else ChipTopology(
                n_chips=shards, chip_backend=self.backend,
                partition=self.partition),
            cache=self.cache, check=self._maybe_verify,
            verify_level=self.verify_mode,
            executor=None if getattr(self._local, "in_worker", False)
            else self.executor)

    def _fleet_power(self, execution, combine=sum) -> tuple[float, float]:
        """Power and energy of a multichip execution: ``combine`` of the
        per-chip powers (summed for chips running side by side, the peak
        for host shards running one after another) and summed energy."""
        powers, energies = zip(*(estimate_power(self.ctx.config, run.report)
                                 for run in execution.chip_runs))
        return combine(powers), sum(energies)

    # ------------------------------------------------------------------
    # Design-space sweep
    # ------------------------------------------------------------------
    def _run_sweep(self, spec: SweepSpec) -> RunResult:
        start = time.perf_counter()
        if self.backend == "functional":
            raise ValueError("backend 'functional' produces no timing report; "
                             "use 'cycle' or 'analytic'")
        payloads = [{"config": config, "a": spec.a, "b": spec.b,
                     "eviction_mode": spec.eviction_mode,
                     "params": self.ctx.params, "backend": self.backend,
                     "topology": self.topology}
                    for config in spec.configs]
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
