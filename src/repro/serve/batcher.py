"""Micro-batching dispatcher: coalesce queued requests into Session.map.

The :class:`MicroBatcher` owns a background thread that repeatedly pulls a
batch of at most ``max_batch`` requests from the
:class:`~repro.serve.queue.RequestQueue` and dispatches it through the
serving session.  By default it is work-conserving: a batch is whatever
is queued when the thread frees up, so a lone request never waits, and
requests that arrive while a batch executes form the next one.  A
positive ``max_delay_ms`` instead holds a timed window for the batch to
fill.

* **Coalescing**: requests whose specs are operand-identical (same A / B
  fingerprints, tile size, verify flag, shard count) execute **once**; the
  duplicates receive the same result re-labelled per request.  Combined
  with the session's persistent program cache, a burst against one graph
  costs one compile: its first request runs alone, the rest coalesce
  into one cache-hit execution (one execution in all, under a window).
* **One execution path**: every batch runs through the serving session's
  own ``Session.map`` (on a multi-chip session, the ``multichip``
  backend), so a served result — output and metrics row alike — is
  what ``Session.run`` of the same spec returns, whatever its
  batch-mates.
* **Isolation**: a failing request fails *its* future; the batch falls
  back to per-spec execution so one poison request cannot take down its
  batch-mates.
* **Tenant billing**: the queue's WFQ scheduler charges every selected
  request one unit of virtual time; the batcher refunds the requests
  that did not consume an execution — coalesced duplicates (the shared
  run is billed once, to the earliest-deadline owner, while every
  tenant is billed its own latency), cancellations, and expired
  deadlines.
* **Lifecycle**: cancelled futures are skipped through the standard
  ``set_running_or_notify_cancel`` handshake, expired deadlines fail
  with a structured :class:`~repro.serve.queue.ServeTimeout` (tenant +
  queued milliseconds, counted as a per-tenant deadline miss), and
  :meth:`MicroBatcher.stop` drains the queue, serves what is left, and
  fails anything unservable.

:class:`ServingStats` is the one table behind ``/stats`` and
``GET /v1/tenants``: fleet counters (requests, coalescing, batches,
bytes), the per-tenant accounting rows (admitted / rejected / deadline
misses / responses / failures / p50/p95) whose sums are the fleet's
response, failure, timeout and shed counts, the batch-size and latency
distributions, and a few last-seen values.

The batcher also keeps an EWMA of measured batch makespans (on the
analytic backend these are the model's predicted batch costs, since the
analytic backend *is* the execution): :meth:`MicroBatcher.\
predicted_makespan_s` turns queue depth into a backlog-drain estimate —
the ``Retry-After`` hint admission control hands rejected clients.
"""

from __future__ import annotations

import math
import threading
import time
from collections import Counter, defaultdict, deque
from dataclasses import replace as _replace_result

from repro.core.runner import matrix_fingerprint
from repro.core.session import Session
from repro.core.specs import (
    GCNLayerSpec,
    GNNModelSpec,
    RunResult,
    SpGEMMSpec,
    WorkloadSpec,
)
from repro.gnn.gcn import adjacency_digest
from repro.serve.queue import (
    QueueClosed,
    RequestQueue,
    ServeRequest,
    ServeTimeout,
)
from repro.serve.sched.edf import deadline_key
from repro.sparse.coo import COOMatrix

#: Default micro-batch bounds: at most 8 requests, and no batch window.
DEFAULT_MAX_BATCH = 8
DEFAULT_MAX_DELAY_MS = 0.0

#: Reservoir size for the latency / batch-size distributions.
_RESERVOIR = 2048

#: Per-tenant latency reservoir size (smaller: one per tenant).
_TENANT_RESERVOIR = 512

#: Batch-makespan EWMA: seed before the first measured batch, and the
#: new-sample weight once batches are flowing.
DEFAULT_BATCH_SECONDS = 0.05
_MAKESPAN_ALPHA = 0.2


def _percentile(sample: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an unsorted sample (0.0 when empty)."""
    if not sample:
        return 0.0
    ordered = sorted(sample)
    rank = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[rank]


def _latency_ms(sample: list[float]) -> dict:
    """``latency_p50_ms`` / ``latency_p95_ms`` of a sample in seconds."""
    return {"latency_p50_ms": round(_percentile(sample, 0.50) * 1e3, 3),
            "latency_p95_ms": round(_percentile(sample, 0.95) * 1e3, 3)}


#: Fleet counters (:meth:`ServingStats.add` without a tenant).
#: ``requests`` counts every request the server tried to queue, refused
#: ones included.
_FLEET_COUNTERS = ("requests", "cancelled", "coalesced", "batches",
                   "bytes_in", "bytes_out", "degree_partition_runs",
                   "gnn_stacks", "gnn_layers")

#: Tenant counters (:meth:`ServingStats.add` with a tenant): requests
#: accepted into the queue; refused by the token bucket (429), the
#: in-flight quota (429) or the full queue (503); expired before dispatch
#: (504); and resolved with a result or with an exception.
_TENANT_COUNTERS = ("admitted", "rejected_rate", "rejected_quota",
                    "rejected_queue", "deadline_misses", "responses",
                    "failures")

#: ``/stats`` totals that are sums of one counter over the tenant rows.
_TENANT_TOTALS = (("responses", "responses"), ("failures", "failures"),
                  ("timeouts", "deadline_misses"), ("shed", "rejected_queue"))

#: Last-seen values in ``/stats``, None until first seen: the last GNN
#: stack's depth and per-layer cost, and the last multichip run's shard
#: skew, scale-out efficiency and partition strategy.
_LAST_VALUES = ("gnn_last_depth", "gnn_cycles_per_layer",
                "multichip_shard_skew", "multichip_efficiency",
                "multichip_partition")


class ServingStats:
    """Thread-safe counters and distributions for the serving layer:
    every event is counted once, in one table keyed by ``(tenant, name)``
    (``tenant`` None for a fleet counter)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.started_at = time.monotonic()
        self._counts: Counter[tuple[str | None, str]] = Counter()  # guarded-by: _lock
        self._last: dict[str, float | int | str | None] = {}  # guarded-by: _lock
        self._batch_sizes: deque[int] = deque(maxlen=_RESERVOIR)  # guarded-by: _lock
        self._latencies: deque[float] = deque(maxlen=_RESERVOIR)  # guarded-by: _lock
        self._tenant_latencies: defaultdict[str, deque[float]] = (  # guarded-by: _lock
            defaultdict(lambda: deque(maxlen=_TENANT_RESERVOIR)))

    def add(self, name: str, n: int = 1, tenant: str | None = None) -> None:
        """Count ``n`` events: a fleet counter, or with ``tenant`` one of
        that tenant's row; ``ValueError`` on a name outside the table."""
        tenant = tenant or None
        known = _FLEET_COUNTERS if tenant is None else _TENANT_COUNTERS
        if name not in known:
            raise ValueError(f"unknown {'tenant' if tenant else 'fleet'} "
                             f"counter {name!r}")
        with self._lock:
            self._counts[tenant, name] += n

    def record_batch(self, size: int) -> None:
        with self._lock:
            self._counts[None, "batches"] += 1
            self._batch_sizes.append(size)

    def record_response(self, tenant: str, seconds: float) -> None:
        """One resolved request: the tenant's response count and a
        latency sample (each coalesced duplicate is billed its *own*
        latency here; only the WFQ work charge is shared)."""
        with self._lock:
            self._counts[tenant, "responses"] += 1
            self._latencies.append(seconds)
            self._tenant_latencies[tenant].append(seconds)

    def record_gnn(self, metrics: dict) -> None:
        """Record one served GNN stack's per-stack metrics."""
        layers = int(metrics.get("layers", 0) or 0)
        total = metrics.get("total_cycles")
        with self._lock:
            self._counts[None, "gnn_stacks"] += 1
            self._counts[None, "gnn_layers"] += layers
            self._last["gnn_last_depth"] = layers or None
            if layers and total is not None:
                self._last["gnn_cycles_per_layer"] = round(
                    float(total) / layers, 1)

    def record_multichip(self, shard_skew, efficiency, partition) -> None:
        """Record one multichip run's load-balance telemetry (None values
        are ignored so non-multichip results never clear the signal)."""
        with self._lock:
            if shard_skew is not None:
                self._last["multichip_shard_skew"] = float(shard_skew)
            if efficiency is not None:
                self._last["multichip_efficiency"] = float(efficiency)
            if partition is not None:
                self._last["multichip_partition"] = str(partition)
                if partition == "degree":
                    self._counts[None, "degree_partition_runs"] += 1

    def _tenant_rows(self) -> dict[str, dict]:  # lockcheck: holds _lock
        rows: dict[str, dict] = {}
        for tenant in dict.fromkeys(key for key, _ in self._counts if key):
            row = {name: self._counts[tenant, name]
                   for name in _TENANT_COUNTERS}
            row["rejected"] = (row["rejected_rate"] + row["rejected_quota"]
                               + row["rejected_queue"])
            latencies = list(self._tenant_latencies.get(tenant, ()))
            rows[tenant] = {**row, **_latency_ms(latencies)}
        return rows

    def tenant_snapshot(self) -> dict[str, dict]:
        """Per-tenant accounting rows (``GET /v1/tenants``)."""
        with self._lock:
            return self._tenant_rows()

    def snapshot(self, queue_depth: int = 0, cache: dict | None = None,
                 registry: dict | None = None) -> dict:
        """Flat dict for the ``/stats`` endpoint."""
        with self._lock:
            tenants = self._tenant_rows()
            row = {"tenants": tenants,
                   "uptime_s": round(time.monotonic() - self.started_at, 3),
                   "queue_depth": queue_depth}
            row.update((name, self._counts[None, name])
                       for name in _FLEET_COUNTERS)
            row.update((name, self._last.get(name)) for name in _LAST_VALUES)
            sizes = list(self._batch_sizes)
            latencies = list(self._latencies)
        row.update((total, sum(tenant[name] for tenant in tenants.values()))
                   for total, name in _TENANT_TOTALS)
        row["mean_batch_size"] = (round(sum(sizes) / len(sizes), 3)
                                  if sizes else 0.0)
        row["max_batch_size"] = max(sizes) if sizes else 0
        row.update(_latency_ms(latencies))
        if cache:
            lookups = cache.get("hits", 0) + cache.get("misses", 0)
            row["cache_hits"] = cache.get("hits", 0)
            row["cache_misses"] = cache.get("misses", 0)
            row["cache_hit_rate"] = (round(cache["hits"] / lookups, 4)
                                     if lookups else 0.0)
        if registry:
            row.update(registry)
        return row


def _operand_key(operand, digest: str | None) -> str | None:
    """Coalescing identity of one operand: the registry digest when the
    spec carries one (ref-resolved requests — no hashing at all), else a
    freshly computed fingerprint.  Both are ``matrix_fingerprint`` values,
    so an inline upload and a registry ref to the same matrix coalesce."""
    if digest is not None:
        return digest
    if not hasattr(operand, "indptr"):
        return None  # un-fingerprintable operand (dense ndarray, ...)
    return matrix_fingerprint(operand)


def _dataset_key(dataset) -> str | None:
    """Coalescing identity of a GNN spec's graph: its
    :func:`~repro.gnn.gcn.adjacency_digest`, the key the normalisation
    memo uses too (memoized on the matrix, so a burst of requests against
    one resident graph hashes it once)."""
    adjacency = getattr(dataset, "adjacency", dataset)
    if not isinstance(adjacency, COOMatrix):
        return None
    return adjacency_digest(adjacency)


def _coalesce_key(spec: WorkloadSpec):
    """Identity key for batch-level request coalescing, or ``None`` when
    the spec kind is not coalescible.  ``label`` and ``source`` are
    deliberately excluded (the program cache key ignores ``source`` too):
    two requests for the same product under different names share one
    execution and get re-labelled copies of the result.

    GNN specs coalesce on (dataset digest + dims + seed): the synthetic
    features and weights are fully determined by the dims and seed, so two
    such requests describe bit-identical workloads.  A :class:`GCNLayerSpec`
    carrying explicit ``features`` is a chained layer with a per-request
    payload — not coalescible."""
    if isinstance(spec, GCNLayerSpec):
        if spec.features is not None:
            return None
        dataset_key = _dataset_key(spec.dataset)
        if dataset_key is None:
            return None
        return ("gcn", dataset_key, spec.feature_dim, spec.hidden_dim,
                spec.feature_density, spec.seed, spec.weight_seed,
                spec.activation, spec.verify)
    if isinstance(spec, GNNModelSpec):
        dataset_key = _dataset_key(spec.dataset)
        if dataset_key is None:
            return None
        activations = spec.activations
        if activations is not None and not isinstance(activations, str):
            activations = tuple(activations)
        return ("gnn", dataset_key, tuple(spec.layer_dims), spec.feature_dim,
                spec.feature_density, activations, spec.seed, spec.batches,
                spec.verify)
    if not isinstance(spec, SpGEMMSpec):
        return None
    a_key = _operand_key(spec.a, spec.a_digest)
    if a_key is None:
        return None
    if spec.b is None:
        b_key = None
    else:
        b_key = _operand_key(spec.b, spec.b_digest)
        if b_key is None:
            return None
    return (a_key, b_key, spec.tile_size, spec.verify, spec.shards)


def predicted_backlog_makespan_s(queue_depth: int, max_batch: int,
                                 batch_seconds: float) -> float:
    """Predicted seconds to drain ``queue_depth`` queued requests plus
    one more (the request asking) through micro-batches of ``max_batch``,
    each predicted to take ``batch_seconds``.

    This is the serving layer's ``Retry-After`` arithmetic: the backlog
    drains in ``ceil((depth + 1) / max_batch)`` waves, and each wave's
    cost comes from the batcher's makespan EWMA (on the analytic backend,
    the model's own predicted batch cost — see
    :meth:`~repro.serve.batcher.MicroBatcher.predicted_batch_seconds`).
    """
    waves = max(1, math.ceil((max(0, queue_depth) + 1) / max(1, max_batch)))
    return waves * max(0.0, batch_seconds)


class MicroBatcher:
    """Background dispatcher turning queued requests into session batches.

    Args:
        session: the serving :class:`~repro.core.session.Session`.
        queue: the bounded :class:`RequestQueue` requests arrive on.
        max_batch: at most this many requests per batch.
        max_delay_ms: how long the oldest buffered request may wait for
            the batch to fill; 0 (the default) dispatches what is queued
            at once, so batches grow only while the previous one runs.
    """

    def __init__(self, session: Session, queue: RequestQueue, *,
                 max_batch: int = DEFAULT_MAX_BATCH,
                 max_delay_ms: float = DEFAULT_MAX_DELAY_MS) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_delay_ms < 0:
            raise ValueError(f"max_delay_ms must be >= 0, got {max_delay_ms}")
        self.session = session
        self.queue = queue
        self.max_batch = max_batch
        self.max_delay_s = max_delay_ms / 1e3
        self.stats = ServingStats()
        self._thread: threading.Thread | None = None
        # EWMA of measured batch makespans; written only by the dispatch
        # thread, read racily (a float hint) by admission control.
        self._batch_seconds_ewma: float | None = None

    # ------------------------------------------------------------------
    # Backlog makespan prediction (Retry-After hints)
    # ------------------------------------------------------------------
    def predicted_batch_seconds(self) -> float:
        """Predicted makespan of one micro-batch: the EWMA of measured
        batch walls (on the analytic backend, the model's predicted
        batch cost), or a small seed before the first batch lands."""
        ewma = self._batch_seconds_ewma
        return ewma if ewma is not None else DEFAULT_BATCH_SECONDS

    def predicted_makespan_s(self) -> float:
        """Predicted seconds to drain the current backlog plus one more
        request — what admission control quotes as ``Retry-After``."""
        return predicted_backlog_makespan_s(self.queue.depth,
                                            self.max_batch,
                                            self.predicted_batch_seconds())

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "MicroBatcher":
        """Start the dispatch thread (idempotent)."""
        if self._thread is None:
            self._thread = threading.Thread(target=self._loop,
                                            name="repro-serve-batcher",
                                            daemon=True)
            self._thread.start()
        return self

    def stop(self, timeout_s: float | None = 30.0) -> None:
        """Close the queue, serve what is already buffered, fail the rest,
        and join the dispatch thread.  Safe to call more than once."""
        self.queue.close()
        thread = self._thread
        if thread is not None:
            thread.join(timeout_s)
            self._thread = None
        for request in self.queue.drain():  # unreachable after a clean join
            if request.future.set_running_or_notify_cancel():
                request.future.set_exception(
                    QueueClosed("server shut down before dispatch"))

    def _loop(self) -> None:
        while True:
            batch = self.queue.get_batch(self.max_batch, self.max_delay_s)
            if not batch:
                return  # queue closed and drained
            try:
                self._serve_batch(batch)
            except Exception as error:  # noqa: BLE001 - thread must survive
                # Anything escaping the dispatch path (coalescing, result
                # resolution) fails this batch's futures — never the
                # dispatch thread, or every later request would hang.
                self._fail_batch(batch, error)

    def _fail_batch(self, batch: list[ServeRequest],
                    error: Exception) -> None:
        for request in batch:
            future = request.future
            if future.done():
                continue
            try:
                future.set_exception(error)
            except Exception:  # noqa: BLE001 - cancelled mid-flight
                continue
            self.stats.add("failures", tenant=request.tenant)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _serve_batch(self, batch: list[ServeRequest]) -> None:
        # One clock read covers the whole admission sweep: expiry checks
        # and queued-time accounting all key off `started`.
        started = time.monotonic()
        live: list[ServeRequest] = []
        for request in batch:
            if not request.future.set_running_or_notify_cancel():
                self.stats.add("cancelled")
                self.queue.refund(request.tenant)
                continue
            if request.expired(started):
                self.stats.add("deadline_misses", tenant=request.tenant)
                self.queue.refund(request.tenant)
                queued_ms = round(request.queued_ms(started), 3)
                request.future.set_exception(ServeTimeout(
                    f"request deadline expired after {queued_ms:.0f}ms "
                    "in queue", tenant=request.tenant,
                    queued_ms=queued_ms))
                continue
            live.append(request)
        if not live:
            return
        groups = self._group(live)
        self._bill_coalesced(groups)
        specs = [group[0].spec for group in groups]
        try:
            results = self.session.map(specs)
        except Exception:
            # One bad spec poisons Session.map for the whole batch; fall
            # back to per-spec execution so failures stay per-request.
            results = [self._run_isolated(spec) for spec in specs]
        for group, result in zip(groups, results):
            self._resolve(group, result)
        self.stats.record_batch(len(live))
        # Fold this batch's measured makespan into the EWMA feeding
        # admission control's Retry-After estimates.  Single writer (the
        # dispatch thread); readers treat it as a racy float hint.
        wall = time.monotonic() - started
        previous = self._batch_seconds_ewma
        if previous is None:
            self._batch_seconds_ewma = wall
        else:
            self._batch_seconds_ewma = (
                (1.0 - _MAKESPAN_ALPHA) * previous + _MAKESPAN_ALPHA * wall)

    def _bill_coalesced(self, groups: list[list[ServeRequest]]) -> None:
        """Refund WFQ charges for coalesced duplicates so each shared
        execution is billed exactly once — to the member with the
        earliest deadline (ties: arrival order).  Latency accounting is
        unaffected: every request still records its own response time."""
        for group in groups:
            if len(group) < 2:
                continue
            owner = min(group, key=deadline_key)
            for request in group:
                if request is not owner:
                    self.queue.refund(request.tenant)

    def _group(self, live: list[ServeRequest]) -> list[list[ServeRequest]]:
        """Partition the batch into execution groups: each group is the
        requests served by one execution, first request first."""
        groups: list[list[ServeRequest]] = []
        by_key: dict = {}
        for request in live:
            key = _coalesce_key(request.spec)
            if key is not None and key in by_key:
                groups[by_key[key]].append(request)
                self.stats.add("coalesced")
                continue
            if key is not None:
                by_key[key] = len(groups)
            groups.append([request])
        return groups

    def _run_isolated(self, spec: WorkloadSpec):
        """Run one spec, returning the result or the exception itself."""
        try:
            return self.session.run(spec)
        except Exception as error:  # noqa: BLE001 - mirrored into futures
            return error

    def _resolve(self, group: list[ServeRequest], result) -> None:
        done = time.monotonic()
        if not isinstance(result, Exception):
            metrics = getattr(result, "metrics", None) or {}
            self.stats.record_multichip(metrics.get("shard_skew"),
                                        metrics.get("efficiency"),
                                        metrics.get("partition"))
            if getattr(result, "kind", None) == "gnn_model":
                self.stats.record_gnn(metrics)
        for request in group:
            if isinstance(result, Exception):
                self.stats.add("failures", tenant=request.tenant)
                request.future.set_exception(result)
                continue
            value: RunResult = result
            if value.label != request.spec.label:
                # A coalesced duplicate: same execution, its own label.
                value = _replace_result(value, label=request.spec.label)
            # Counted before the future resolves: a client that reads
            # /stats right after its reply must see its own response.
            self.stats.record_response(request.tenant,
                                       done - request.enqueued_at)
            request.future.set_result(value)
