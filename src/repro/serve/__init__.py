"""Async serving subsystem: request queue -> micro-batches -> Session.

Long-lived serving for the NeuraChip reproduction.  Requests (SpGEMM or
GCN-layer specs) enter a bounded :class:`RequestQueue`, the
:class:`MicroBatcher` coalesces them into size/deadline-bounded
micro-batches dispatched through one
:class:`~repro.core.session.Session` (amortising the persistent program
cache across requests; a multi-chip session runs every request on its
whole fleet), and :class:`ReproServer` fronts the whole stack with a
stdlib-only asyncio HTTP/1.1 + JSON server (``repro serve`` on the CLI).

The queue is multi-tenant (see :mod:`repro.serve.sched`): per-tenant
EDF lanes under weighted fair queueing, token-bucket/quota admission
control with computed ``Retry-After`` hints, and per-tenant accounting
surfaced at ``GET /v1/tenants``.

A served result — output and metrics row — is what a direct
``session.run`` of the same spec returns; micro-batching only changes
*when* work runs, never what it computes or reports.
"""

from repro.serve.batcher import (
    DEFAULT_MAX_BATCH,
    DEFAULT_MAX_DELAY_MS,
    MicroBatcher,
    ServingStats,
)
from repro.serve.http import (
    DEFAULT_REQUEST_TIMEOUT_S,
    BackgroundServer,
    ReproServer,
)
from repro.serve.queue import (
    DEFAULT_QUEUE_DEPTH,
    FAIR_SCHEDULING,
    FIFO_SCHEDULING,
    QueueClosed,
    QueueOverflow,
    RequestQueue,
    ServeError,
    ServeRequest,
    ServeTimeout,
)
from repro.serve.sched import (
    DEFAULT_TENANT,
    AdmissionController,
    AdmissionError,
    QuotaExceeded,
    RateLimited,
    TenantConfig,
    TenantTable,
    WFQScheduler,
)

__all__ = [
    "ReproServer",
    "BackgroundServer",
    "MicroBatcher",
    "ServingStats",
    "RequestQueue",
    "ServeRequest",
    "ServeError",
    "QueueOverflow",
    "QueueClosed",
    "ServeTimeout",
    "DEFAULT_MAX_BATCH",
    "DEFAULT_MAX_DELAY_MS",
    "DEFAULT_QUEUE_DEPTH",
    "DEFAULT_REQUEST_TIMEOUT_S",
    "DEFAULT_TENANT",
    "FAIR_SCHEDULING",
    "FIFO_SCHEDULING",
    "AdmissionController",
    "AdmissionError",
    "RateLimited",
    "QuotaExceeded",
    "TenantConfig",
    "TenantTable",
    "WFQScheduler",
]
