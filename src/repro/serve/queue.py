"""Scheduled request queue: the front door of the serving subsystem.

Incoming workload specs are wrapped in :class:`ServeRequest` — the spec,
a ``concurrent.futures.Future`` the caller waits on, the owning tenant,
an enqueue timestamp for latency accounting, and an optional deadline —
and buffered in a :class:`RequestQueue`.

Ordering is **not** FIFO.  The queue composes the
:mod:`repro.serve.sched` subsystem: requests land in per-tenant
earliest-deadline-first lanes and :meth:`RequestQueue.get_batch` selects
across tenants in weighted-fair-queueing order (virtual-time deficit
accounting, see :class:`~repro.serve.sched.wfq.WFQScheduler`), so a
latency-sensitive tenant's tight deadlines jump the bulk tenant's
backlog while the bulk tenant keeps its configured share.  Pass
``scheduling="fifo"`` to get the old single-lane arrival order back (the
benchmark baseline and an escape hatch).

Overload handling is **admission control**, not blind shedding:

* per-tenant token buckets and in-flight quotas (the optional
  :class:`~repro.serve.sched.admission.AdmissionController`) reject at
  ``put`` with :class:`~repro.serve.sched.admission.RateLimited` /
  :class:`~repro.serve.sched.admission.QuotaExceeded` (HTTP 429 +
  ``Retry-After``);
* the bounded queue itself rejects with :class:`QueueOverflow` (HTTP
  503) carrying a ``retry_after_s`` computed from the predicted backlog
  makespan (``retry_after_fn``).

Either way the request was never accepted — once admitted, a request is
executed or explicitly failed (deadline, shutdown), never silently
dropped.

Cancellation rides on the future: ``request.cancel()`` succeeds while
the request is still queued, and the batcher skips cancelled requests
via the standard ``Future.set_running_or_notify_cancel`` handshake.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Callable

from repro.core.specs import WorkloadSpec
from repro.serve.sched.admission import AdmissionController
from repro.serve.sched.tenants import DEFAULT_TENANT, TenantTable
from repro.serve.sched.wfq import WFQScheduler

#: Default bound on queued (not yet dispatched) requests.
DEFAULT_QUEUE_DEPTH = 256

#: Queue scheduling policies.
FAIR_SCHEDULING = "fair"   # WFQ across tenants, EDF within each
FIFO_SCHEDULING = "fifo"   # single lane, arrival order (pre-tenant)


class ServeError(RuntimeError):
    """Base class for serving-layer errors."""


class QueueOverflow(ServeError):
    """The bounded request queue is full; the request was rejected at
    admission (never accepted, nothing dropped).  ``retry_after_s`` is
    the predicted backlog-drain time, when the queue has an estimator."""

    def __init__(self, message: str,
                 retry_after_s: float | None = None) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


class QueueClosed(ServeError):
    """The queue (or server) is shutting down; no new requests accepted."""


class ServeTimeout(ServeError):
    """The request's deadline expired before it was dispatched.

    Carries the structured fields the HTTP 504 body reports: the owning
    ``tenant`` and ``queued_ms`` — how long the request sat in the
    queue before its deadline passed."""

    def __init__(self, message: str, *, tenant: str | None = None,
                 queued_ms: float | None = None) -> None:
        super().__init__(message)
        self.tenant = tenant
        self.queued_ms = queued_ms


@dataclass
class ServeRequest:
    """One queued unit of serving work.

    Attributes:
        spec: the workload spec to execute.
        future: resolves to the :class:`~repro.core.specs.RunResult` (or
            the execution error); cancellable while still queued.
        request_id: monotonically increasing id, for logs and ordering.
        tenant: owning tenant name (``default`` when the caller did not
            identify itself) — the unit of fairness and accounting.
        enqueued_at: ``time.monotonic()`` timestamp, for latency stats.
        deadline: optional ``time.monotonic()`` deadline; the batcher
            fails expired requests with :class:`ServeTimeout` instead of
            dispatching them.
        pins: operand-registry pins
            (:class:`~repro.serve.registry.OperandPin`) held while this
            request is in flight, so a referenced operand cannot be
            LRU-evicted before it executes.  Released automatically when
            the future resolves (result, error, or cancellation).
    """

    spec: WorkloadSpec
    future: Future = field(default_factory=Future)
    request_id: int = 0
    tenant: str = DEFAULT_TENANT
    enqueued_at: float = 0.0
    deadline: float | None = None
    pins: tuple = ()

    def expired(self, now: float) -> bool:
        """True once the deadline (when set) has passed as of ``now``."""
        return self.deadline is not None and now >= self.deadline

    def queued_ms(self, now: float) -> float:
        """Milliseconds spent waiting in the queue as of ``now``."""
        return max(0.0, (now - self.enqueued_at) * 1e3)

    def cancel(self) -> bool:
        """Cancel the request; succeeds only while it is still queued."""
        return self.future.cancel()

    def release_pins(self) -> None:
        """Release every registry pin (idempotent per pin)."""
        for pin in self.pins:
            pin.release()


class RequestQueue:
    """Thread-safe bounded scheduled queue of :class:`ServeRequest`.

    Args:
        max_depth: maximum number of waiting requests before :meth:`put`
            rejects with :class:`QueueOverflow`.
        tenants: tenant policy table (weights); a fresh default table
            when omitted, so single-tenant callers need no setup.
        admission: optional per-tenant rate-limit / quota enforcement at
            :meth:`put` (see :mod:`repro.serve.sched.admission`).
        scheduling: :data:`FAIR_SCHEDULING` (WFQ x EDF, the default) or
            :data:`FIFO_SCHEDULING` (single-lane arrival order).
        retry_after_fn: zero-arg callable returning the predicted
            backlog-drain seconds, attached to :class:`QueueOverflow`
            rejections as ``retry_after_s``.
    """

    def __init__(self, max_depth: int = DEFAULT_QUEUE_DEPTH, *,
                 tenants: TenantTable | None = None,
                 admission: AdmissionController | None = None,
                 scheduling: str = FAIR_SCHEDULING,
                 retry_after_fn: Callable[[], float] | None = None) -> None:
        if max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        if scheduling not in (FAIR_SCHEDULING, FIFO_SCHEDULING):
            raise ValueError(f"scheduling must be '{FAIR_SCHEDULING}' or "
                             f"'{FIFO_SCHEDULING}', got {scheduling!r}")
        self.max_depth = max_depth
        self.scheduling = scheduling
        self.tenants = tenants if tenants is not None else TenantTable()
        self.admission = admission
        self.retry_after_fn = retry_after_fn
        self._sched = WFQScheduler(self.tenants)  # guarded-by: _condition
        self._fifo: deque[ServeRequest] = deque()  # guarded-by: _condition
        self._condition = threading.Condition()
        self._ids = itertools.count()
        self._closed = False  # guarded-by: _condition

    # ------------------------------------------------------------------
    # Producer side
    # ------------------------------------------------------------------
    def put(self, spec: WorkloadSpec,
            timeout_s: float | None = None,
            pins: tuple = (),
            tenant: str = DEFAULT_TENANT) -> ServeRequest:
        """Admit and enqueue one spec, returning its :class:`ServeRequest`.

        Args:
            spec: workload to execute.
            timeout_s: optional per-request deadline, relative to now.
            pins: operand-registry pins to hold while the request is in
                flight; released when the future resolves.  On a raise
                (admission rejection / overflow / closed) the pins are
                **not** adopted — the caller still owns them.
            tenant: owning tenant name (fairness + accounting identity).

        Raises:
            RateLimited / QuotaExceeded: the tenant's admission policy
                rejected the request (HTTP 429 + Retry-After).
            QueueOverflow: the queue is at ``max_depth`` (HTTP 503 +
                Retry-After; the request was never accepted).
            QueueClosed: the queue has been closed.
        """
        now = time.monotonic()
        deadline = None if timeout_s is None else now + timeout_s
        tenant = self.tenants.resolve_name(tenant)
        admitted = False
        if self.admission is not None:
            self.admission.admit(tenant, now)  # raises on rejection
            admitted = True
        try:
            with self._condition:
                if self._closed:
                    raise QueueClosed("request queue is closed")
                if self._depth_locked() >= self.max_depth:
                    raise QueueOverflow(
                        f"request queue is full ({self.max_depth} "
                        "waiting); retry after the backlog drains",
                        retry_after_s=self._retry_after())
                request = ServeRequest(spec=spec,
                                       request_id=next(self._ids),
                                       tenant=tenant,
                                       enqueued_at=now, deadline=deadline,
                                       pins=tuple(pins))
                if self.scheduling == FIFO_SCHEDULING:
                    self._fifo.append(request)
                else:
                    self._sched.push(request)
                self._condition.notify()
        except BaseException:
            # The request never entered the queue: the admission slot
            # must be handed back (pins stay with the caller by contract).
            if admitted:
                self.admission.release(tenant)
            raise
        request.future.add_done_callback(self._make_releaser(request))
        return request

    def _make_releaser(self, request: ServeRequest):
        """Done-callback releasing the request's registry pins and its
        admission in-flight slot exactly once (futures fire callbacks
        once, on result, error, or cancellation)."""
        def _release(_future) -> None:
            request.release_pins()
            if self.admission is not None:
                self.admission.release(request.tenant)
        return _release

    def _retry_after(self) -> float | None:
        if self.retry_after_fn is None:
            return None
        try:
            return max(0.0, float(self.retry_after_fn()))
        except Exception:  # noqa: BLE001 - a hint must never fail a reject
            return None

    # ------------------------------------------------------------------
    # Consumer side
    # ------------------------------------------------------------------
    def get_batch(self, max_batch: int,
                  max_delay_s: float) -> list[ServeRequest]:
        """Collect the next micro-batch in scheduling order.

        Blocks until at least one request is waiting, then keeps
        collecting until the batch is full or ``max_delay_s`` has passed
        (with 0, it takes what is queued without waiting) — then selects
        up to ``max_batch`` requests in WFQ x EDF order (arrival order
        under ``fifo`` scheduling).  Returns an empty list only when the
        queue is closed and drained.
        """
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        with self._condition:
            while not self._depth_locked() and not self._closed:
                self._condition.wait()
            if not self._depth_locked():
                return []  # closed and drained
            window_ends = time.monotonic() + max(0.0, max_delay_s)
            while self._depth_locked() < max_batch and not self._closed:
                remaining = window_ends - time.monotonic()
                if remaining <= 0:
                    break
                self._condition.wait(remaining)
            if self.scheduling == FIFO_SCHEDULING:
                take = min(max_batch, len(self._fifo))
                return [self._fifo.popleft() for _ in range(take)]
            return self._sched.select(max_batch)

    # ------------------------------------------------------------------
    # Accounting passthroughs (fair scheduling only; no-ops under fifo)
    # ------------------------------------------------------------------
    def refund(self, tenant: str, cost: float = 1.0) -> None:
        """Return charged WFQ work to ``tenant`` — called by the batcher
        for selected requests that did not consume an execution
        (coalesced duplicates, cancellations, expired deadlines)."""
        if self.scheduling == FIFO_SCHEDULING:
            return
        with self._condition:
            self._sched.refund(tenant, cost)

    def accounting(self) -> dict[str, dict]:
        """Per-tenant WFQ accounting snapshot (empty under fifo)."""
        if self.scheduling == FIFO_SCHEDULING:
            return {}
        with self._condition:
            return self._sched.accounting()

    # ------------------------------------------------------------------
    def _depth_locked(self) -> int:  # lockcheck: holds _condition
        return (len(self._fifo) if self.scheduling == FIFO_SCHEDULING
                else self._sched.backlog)

    @property
    def depth(self) -> int:
        """Number of requests currently waiting."""
        with self._condition:
            return self._depth_locked()

    def close(self) -> None:
        """Stop accepting requests and wake every waiting consumer."""
        with self._condition:
            self._closed = True
            self._condition.notify_all()

    def drain(self) -> list[ServeRequest]:
        """Remove and return every waiting request (used at shutdown so
        leftover futures can be failed instead of hanging forever)."""
        with self._condition:
            if self.scheduling == FIFO_SCHEDULING:
                leftover = list(self._fifo)
                self._fifo.clear()
                return leftover
            return self._sched.drain()
