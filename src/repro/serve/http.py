"""Asyncio HTTP/1.1 front-end for the serving subsystem (stdlib only).

:class:`ReproServer` glues the serving stack together: a bounded
:class:`~repro.serve.queue.RequestQueue`, the
:class:`~repro.serve.batcher.MicroBatcher` dispatching micro-batches
through one :class:`~repro.core.session.Session`, and an
``asyncio.start_server`` loop speaking just enough HTTP/1.1 + JSON for
clients, load balancers, and the CI smoke test.  No third-party web
framework is involved.

Endpoints::

    GET  /healthz             liveness: status, backend, config, chip
                              count, partition strategy
    GET  /stats               queue depth, batch sizes, coalescing, shed
                              count, cache hit rate, p50/p95 latency,
                              bytes in/out, registry
                              hit/eviction counters, multichip telemetry,
                              per-tenant accounting rows
    GET  /v1/tenants          per-tenant policy (weight, rate, quota),
                              admission state (in-flight, tokens), WFQ
                              accounting (vtime, charged/refunded) and
                              serving counters (admitted, rejected,
                              deadline misses, p50/p95)
    PUT  /v1/operands         register an operand (binary x-repro-csr
                              frame, inline JSON arrays, or a named
                              generator dataset) -> content-digest ref
    GET  /v1/operands         list resident operands + registry counters
    GET  /v1/operands/<ref>   operand metadata; ``Accept:
                              application/x-repro-csr`` downloads the
                              operand as a binary frame
    DELETE /v1/operands/<ref> evict one operand (409 while pinned)
    POST /v1/spgemm           one SpGEMM request -> RunResult.as_row()
    POST /v1/gcn              one GCN-layer request -> RunResult.as_row()
    POST /v1/gnn              one multi-layer GNN stack over a resident
                              graph (compile-once, layer-pipelined)
                              -> RunResult.as_row()

An SpGEMM body names a dataset (synthesised server-side and cached),
carries explicit CSR arrays, or references registered operands::

    {"dataset": "wiki-Vote", "max_nodes": 256, "seed": 0, "label": "r1"}
    {"a": {"indptr": [...], "indices": [...], "data": [...],
           "shape": [4, 4]}, "b": {...}, "include_output": true}
    {"a": {"ref": "<digest>"}, "b": {"ref": "<digest>"}}

Responses are the flat ``RunResult.as_row()`` payload (cycles, gops, op
counts, provenance, cache_hit, wall time); ``include_output`` adds the
raw CSR arrays of the product.  An SpGEMM request with ``Accept:
application/x-repro-csr`` receives the product as a **binary frame**
instead (the metrics row rides in the frame's metadata blob), streamed
segment by segment under its ``Content-Length`` so large products are
never buffered twice.

Workload requests identify their tenant with the ``X-Repro-Tenant``
header (absent -> the ``default`` tenant); scheduling, admission control
and accounting all key off it.  Admission rejections map to ``429``
(token-bucket rate limit or in-flight quota) with a ``Retry-After``
header and a ``retry_after_s`` body field derived from the predicted
backlog makespan; bounded-queue overflow maps to ``503`` (same
``Retry-After`` arithmetic); expired deadlines to a structured ``504``
``{"error": "deadline", "tenant": ..., "queued_ms": ...}``; malformed
bodies (JSON or binary frames) to ``400``; unsupported ``Content-Type``
to ``415``; dangling operand refs to ``404``; and oversized bodies to
``413`` — rejected from the ``Content-Length`` header alone, before any
body bytes are buffered.  A request line over :data:`LINE_LIMIT` bytes
gets ``414``; a longer header line or more than :data:`MAX_HEADERS`
header lines gets ``431``; headers that do not arrive within
:data:`HEAD_TIMEOUT_S` of the request line, or a body that stalls for
that long, get ``408`` (a body has no overall deadline, and the wait for
the next request on a keep-alive connection is not timed).  Each of these
rejections closes the connection.

Failure semantics worth knowing when writing a client: results are
byte-identical to a direct ``Session.run`` of the same spec — the
product and the whole metrics row, bar ``wall_time_s`` — verification
defaults to *off* for serving traffic (pass ``"verify": true`` with the
``cycle`` backend to re-enable it), and a ``Connection: close`` request
header is honoured while anything else keeps the connection alive.
"""

from __future__ import annotations

import asyncio
import json
import math
import re
import signal
import threading
from collections import OrderedDict
from typing import Any, Callable

import numpy as np

from repro.core.session import Session
from repro.core.specs import (
    GCNLayerSpec,
    GNNModelSpec,
    OperandRef,
    SpGEMMSpec,
)
from repro.datasets.suite import DEFAULT_MAX_NODES, GNN_SUITE, load_dataset
from repro.serve.batcher import (
    DEFAULT_MAX_BATCH,
    DEFAULT_MAX_DELAY_MS,
    MicroBatcher,
)
from repro.serve.queue import (
    DEFAULT_QUEUE_DEPTH,
    FAIR_SCHEDULING,
    QueueClosed,
    QueueOverflow,
    RequestQueue,
    ServeTimeout,
)
from repro.serve.sched import (
    AdmissionController,
    AdmissionError,
    DEFAULT_TENANT,
    QuotaExceeded,
    TenantTable,
)
from repro.serve.registry import (
    DEFAULT_REGISTRY_BYTES,
    OperandPinned,
    OperandRegistry,
    RegistryFull,
    UnknownOperand,
)
from repro.serve.wire import (
    WIRE_CONTENT_TYPE,
    WireFormatError,
    csr_json,
    decode_csr,
    encode_csr_frames,
    frames_nbytes,
)
from repro.sparse.convert import csr_to_coo
from repro.sparse.csr import CSRMatrix

#: Largest accepted request body (explicit CSR operands dominate sizing).
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Default per-request deadline, queue wait + execution.
DEFAULT_REQUEST_TIMEOUT_S = 60.0

#: Bound on the server-side dataset cache; the key (name, max_nodes,
#: seed) is client-controlled, so the cache is LRU-swept — like every
#: other buffer in the serving layer, it must not grow with traffic.
MAX_CACHED_DATASETS = 32

#: Largest ``max_nodes`` a request may ask the server to synthesise (the
#: generators' default size); above it the answer is 400.  Synthesis runs off
#: the event loop; the worst named dataset at the cap, amazon-computers@2048,
#: takes about 0.09 s, where it held the GIL for 2.5-3.3 s before preferential
#: attachment became linear-time.
MAX_DATASET_NODES = DEFAULT_MAX_NODES

#: Caps on a ``/v1/gcn`` or ``/v1/gnn`` body, past which the answer is 400:
#: a width (``feature_dim``, ``hidden_dim``, a ``layer_dims`` entry) up to
#: the GNN suite's widest feature width (citeseer's), a stack up to 16 deep,
#: and up to 1024 pipelined feature ``batches`` (a count the makespan model
#: multiplies by a float, so an unbounded one overflows).
MAX_FEATURE_DIM = max(spec.feature_dim for spec in GNN_SUITE.values())
MAX_GNN_LAYERS = 16
MAX_GNN_BATCHES = 1024

#: Cap on a ``/v1/spgemm`` body's ``shards``, past which the answer is 400:
#: each shard plans, compiles and runs as its own chip on the batcher
#: thread, so the count sets how long one request holds it.
MAX_SPGEMM_SHARDS = 64

#: Request content types the front-end accepts; anything else is 415.
_ACCEPTED_CONTENT_TYPES = ("", "application/json", WIRE_CONTENT_TYPE)

#: Longest request or header line: the ``asyncio`` stream limit, past
#: which ``readline`` raises instead of returning the line.
LINE_LIMIT = 64 * 1024

#: Most header lines one request may carry; more is answered with 431.
MAX_HEADERS = 100

#: After refusing an unreadable request head, the server discards what the
#: client is still sending for at most this long and this many bytes
#: before it closes the connection.
LINGER_S = 1.0
LINGER_BYTES = 1024 * 1024

#: Once a request line has arrived, its headers must follow within this
#: many seconds, and no read of its body may wait longer for more bytes;
#: otherwise the request is answered with 408.  A client that stalls
#: mid-request cannot hold its connection forever, while a large body
#: sent slowly but steadily still arrives.
HEAD_TIMEOUT_S = 10.0

_STATUS_TEXT = {200: "OK", 400: "Bad Request", 404: "Not Found",
                405: "Method Not Allowed", 406: "Not Acceptable",
                408: "Request Timeout", 409: "Conflict",
                413: "Payload Too Large", 414: "URI Too Long",
                415: "Unsupported Media Type", 429: "Too Many Requests",
                431: "Request Header Fields Too Large",
                500: "Internal Server Error", 503: "Service Unavailable",
                504: "Gateway Timeout"}

#: Request header naming the calling tenant (absent -> default tenant).
TENANT_HEADER = "x-repro-tenant"

#: Accepted tenant names: short, filesystem/log-safe identifiers.
_TENANT_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


async def _read_headers(reader: asyncio.StreamReader
                        ) -> tuple[dict[str, str], str | None]:
    """Header fields up to the blank line, plus the reason to refuse the
    request with 431 (``None`` when the headers are acceptable)."""
    headers: dict[str, str] = {}
    for _ in range(MAX_HEADERS + 1):
        try:
            line = await reader.readline()
        except ValueError:  # over the stream's line limit
            return headers, f"header line longer than {LINE_LIMIT} bytes"
        if line in (b"\r\n", b"\n", b""):
            return headers, None
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    return headers, f"more than {MAX_HEADERS} header lines"


async def _read_body(reader: asyncio.StreamReader, length: int) -> bytes:
    """The ``length``-byte request body, read as it arrives: each read
    that waits more than :data:`HEAD_TIMEOUT_S` for bytes raises
    ``TimeoutError``, an early end of stream ``IncompleteReadError``."""
    chunks: list[bytes] = []
    received = 0
    while received < length:
        async with asyncio.timeout(HEAD_TIMEOUT_S):
            chunk = await reader.read(length - received)
        if not chunk:
            raise asyncio.IncompleteReadError(b"".join(chunks), length)
        chunks.append(chunk)
        received += len(chunk)
    return b"".join(chunks)


def _jsonable(value: Any) -> Any:
    """Recursively convert numpy scalars/arrays so json.dumps accepts
    every RunResult metrics row."""
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    return value


def _parse_csr(obj: Any, field: str) -> CSRMatrix:
    """Build a CSRMatrix from the JSON operand encoding."""
    if not isinstance(obj, dict):
        raise ValueError(f"operand {field!r} must be an object with "
                         "indptr/indices/data/shape")
    missing = [key for key in ("indptr", "indices", "data", "shape")
               if key not in obj]
    if missing:
        raise ValueError(f"operand {field!r} is missing {missing}")
    return CSRMatrix(np.asarray(obj["indptr"], dtype=np.int64),
                     np.asarray(obj["indices"], dtype=np.int64),
                     np.asarray(obj["data"], dtype=np.float64),
                     tuple(obj["shape"]))


def _parse_operand(obj: Any, field: str) -> CSRMatrix | OperandRef:
    """Parse one workload operand: a registry ref or inline CSR arrays."""
    if isinstance(obj, dict) and "ref" in obj:
        ref = obj["ref"]
        if not isinstance(ref, str) or not ref:
            raise ValueError(f"operand {field!r}: 'ref' must be a "
                             "non-empty string digest")
        return OperandRef(ref)
    return _parse_csr(obj, field)


def _content_type(headers: dict[str, str]) -> str:
    """The media type of the request body (parameters stripped)."""
    return headers.get("content-type", "").split(";")[0].strip().lower()


def _accepts_wire(headers: dict[str, str]) -> bool:
    """True when the client asked for a binary x-repro-csr response."""
    accept = headers.get("accept", "")
    return any(part.split(";")[0].strip().lower() == WIRE_CONTENT_TYPE
               for part in accept.split(","))


class ReproServer:
    """The serving subsystem, assembled: queue + micro-batcher + HTTP.

    Args:
        session: configured :class:`Session` every request executes on.
        host / port: bind address; ``port=0`` picks an ephemeral port
            (read :attr:`port` after :meth:`start` for the real one).
        max_batch / max_delay_ms: micro-batch bounds (no window by default).
        queue_depth: bounded-queue size; beyond it requests are shed (503).
        request_timeout_s: per-request deadline (queue wait + execution),
            a finite number of seconds above 0.
        registry_max_bytes: byte cap on the content-addressed operand
            registry (LRU-swept beyond it).
        tenants: multi-tenant policy table (weights, rate limits,
            quotas); a fresh default table when omitted, so
            single-tenant deployments need no setup.
        scheduling: queue ordering — ``"fair"`` (WFQ across tenants, EDF
            within each; the default) or ``"fifo"`` (arrival order).
    """

    def __init__(self, session: Session, host: str = "127.0.0.1",
                 port: int = 8077, *,
                 max_batch: int = DEFAULT_MAX_BATCH,
                 max_delay_ms: float = DEFAULT_MAX_DELAY_MS,
                 queue_depth: int = DEFAULT_QUEUE_DEPTH,
                 request_timeout_s: float = DEFAULT_REQUEST_TIMEOUT_S,
                 registry_max_bytes: int = DEFAULT_REGISTRY_BYTES,
                 tenants: TenantTable | None = None,
                 scheduling: str = FAIR_SCHEDULING) -> None:
        self.request_timeout_s = _seconds(request_timeout_s,
                                          "request_timeout_s")
        self.session = session
        self.host = host
        self.port = port
        self.registry = OperandRegistry(registry_max_bytes)
        self.tenants = tenants if tenants is not None else TenantTable()
        self.admission = AdmissionController(
            self.tenants,
            makespan_fn=lambda: self.batcher.predicted_makespan_s())
        self.queue = RequestQueue(
            max_depth=queue_depth, tenants=self.tenants,
            admission=self.admission, scheduling=scheduling,
            retry_after_fn=lambda: self.batcher.predicted_makespan_s())
        self.batcher = MicroBatcher(session, self.queue,
                                    max_batch=max_batch,
                                    max_delay_ms=max_delay_ms)
        self.stats = self.batcher.stats
        self._server: asyncio.base_events.Server | None = None
        # Live connection handlers and the ones waiting for a request
        # line; touched on the event-loop thread only.
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._idle: set[asyncio.Task] = set()
        self._closing = False
        self._datasets: OrderedDict = OrderedDict()  # guarded-by: _dataset_lock
        self._dataset_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "ReproServer":
        """Start the batcher thread and bind the listening socket."""
        self.batcher.start()
        self._server = await asyncio.start_server(self._handle_connection,
                                                  self.host, self.port,
                                                  limit=LINE_LIMIT)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def stop(self) -> None:
        """Stop accepting connections, drain the batcher, release the
        session's serving resources (the session itself stays open —
        the caller owns it).

        Idle keep-alive connections are closed at once; a connection
        mid-request finishes its response first (bounded by the request
        timeout).  Every handler returns on its own, so none is left for
        the loop to cancel at exit."""
        if self._server is not None:
            self._server.close()
            self._closing = True
            for task, writer in list(self._connections.items()):
                if task in self._idle:
                    writer.close()
            if self._connections:
                await asyncio.wait(list(self._connections),
                                   timeout=self.request_timeout_s)
            await self._server.wait_closed()
            self._server = None
        await asyncio.to_thread(self.batcher.stop)

    async def run_forever(self) -> None:
        """Start, announce the bound address, and serve until SIGINT /
        SIGTERM (clean shutdown) — the ``repro serve`` entry point."""
        await self.start()
        print(f"repro serve listening on http://{self.host}:{self.port} "
              f"(backend={self.session.backend}, "
              f"config={self.session.ctx.config.name}, "
              f"max_batch={self.batcher.max_batch}, "
              f"max_delay_ms={self.batcher.max_delay_s * 1e3:g})",
              flush=True)
        loop = asyncio.get_running_loop()
        stopped = loop.create_future()

        def _request_stop() -> None:
            if not stopped.done():
                stopped.set_result(None)

        try:
            loop.add_signal_handler(signal.SIGINT, _request_stop)
            loop.add_signal_handler(signal.SIGTERM, _request_stop)
        except NotImplementedError:  # pragma: no cover - non-posix loops
            pass
        try:
            await stopped
        finally:
            await self.stop()
            print("repro serve: shutdown complete", flush=True)

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        assert task is not None  # each connection runs in its own task
        self._connections[task] = writer
        try:
            while not self._closing:
                self._idle.add(task)
                try:
                    request_line = await reader.readline()
                except ValueError:  # over the stream's line limit
                    await self._refuse_head(
                        reader, writer, 414,
                        f"request line longer than {LINE_LIMIT} bytes")
                    break
                finally:
                    self._idle.discard(task)
                if not request_line:
                    break
                try:
                    method, target, _version = \
                        request_line.decode("latin-1").split()
                except ValueError:
                    await self._respond(writer, 400,
                                        {"error": "malformed request line"},
                                        keep_alive=False)
                    break
                try:
                    async with asyncio.timeout(HEAD_TIMEOUT_S):
                        headers, refused = await _read_headers(reader)
                except TimeoutError:
                    await self._refuse_head(
                        reader, writer, 408,
                        "request headers not received in time")
                    break
                if refused:
                    await self._refuse_head(reader, writer, 431, refused)
                    break
                try:
                    length = int(headers.get("content-length") or 0)
                except ValueError:
                    await self._respond(writer, 400,
                                        {"error": "bad Content-Length"},
                                        keep_alive=False)
                    break
                if length < 0:
                    await self._respond(writer, 400,
                                        {"error": "negative Content-Length"},
                                        keep_alive=False)
                    break
                # Both rejections fire on the headers alone — before a
                # single body byte is read, so an oversized or mistyped
                # upload costs the server nothing to refuse.
                if length > MAX_BODY_BYTES:
                    await self._respond(writer, 413,
                                        {"error": "request body too large"},
                                        keep_alive=False)
                    break
                ctype = _content_type(headers)
                if ctype not in _ACCEPTED_CONTENT_TYPES:
                    await self._respond(
                        writer, 415,
                        {"error": f"unsupported Content-Type {ctype!r}; "
                                  "use application/json or "
                                  f"{WIRE_CONTENT_TYPE}"},
                        keep_alive=False)
                    break
                try:
                    body = await _read_body(reader, length)
                except TimeoutError:
                    await self._refuse_head(
                        reader, writer, 408,
                        "request body stalled for longer than "
                        f"{HEAD_TIMEOUT_S:g} s")
                    break
                keep_alive = headers.get("connection", "").lower() != "close"
                status, payload = await self._route(method.upper(),
                                                    target, body, headers)
                await self._respond(writer, status, payload, keep_alive)
                if not keep_alive:
                    break
        except (asyncio.IncompleteReadError, ConnectionResetError):
            pass  # client went away mid-request
        finally:
            del self._connections[task]
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _refuse_head(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter, status: int,
                           error: str) -> None:
        """Answer a request whose head cannot be read, then half-close and
        discard what the client is still sending, for at most
        :data:`LINGER_S` and :data:`LINGER_BYTES`: closing a socket with
        unread input resets the connection, which can destroy the
        response before the client reads it."""
        await self._respond(writer, status, {"error": error},
                            keep_alive=False)
        writer.write_eof()

        async def discard() -> None:
            remaining = LINGER_BYTES
            while remaining > 0:
                chunk = await reader.read(min(remaining, LINE_LIMIT))
                if not chunk:
                    return
                remaining -= len(chunk)

        try:
            await asyncio.wait_for(discard(), LINGER_S)
        except asyncio.TimeoutError:
            pass

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       payload: "dict | list", keep_alive: bool) -> None:
        """Send one response under its ``Content-Length``: a JSON dict, or
        the wire segments of a binary frame, written one at a time and
        drained after each so a large product is never buffered twice."""
        extra = ""
        if isinstance(payload, list):
            ctype, segments = WIRE_CONTENT_TYPE, payload
        else:
            retry_after = payload.pop("_retry_after", None)
            if retry_after is not None:
                # The body keeps the precise float; the header is the
                # integer-seconds form proxies and clients understand.
                extra = f"Retry-After: {max(1, math.ceil(retry_after))}\r\n"
            output = payload.pop("_output_json", None)
            body = json.dumps(_jsonable(payload))
            if output is not None:  # csr_json text, spliced in as the last key
                body = f'{body[:-1]}, "output": {output}}}'
            ctype, segments = "application/json", [body.encode()]
        nbytes = frames_nbytes(segments)
        head = (f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
                f"Content-Type: {ctype}\r\n"
                f"Content-Length: {nbytes}\r\n"
                f"{extra}"
                f"Connection: {'keep-alive' if keep_alive else 'close'}"
                "\r\n\r\n")
        writer.write(head.encode("latin-1") + segments[0])
        await writer.drain()
        for segment in segments[1:]:
            writer.write(segment)
            await writer.drain()
        self.stats.add("bytes_out", nbytes)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _route(self, method: str, target: str, body: bytes,
                     headers: dict[str, str]
                     ) -> "tuple[int, dict | list]":
        if body:
            self.stats.add("bytes_in", len(body))
        path = target.split("?", 1)[0]
        if path == "/healthz":
            if method != "GET":
                return 405, {"error": "use GET"}
            return 200, {
                "status": "ok",
                "backend": self.session.backend,
                "config": self.session.ctx.config.name,
                "chips": (self.session.topology.n_chips
                          if self.session.topology is not None else 1),
                "partition": self.session.partition,
            }
        if path == "/stats":
            if method != "GET":
                return 405, {"error": "use GET"}
            return 200, self.stats.snapshot(queue_depth=self.queue.depth,
                                            cache=self.session.cache_stats(),
                                            registry=self.registry.stats())
        if path == "/v1/operands":
            if method in ("PUT", "POST"):
                return await self._operand_put(body, headers)
            if method == "GET":
                return 200, {"operands": self.registry.entries(),
                             **self.registry.stats()}
            return 405, {"error": "use PUT/POST to register, GET to list"}
        if path.startswith("/v1/operands/"):
            digest = path[len("/v1/operands/"):]
            return self._operand_item(method, digest, headers)
        if path == "/v1/tenants":
            if method != "GET":
                return 405, {"error": "use GET"}
            return 200, self._tenants_payload()
        if path in ("/v1/spgemm", "/v1/gcn", "/v1/gnn"):
            if method != "POST":
                return 405, {"error": "use POST"}
            raw_tenant = headers.get(TENANT_HEADER, DEFAULT_TENANT)
            if not _TENANT_RE.match(raw_tenant):
                return 400, {"error": f"invalid {TENANT_HEADER} header: "
                                      "1-64 chars, [A-Za-z0-9._-], must "
                                      "start alphanumeric"}
            tenant = self.tenants.resolve_name(raw_tenant)
            if path == "/v1/spgemm":
                return await self._serve_spgemm(body, headers, tenant)
            if path == "/v1/gcn":
                return await self._serve_graph(body, headers, tenant,
                                               "GCN layer", _gcn_spec)
            return await self._serve_graph(body, headers, tenant,
                                           "GNN stack", _gnn_spec)
        return 404, {"error": f"unknown path {path!r}; endpoints: "
                              "/healthz /stats /v1/operands /v1/tenants "
                              "/v1/spgemm /v1/gcn /v1/gnn"}

    def _tenants_payload(self) -> dict:
        """``GET /v1/tenants``: configured policies, admission state,
        WFQ accounting, and per-tenant serving counters, merged by name."""
        rows: dict[str, dict] = {}
        for name, config in self.tenants.describe().items():
            rows.setdefault(name, {})["config"] = config
        for name, state in self.admission.snapshot().items():
            rows.setdefault(name, {})["admission"] = state
        for name, account in self.queue.accounting().items():
            rows.setdefault(name, {})["scheduling"] = account
        for name, counters in self.stats.tenant_snapshot().items():
            rows.setdefault(name, {})["serving"] = counters
        return {"tenants": rows,
                "scheduling": self.queue.scheduling,
                "default_tenant": DEFAULT_TENANT}

    # ------------------------------------------------------------------
    # Operand registry endpoints
    # ------------------------------------------------------------------
    async def _operand_put(self, body: bytes, headers: dict[str, str]
                           ) -> tuple[int, dict]:
        """Register one operand: a binary x-repro-csr frame, inline JSON
        CSR arrays, or a named generator dataset synthesised server-side."""
        dataset = None
        try:
            if _content_type(headers) == WIRE_CONTENT_TYPE:
                csr, _meta = decode_csr(body)
                source = "upload"
            else:
                payload = self._json(body)
                if "dataset" in payload:
                    dataset = await self._dataset(payload, default_nodes=256)
                    csr, source = dataset.adjacency_csr(), dataset.name
                else:
                    csr, source = _parse_csr(payload, "operand"), "upload"
        except WireFormatError as err:
            return 400, {"error": f"bad x-repro-csr frame: {err}"}
        except (ValueError, TypeError, KeyError, OverflowError,
                json.JSONDecodeError) as err:
            return 400, {"error": str(err)}
        try:
            entry, created = self.registry.put(csr, source=source,
                                               dataset=dataset)
        except RegistryFull as err:
            return 413, {"error": str(err)}
        row = entry.describe()
        row["created"] = created
        return 200, row

    def _operand_item(self, method: str, digest: str,
                      headers: dict[str, str]
                      ) -> "tuple[int, dict | list]":
        """Metadata / binary download / delete of one registered operand."""
        if method == "GET":
            try:
                entry = self.registry.get(digest)
            except UnknownOperand as err:
                return 404, {"error": str(err)}
            if _accepts_wire(headers):
                return 200, encode_csr_frames(entry.csr,
                                              meta=entry.describe())
            return 200, entry.describe()
        if method == "DELETE":
            try:
                self.registry.delete(digest)
            except UnknownOperand as err:
                return 404, {"error": str(err)}
            except OperandPinned as err:
                return 409, {"error": str(err)}
            return 200, {"deleted": digest}
        return 405, {"error": "use GET or DELETE"}

    # ------------------------------------------------------------------
    # Workload endpoints
    # ------------------------------------------------------------------
    def _json(self, body: bytes) -> dict:
        try:
            payload = json.loads(body.decode() or "{}")
        except RecursionError as err:
            raise ValueError("request body nests too deeply") from err
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    async def _dataset(self, payload: dict, default_nodes: int):
        """The generator dataset a body names (``dataset``, ``max_nodes``
        defaulting to ``default_nodes``, ``seed``), from the LRU or
        synthesised on a worker thread so the event loop keeps serving."""
        name = str(payload["dataset"])
        max_nodes = int(payload.get("max_nodes", default_nodes))
        seed = int(payload.get("seed", 0))
        if max_nodes > MAX_DATASET_NODES:
            raise ValueError(f"max_nodes {max_nodes} is above the server's "
                             f"limit of {MAX_DATASET_NODES}")
        key = (name, max_nodes, seed)
        with self._dataset_lock:
            dataset = self._datasets.get(key)
            if dataset is not None:
                self._datasets.move_to_end(key)
                return dataset
        dataset = await asyncio.to_thread(load_dataset, name,
                                          max_nodes=max_nodes, seed=seed)
        with self._dataset_lock:
            # A concurrent request may have cached the same dataset while
            # this one was synthesising; share its object.
            dataset = self._datasets.setdefault(key, dataset)
            self._datasets.move_to_end(key)
            while len(self._datasets) > MAX_CACHED_DATASETS:
                self._datasets.popitem(last=False)
        return dataset

    async def _serve_spgemm(self, body: bytes, headers: dict[str, str],
                            tenant: str = DEFAULT_TENANT
                            ) -> "tuple[int, dict | list]":
        binary = _accepts_wire(headers)
        try:
            payload = self._json(body)
            shards = _capped("shards", payload.get("shards", 1),
                             MAX_SPGEMM_SHARDS)
            self.session.check_shards(shards)
            if "a" in payload:
                a = _parse_operand(payload["a"], "a")
                b = (_parse_operand(payload["b"], "b")
                     if "b" in payload else None)
                source = str(payload.get("label", "serve"))
            elif "dataset" in payload:
                dataset = await self._dataset(payload, default_nodes=256)
                a, b = dataset.adjacency_csr(), None
                source = dataset.name
            else:
                raise ValueError("body needs 'dataset', explicit 'a', or "
                                 "an operand ref")
            spec = SpGEMMSpec(
                a=a, b=b,
                tile_size=payload.get("tile_size"),
                verify=bool(payload.get("verify", False)),
                shards=shards,
                source=source,
                label=str(payload.get("label", source)))
            timeout = _seconds(payload.get("timeout_s", self.request_timeout_s))
        except (ValueError, TypeError, KeyError, OverflowError,
                json.JSONDecodeError) as err:
            return 400, {"error": str(err)}
        try:
            spec, pins = self.registry.resolve(spec)
        except UnknownOperand as err:
            return 404, {"error": str(err)}
        except ValueError as err:  # resolved operands that do not multiply
            return 400, {"error": str(err)}
        status, row = await self._submit(spec, timeout, pins, tenant)
        if status != 200:
            return status, row
        if binary:
            # Binary Accept implies include_output: the product rides as
            # raw segments, the metrics row as the frame's metadata blob.
            result = row.pop("_result")
            if not hasattr(result.output, "indptr"):
                return 406, {"error": "result output is not CSR; "
                                      "cannot encode x-repro-csr"}
            return 200, encode_csr_frames(result.output,
                                          meta=_jsonable(row))
        result = row.pop("_result", None)
        if payload.get("include_output"):
            row["_output_json"] = csr_json(result.output)
        return status, row

    async def _serve_graph(self, body: bytes, headers: dict[str, str],
                           tenant: str, what: str,
                           build_spec: Callable[[dict, Any, str], Any]
                           ) -> tuple[int, dict]:
        """``/v1/gcn`` and ``/v1/gnn``: a workload over one graph.

        The body's ``dataset`` is a generator name (synthesised server-side
        and cached) or ``{"ref": <digest>}``: a dataset-backed registry
        entry replays its generator dataset, byte-identical to the inline
        name, while a bare CSR upload aggregates over the matrix itself.
        ``build_spec(payload, dataset, label)`` turns the rest of the body
        into the spec.  Both outputs are dense, so a binary ``Accept`` is
        refused."""
        if _accepts_wire(headers):
            return 406, {"error": f"{what} output is dense; "
                                  f"{WIRE_CONTENT_TYPE} responses are "
                                  "SpGEMM-only"}
        pins: tuple = ()
        try:
            payload = self._json(body)
            graph = payload.get("dataset")
            if isinstance(graph, dict) and "ref" in graph:
                digest = str(graph["ref"])
                try:
                    entry = self.registry.get(digest)
                    pins = (self.registry.acquire(digest),)
                except UnknownOperand as err:
                    return 404, {"error": str(err)}
                if entry.dataset is not None:
                    dataset, default_label = entry.dataset, entry.source
                else:
                    dataset = csr_to_coo(entry.csr)
                    default_label = f"ref:{digest[:12]}"
            elif graph is not None:
                dataset = await self._dataset(payload, default_nodes=128)
                default_label = dataset.name
            else:
                raise ValueError("body needs a 'dataset' name or "
                                 "{'ref': <digest>}")
            spec = build_spec(payload, dataset,
                              str(payload.get("label", default_label)))
            timeout = _seconds(payload.get("timeout_s", self.request_timeout_s))
        except (ValueError, TypeError, KeyError, OverflowError,
                json.JSONDecodeError) as err:
            for pin in pins:
                pin.release()
            return 400, {"error": str(err)}
        status, row = await self._submit(spec, timeout, pins, tenant)
        row.pop("_result", None)
        return status, row

    async def _submit(self, spec, timeout_s: float, pins: tuple = (),
                      tenant: str = DEFAULT_TENANT) -> tuple[int, dict]:
        """Enqueue one spec and await its future; maps serving-layer
        failure modes onto HTTP status codes.  ``pins`` (operand-registry
        holds) ride on the request and release when its future resolves;
        if the queue refuses the request they are released here."""
        self.stats.add("requests")
        try:
            request = self.queue.put(spec, timeout_s=timeout_s, pins=pins,
                                     tenant=tenant)
        except (AdmissionError, QueueOverflow, QueueClosed) as err:
            for pin in pins:  # a refused request never adopted its pins
                pin.release()
            if isinstance(err, QueueClosed):
                return 503, {"error": str(err)}
            if isinstance(err, AdmissionError):
                reason = "quota" if isinstance(err, QuotaExceeded) else "rate"
                self.stats.add(f"rejected_{reason}", tenant=err.tenant)
                return err.status, {"error": str(err), "tenant": err.tenant,
                                    "retry_after_s": round(err.retry_after_s, 3),
                                    "_retry_after": err.retry_after_s}
            self.stats.add("rejected_queue", tenant=tenant)
            body = {"error": str(err), "tenant": tenant}
            if err.retry_after_s is not None:
                body["retry_after_s"] = round(err.retry_after_s, 3)
                body["_retry_after"] = err.retry_after_s
            return 503, body
        self.stats.add("admitted", tenant=request.tenant)
        try:
            # Small grace over the queue deadline so batcher-side timeouts
            # (ServeTimeout) win the race and report precisely.
            result = await asyncio.wait_for(
                asyncio.wrap_future(request.future), timeout_s + 1.0)
        except asyncio.TimeoutError:
            request.cancel()
            return 504, {"error": f"request timed out after {timeout_s}s",
                         "tenant": request.tenant}
        except ServeTimeout as err:
            return 504, {"error": "deadline",
                         "detail": str(err),
                         "tenant": err.tenant or request.tenant,
                         "queued_ms": err.queued_ms}
        except asyncio.CancelledError:
            raise
        except QueueClosed as err:
            return 503, {"error": str(err)}
        except Exception as err:  # noqa: BLE001 - execution error -> 500
            return 500, {"error": f"{type(err).__name__}: {err}"}
        row = dict(result.as_row())
        row["request_id"] = request.request_id
        row["_result"] = result  # stripped (or expanded) by the endpoint
        return 200, row


def _seconds(value, name: str = "timeout_s") -> float:
    """``value`` as a finite number of seconds above 0, else
    ``ValueError`` (answered 400 for a body's ``timeout_s``)."""
    seconds = float(value)
    if not math.isfinite(seconds) or seconds <= 0:
        raise ValueError(f"{name} must be a finite number of seconds "
                         f"above 0, got {seconds}")
    return seconds


def _capped(field: str, value, limit: int) -> int:
    """``int(value)``, or ``ValueError`` (answered 400) above ``limit``."""
    value = int(value)
    if value > limit:
        raise ValueError(f"{field} {value} is above the server's limit "
                         f"of {limit}")
    return value


def _gcn_spec(payload: dict, dataset, label: str) -> GCNLayerSpec:
    """``/v1/gcn`` body -> one GCN layer over ``dataset``."""
    return GCNLayerSpec(
        dataset=dataset,
        feature_dim=_capped("feature_dim", payload.get("feature_dim", 16),
                            MAX_FEATURE_DIM),
        hidden_dim=_capped("hidden_dim", payload.get("hidden_dim", 8),
                           MAX_FEATURE_DIM),
        feature_density=float(payload.get("feature_density", 0.3)),
        verify=bool(payload.get("verify", False)),
        seed=int(payload.get("feature_seed", 7)),
        label=label)


def _gnn_spec(payload: dict, dataset, label: str) -> GNNModelSpec:
    """``/v1/gnn`` body -> a GNN stack over ``dataset``: ``layer_dims``,
    or ``"layers": L`` + ``"hidden_dim": H`` as shorthand for a uniform
    ``[H] * L`` stack; ``batches`` > 1 pipelines feature batches
    layer-by-layer across the fleet."""
    if "layer_dims" in payload:
        raw_dims = payload["layer_dims"]
        _capped("len(layer_dims)", len(raw_dims), MAX_GNN_LAYERS)
        layer_dims = tuple(_capped("layer_dims entry", dim, MAX_FEATURE_DIM)
                           for dim in raw_dims)
    else:
        layer_dims = (_capped("hidden_dim", payload.get("hidden_dim", 8),
                              MAX_FEATURE_DIM),) \
            * _capped("layers", payload.get("layers", 1), MAX_GNN_LAYERS)
    activations = payload.get("activations")
    if activations is not None and not isinstance(activations, str):
        activations = tuple(str(act) for act in activations)
    return GNNModelSpec(
        dataset=dataset,
        layer_dims=layer_dims,
        feature_dim=_capped("feature_dim", payload.get("feature_dim", 16),
                            MAX_FEATURE_DIM),
        feature_density=float(payload.get("feature_density", 0.3)),
        activations=activations,
        seed=int(payload.get("feature_seed", 7)),
        batches=_capped("batches", payload.get("batches", 1),
                        MAX_GNN_BATCHES),
        verify=bool(payload.get("verify", False)),
        label=label)


class BackgroundServer:
    """Run a :class:`ReproServer` on a dedicated asyncio thread.

    Used by tests, ``examples/serving_client.py`` (self-hosted mode), and
    ``benchmarks/bench_serving.py``::

        with BackgroundServer(ReproServer(session, port=0)) as bg:
            requests.post(f"http://127.0.0.1:{bg.port}/v1/spgemm", ...)
    """

    def __init__(self, server: ReproServer) -> None:
        self.server = server
        self._thread: threading.Thread | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stopped: asyncio.Future | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    @property
    def port(self) -> int:
        return self.server.port

    def start(self) -> "BackgroundServer":
        self._thread = threading.Thread(target=self._run,
                                        name="repro-serve", daemon=True)
        self._thread.start()
        self._ready.wait(timeout=30.0)
        if self._startup_error is not None:
            raise RuntimeError("server failed to start") \
                from self._startup_error
        if not self._ready.is_set():
            raise RuntimeError("server did not start within 30s")
        return self

    def _run(self) -> None:
        async def main() -> None:
            try:
                self._loop = asyncio.get_running_loop()
                self._stopped = self._loop.create_future()
                await self.server.start()
            except BaseException as error:  # noqa: BLE001 - re-raised in start()
                self._startup_error = error
                self._ready.set()
                return
            self._ready.set()
            await self._stopped
            await self.server.stop()

        asyncio.run(main())

    def stop(self) -> None:
        if self._thread is None:
            return
        if self._loop is not None and self._stopped is not None:
            def _finish() -> None:
                if not self._stopped.done():
                    self._stopped.set_result(None)
            self._loop.call_soon_threadsafe(_finish)
        self._thread.join(timeout=30.0)
        self._thread = None

    def __enter__(self) -> "BackgroundServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
