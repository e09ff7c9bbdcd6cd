"""``serve-mixed``: ``repro serve`` in its own process under closed-loop load.

One load generator (this process) keeps :data:`CONNECTIONS` keep-alive
connections busy in a closed loop: each connection sends its next request
only after the previous reply arrived, matching the two cores the
benchmark host has.  Load runs in 1 s segments; between them the clients
are idle while this process times the host-speed kernel
(``hostspeed.py``).  The seeded request mix, 2:1:1, is

* ``/v1/spgemm`` by registry ref with a binary ``Accept``, over four
  relabelings of the 2000-node wiki-Vote graph PUT once during set-up;
* ``/v1/spgemm`` with a 300-node operand inline as JSON and
  ``include_output``;
* ``/v1/gnn``, depth 2 on one chip, over an uploaded cora graph.

Every reply is checked: binary products must be byte-identical to a direct
``Session.run`` of the same operand (itself checked against an independent
dataflow), inline products must match that dataflow, and GNN rows must
carry the stack's modelled cycles.  Shutdown closes every client
connection first, then stops the server with SIGINT and waits for it; the
server's stderr is kept, and its tracebacks are counted.
"""

from __future__ import annotations

import http.client
import json
import os
import queue
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import numpy as np

from repro.core import GNNModelSpec, Session, SpGEMMSpec
from repro.datasets import load_dataset
from repro.serve.wire import WIRE_CONTENT_TYPE, decode_csr, encode_csr
from repro.sparse.convert import csr_to_coo
from repro.sparse.csr import CSRMatrix

from hostspeed import Sampler
from layers import PER_LAYER, layer_metrics
from spans import Tracer
from workloads import (INLINE, NODES, OUT, Outcome, Workload, feature_seed,
                       identical, latency_notes, measure_interleaved, mix_p50,
                       reference_product, relabel, same_product,
                       session_counters, setup_s, timed_setups)

ROOT = Path(__file__).resolve().parent.parent
CONNECTIONS = 2
MIX = ("ref", "ref", "inline", "gnn")
OPERANDS = 4  # distinct operands per spgemm request kind
INLINE_NODES = 300
GNN_DIMS = (16, 16)
GNN_FEATURES = 16
SERVER_TIMEOUT_S = 60.0
JSON_HEADERS = {"Content-Type": "application/json"}
SEGMENT_S = 1.0


class Server:
    """``python -m repro serve`` as a child process of this one."""

    def __init__(self) -> None:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--backend", "analytic",
             "--config", "Tile-16", "--port", "0"],
            cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        self.stderr: list[str] = []
        self._stdout: queue.Queue = queue.Queue()
        self._drains = [
            threading.Thread(target=self._drain,
                             args=(self.proc.stdout, self._stdout.put)),
            threading.Thread(target=self._drain,
                             args=(self.proc.stderr, self.stderr.append)),
        ]
        for thread in self._drains:
            thread.start()
        try:
            self.port = self._await_port()
        except BaseException:
            self.stop()
            raise

    @staticmethod
    def _drain(stream, sink) -> None:
        for line in stream:
            sink(line)

    def _await_port(self) -> int:
        deadline = time.monotonic() + SERVER_TIMEOUT_S
        while time.monotonic() < deadline:
            try:
                line = self._stdout.get(timeout=0.5)
            except queue.Empty:
                if self.proc.poll() is not None:
                    break
                continue
            match = re.search(r"listening on http://[^:]+:(\d+)", line)
            if match:
                return int(match.group(1))
        raise RuntimeError("repro serve did not announce its port:\n"
                           + "".join(self.stderr[-20:]))

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=SERVER_TIMEOUT_S)

    def peak_rss_mb(self) -> float:
        """The server process's peak resident set (VmHWM)."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+)", status).group(1)) / 1024.0

    def stop(self) -> bool:
        """SIGINT, then wait; True when the server exited cleanly."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            code = self.proc.wait(timeout=SERVER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        for thread in self._drains:
            thread.join(timeout=SERVER_TIMEOUT_S)
        return code == 0

    def tracebacks(self) -> int:
        return sum(line.startswith("Traceback") for line in self.stderr)


def call(conn: http.client.HTTPConnection, method: str, path: str,
         body: bytes = b"", headers: dict | None = None
         ) -> tuple[int, bytes]:
    conn.request(method, path, body=body, headers=headers or {})
    response = conn.getresponse()
    return response.status, response.read()


def csr_json(csr: CSRMatrix) -> dict:
    return {"indptr": csr.indptr.tolist(), "indices": csr.indices.tolist(),
            "data": csr.data.tolist(), "shape": list(csr.shape)}


class ServeMixed:
    """Seeded inputs, the running server, and the reply checks."""

    def __init__(self) -> None:
        self.server: Server | None = None
        self.clean_exits: list[bool] = []
        self.tracebacks = 0

    # -- set-up ---------------------------------------------------------
    def setup(self, seed: int) -> None:
        self.seed = seed
        base = load_dataset("wiki-Vote", max_nodes=NODES,
                            seed=0).adjacency_csr()
        self.operands = [relabel(base, seed, index)
                         for index in range(OPERANDS)]
        small = load_dataset("wiki-Vote", max_nodes=INLINE_NODES,
                             seed=0).adjacency_csr()
        self.inline = [relabel(small, seed, index, INLINE)
                       for index in range(OPERANDS)]
        self.inline_bodies = [
            json.dumps({"a": csr_json(a), "include_output": True}).encode()
            for a in self.inline]
        self.graph = load_dataset("cora", max_nodes=NODES,
                                  seed=0).adjacency_csr()
        self.server = Server()
        conn = self.server.connect()
        try:
            self.refs = [self._put(conn, a) for a in self.operands]
            self.graph_ref = self._put(conn, self.graph)
            # Warm-up: one request per distinct job compiles its program;
            # the replies give the modelled cycles of one pass.
            self.job_cycles = {}
            for slot in range(OPERANDS):
                for kind in ("ref", "inline"):
                    status, body = self._send(conn, kind, slot, 0)
                    self.job_cycles[kind, slot] = self._cycles(kind, status,
                                                               body)
            status, body = self._send(conn, "gnn", 0, 0)
            self.job_cycles["gnn", 0] = self._cycles("gnn", status, body)
        finally:
            conn.close()

    def _put(self, conn, csr: CSRMatrix) -> str:
        status, body = call(conn, "PUT", "/v1/operands", encode_csr(csr),
                            {"Content-Type": WIRE_CONTENT_TYPE})
        if status != 200:
            raise RuntimeError(f"operand upload failed: {status} {body!r}")
        return json.loads(body)["ref"]

    @staticmethod
    def _cycles(kind: str, status: int, body: bytes) -> float:
        if status != 200:
            raise RuntimeError(f"warm-up {kind} request failed: {status}")
        if kind == "ref":
            return float(decode_csr(body)[1]["cycles"])
        row = json.loads(body)
        return float(row["total_cycles" if kind == "gnn" else "cycles"])

    def prepare_checks(self) -> bool:
        """Expected replies, computed before the timed phase: the direct
        ``Session.run`` products (themselves checked against an
        independent dataflow) and the inline references."""
        with Session("Tile-16", backend="analytic") as session:
            self.direct = [session.run(SpGEMMSpec(a=a)).output
                           for a in self.operands]
        self.inline_expected = [reference_product(a) for a in self.inline]
        return all(same_product(out, reference_product(a))
                   for out, a in zip(self.direct, self.operands))

    def close(self) -> None:
        """Stop the server, keeping its exit status and tracebacks."""
        if self.server is not None:
            self.clean_exits.append(self.server.stop())
            self.tracebacks += self.server.tracebacks()
            self.server = None

    # -- the request stream -----------------------------------------------
    def job(self, index: int) -> tuple[str, int]:
        """Kind and operand slot of request ``index``: each block of four
        requests is a seeded shuffle of :data:`MIX`."""
        block, position = divmod(index, len(MIX))
        rng = np.random.default_rng([self.seed, 32, block])
        order = rng.permutation(len(MIX))
        slots = rng.integers(OPERANDS, size=len(MIX))
        return MIX[order[position]], int(slots[position])

    def _send(self, conn, kind: str, slot: int, index: int):
        if kind == "ref":
            body = json.dumps({"a": {"ref": self.refs[slot]},
                               "label": f"r{index}"}).encode()
            return call(conn, "POST", "/v1/spgemm", body,
                        {**JSON_HEADERS, "Accept": WIRE_CONTENT_TYPE})
        if kind == "inline":
            return call(conn, "POST", "/v1/spgemm", self.inline_bodies[slot],
                        JSON_HEADERS)
        body = json.dumps({"dataset": {"ref": self.graph_ref},
                           "layer_dims": list(GNN_DIMS),
                           "feature_dim": GNN_FEATURES,
                           "feature_seed": feature_seed(self.seed, index)})
        return call(conn, "POST", "/v1/gnn", body.encode(), JSON_HEADERS)

    def check(self, kind: str, slot: int, status: int, body: bytes,
              decode_ms: list) -> bool:
        if status != 200:
            return False
        if kind == "ref":
            begin = time.perf_counter_ns()
            product, _meta = decode_csr(body)
            decode_ms.append((time.perf_counter_ns() - begin) / 1e6)
            return identical(product, self.direct[slot])
        row = json.loads(body)
        if kind == "inline":
            out = row["output"]
            product = CSRMatrix(out["indptr"], out["indices"], out["data"],
                                tuple(out["shape"]))
            return same_product(product, self.inline_expected[slot])
        return (row.get("layers") == len(GNN_DIMS)
                and row.get("total_cycles") == self.job_cycles["gnn", 0])

    def drive(self, seconds: float, start: int
              ) -> tuple[list, float, list, Sampler]:
        """Closed loop over :data:`CONNECTIONS` keep-alive connections for
        ``seconds`` of load, in segments of :data:`SEGMENT_S`.  Between
        segments both clients are idle and this thread times the host-speed
        kernel, so the kernel never competes with the load it calibrates.
        Returns ``(records, wall_s, decode_ms, host)``: a record is
        ``(kind, latency_ms or None, ok, reply_bytes, sent_ns)``, ``wall_s``
        sums the segments, and ``host`` is the :class:`Sampler` holding the
        kernel samples."""
        records: list = []
        decode_ms: list = []
        lock = threading.Lock()
        cursor = [start]
        conns = [self.server.connect() for _ in range(CONNECTIONS)]

        def client(slot: int, deadline: float) -> None:
            while True:
                with lock:
                    if time.perf_counter() >= deadline:
                        return
                    index = cursor[0]
                    cursor[0] += 1
                kind, operand = self.job(index)
                begin = time.perf_counter_ns()
                try:
                    status, body = self._send(conns[slot], kind, operand,
                                              index)
                except (OSError, http.client.HTTPException):
                    traceback.print_exc(file=sys.stderr)
                    with lock:
                        records.append((kind, None, False, 0, begin))
                    conns[slot].close()
                    conns[slot] = self.server.connect()
                    continue
                latency = (time.perf_counter_ns() - begin) / 1e6
                try:
                    ok = self.check(kind, operand, status, body, decode_ms)
                except Exception:  # a malformed reply is a failure
                    traceback.print_exc(file=sys.stderr)
                    ok = False
                with lock:
                    records.append((kind, latency, ok, len(body), begin))

        host = Sampler()
        host.sample()
        wall = 0.0
        try:
            while wall < seconds:
                begin = time.perf_counter()
                deadline = begin + min(SEGMENT_S, seconds - wall)
                threads = [threading.Thread(target=client, args=(slot,
                                                                 deadline))
                           for slot in range(CONNECTIONS)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join()
                wall += time.perf_counter() - begin
                host.sample()
        finally:
            for conn in conns:
                conn.close()
        return records, wall, decode_ms, host

    def stats(self) -> dict:
        conn = self.server.connect()
        try:
            status, body = call(conn, "GET", "/stats")
        finally:
            conn.close()
        if status != 200:
            raise RuntimeError(f"GET /stats failed: {status}")
        return json.loads(body)


class DirectMix(Workload):
    """The same request stream run straight through ``Session.run`` in
    this process: the baseline for ``serve.http_overhead_ms`` and the
    traced replay behind the per-layer numbers."""

    name = "serve-mixed"
    pass_len = len(MIX)  # one shuffled block keeps the 2:1:1 mix

    def __init__(self, serve: ServeMixed) -> None:
        self.serve = serve
        self.session = Session("Tile-16", backend="analytic")
        self._sessions = [self.session]
        self.graph = csr_to_coo(serve.graph)
        for slot in range(OPERANDS):  # warm, like the server after set-up
            for kind in ("ref", "inline"):
                self.execute(self.spec(kind, slot, 0))
        self.execute(self.spec("gnn", 0, 0))

    def spec(self, kind: str, slot: int, index: int):
        if kind == "ref":
            return SpGEMMSpec(a=self.serve.operands[slot])
        if kind == "inline":
            return SpGEMMSpec(a=self.serve.inline[slot])
        return GNNModelSpec(dataset=self.graph, layer_dims=GNN_DIMS,
                            feature_dim=GNN_FEATURES,
                            seed=feature_seed(self.serve.seed, index),
                            verify=False)

    def inputs(self, index: int):
        kind, slot = self.serve.job(index)
        return kind, slot, self.spec(kind, slot, index)

    def execute(self, inputs):
        return self.session.run(inputs[2] if isinstance(inputs, tuple)
                                else inputs)

    def check(self, inputs, result) -> bool:
        kind, slot, _spec = inputs
        if kind == "ref":
            return identical(result.output, self.serve.direct[slot])
        if kind == "inline":
            return same_product(result.output,
                                self.serve.inline_expected[slot])
        return (result.metrics["total_cycles"]
                == self.serve.job_cycles["gnn", 0])

    def cycles(self, result) -> float:
        metrics = result.metrics
        return float(metrics["total_cycles" if result.kind == "gnn_model"
                             else "cycles"])


def _serve_layers(serve: ServeMixed, http_p50: float, seconds: float,
                  start: int, stats_before: dict, stats_after: dict,
                  decode_ms: list, setup_tracer: Tracer):
    """Direct untraced and traced replays, then every per-layer metric."""
    direct = DirectMix(serve)
    tracer = Tracer()
    try:
        before = session_counters(direct.sessions())
        untraced, traced = measure_interleaved(direct, seconds, tracer, start)
        after = session_counters(direct.sessions())
    finally:
        direct.close()
    encode_ms = []
    for product in serve.direct:
        begin = time.perf_counter_ns()
        encode_csr(product)
        encode_ms.append((time.perf_counter_ns() - begin) / 1e6)
    requests = stats_after["requests"] - stats_before["requests"]
    rejected = stats_after["shed"] + stats_after["timeouts"] + sum(
        row["rejected"] for row in stats_after["tenants"].values())
    extra = {
        "serve.server_latency_ms.p50": stats_after["latency_p50_ms"],
        "serve.http_overhead_ms": http_p50 - untraced.p50,
        "serve.mean_batch_size": stats_after["mean_batch_size"],
        "serve.coalesced_ratio": (stats_after["coalesced"]
                                  - stats_before["coalesced"])
        / max(requests, 1),
        "serve.rejected": rejected,
        "serve.bytes_out_per_req": (stats_after["bytes_out"]
                                    - stats_before["bytes_out"])
        / max(requests, 1),
        "wire.encode_ms": statistics.mean(encode_ms),
        "wire.decode_ms": statistics.mean(decode_ms) if decode_ms else 0.0,
    }
    values = layer_metrics(untraced.p50, tracer, setup_tracer, before, after,
                           extra, untraced.attempted + traced.attempted,
                           e2e_p50_ms=http_p50)
    tracer.dump(OUT / f"spans-serve-mixed-seed{serve.seed}.json")
    return values, untraced, traced, tracer.ops


def run_serve(name: str, seed: int, seconds: float, trace: bool,
              import_s: float, import_host_ms: float) -> Outcome:
    serve = ServeMixed()
    setup_tracer = Tracer() if trace else None
    try:
        setups, setups_norm = timed_setups(serve, seed, setup_tracer)
        checks_ok = serve.prepare_checks()
        load_s = seconds / 3 if trace else seconds
        stats_before = serve.stats()
        records, wall, decode_ms, host = serve.drive(load_s, 0)
        stats_after = serve.stats()
        rss = serve.server.peak_rss_mb()
        latencies = [latency for _, latency, ok, *_ in records if ok]
        http_p50 = statistics.median(latencies)
        attempted = len(records)
        failed = sum(not ok for _, _, ok, *_ in records)
        samples, notes = latency_notes(latencies, len(latencies) / wall)
        notes["setup_s_raw"] = f"{import_s + statistics.median(setups):.6f} s"
        for kind in ("ref", "inline", "gnn"):
            own = [latency for each, latency, ok, *_ in records
                   if ok and each == kind]
            if own:
                notes[f"latency_ms.p50[{kind}]"] = (
                    f"{statistics.median(own):.6f} ms (n={len(own)})")
        if trace:
            values, untraced, traced, ops = _serve_layers(
                serve, http_p50, 2 * load_s, len(records), stats_before,
                stats_after, decode_ms, setup_tracer)
            attempted += untraced.attempted + traced.attempted
            failed += untraced.failed + traced.failed
            samples["traced_ops"] = ops
    finally:
        serve.close()
    notes["server_exits_clean"] = str(all(serve.clean_exits))
    notes["server_tracebacks"] = str(serve.tracebacks)
    correct = checks_ok and failed == 0 and all(serve.clean_exits)
    if trace:
        values["serve.server_tracebacks"] = serve.tracebacks
        units = {metric: unit for metric, unit, *_ in PER_LAYER}
        metrics = {metric: (float(value), units[metric])
                   for metric, value in values.items()}
    else:
        metrics = {
            "setup_s": (setup_s(import_s, import_host_ms, setups_norm), "s"),
            "latency_ms.p50_norm": (mix_p50(
                [(kind, host.normalise(sent, latency))
                 for kind, latency, ok, _, sent in records if ok], MIX), "ms"),
            "peak_rss_mb": (rss, "MB"),
            "model.cycles": (float(sum(serve.job_cycles.values())),
                             "cycles"),
        }
    return Outcome(attempted=attempted, failed=failed, correct=correct,
                   metrics=metrics, samples=samples,
                   setup_samples=[round(value, 6) for value in setups],
                   notes=notes)
