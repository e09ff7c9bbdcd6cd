"""HTTP front-end: endpoints, error mapping, byte-identity over the wire."""

import http.client
import json
import logging
import socket
import threading
import time

import numpy as np
import pytest

from repro.core import Session, SpGEMMSpec
from repro.datasets import load_dataset
from repro.serve import BackgroundServer, QueueOverflow, ReproServer
from repro.serve import http as serve_http
from repro.serve.http import LINE_LIMIT, MAX_HEADERS


@pytest.fixture(scope="module")
def session():
    with Session("Tile-4", backend="analytic") as session:
        yield session


@pytest.fixture(scope="module")
def server(session):
    with BackgroundServer(ReproServer(session, port=0, max_batch=4,
                                      max_delay_ms=2.0)) as background:
        yield background.server


def request(server, method, path, payload=None, timeout=60):
    connection = http.client.HTTPConnection("127.0.0.1", server.port,
                                            timeout=timeout)
    try:
        body = None if payload is None else json.dumps(payload)
        connection.request(method, path, body=body)
        response = connection.getresponse()
        return response.status, json.loads(response.read())
    finally:
        connection.close()


class TestInfraEndpoints:
    def test_healthz(self, server):
        status, payload = request(server, "GET", "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["backend"] == "analytic"
        assert payload["config"] == "Tile-4"

    def test_stats_shape(self, server):
        status, payload = request(server, "GET", "/stats")
        assert status == 200
        for key in ("queue_depth", "requests", "responses", "batches",
                    "mean_batch_size", "coalesced", "shed",
                    "latency_p50_ms", "latency_p95_ms", "cache_hit_rate"):
            assert key in payload, key

    def test_unknown_path_404(self, server):
        status, payload = request(server, "GET", "/nope")
        assert status == 404
        assert "/v1/spgemm" in payload["error"]

    def test_wrong_method_405(self, server):
        assert request(server, "POST", "/healthz")[0] == 405
        assert request(server, "GET", "/v1/spgemm")[0] == 405


class TestSpGEMMEndpoint:
    def test_dataset_request(self, server):
        status, row = request(server, "POST", "/v1/spgemm",
                              {"dataset": "wiki-Vote", "max_nodes": 96,
                               "seed": 5, "label": "hello"})
        assert status == 200
        assert row["label"] == "hello"
        assert row["kind"] == "spgemm"
        assert row["cycles"] > 0
        assert row["output_nnz"] > 0
        assert "request_id" in row
        assert "_result" not in row  # internal handle never leaks

    def test_served_output_byte_identical_to_direct_run(self, server,
                                                        session):
        adjacency = load_dataset("wiki-Vote", max_nodes=96,
                                 seed=5).adjacency_csr()
        direct = session.run(SpGEMMSpec(a=adjacency, verify=False))
        status, row = request(server, "POST", "/v1/spgemm",
                              {"dataset": "wiki-Vote", "max_nodes": 96,
                               "seed": 5, "include_output": True})
        assert status == 200
        served = row["output"]
        assert np.array_equal(np.asarray(served["indptr"]),
                              direct.output.indptr)
        assert np.array_equal(np.asarray(served["indices"]),
                              direct.output.indices)
        assert np.array_equal(np.asarray(served["data"]),
                              direct.output.data)
        assert row["cycles"] == direct.metrics["cycles"]

    def test_explicit_csr_operands(self, server):
        dense = np.array([[1.0, 0.0], [2.0, 3.0]])
        operand = {"indptr": [0, 1, 3], "indices": [0, 0, 1],
                   "data": [1.0, 2.0, 3.0], "shape": [2, 2]}
        status, row = request(server, "POST", "/v1/spgemm",
                              {"a": operand, "include_output": True})
        assert status == 200
        indptr = np.asarray(row["output"]["indptr"])
        indices = np.asarray(row["output"]["indices"])
        data = np.asarray(row["output"]["data"])
        product = np.zeros((2, 2))
        for i in range(2):
            for slot in range(indptr[i], indptr[i + 1]):
                product[i, indices[slot]] = data[slot]
        assert np.allclose(product, dense @ dense)

    def test_bad_json_400(self, server):
        connection = http.client.HTTPConnection("127.0.0.1", server.port,
                                                timeout=60)
        try:
            connection.request("POST", "/v1/spgemm", body="{not json")
            response = connection.getresponse()
            assert response.status == 400
            response.read()
        finally:
            connection.close()

    def test_missing_operand_400(self, server):
        status, payload = request(server, "POST", "/v1/spgemm",
                                  {"label": "no-operand"})
        assert status == 400
        assert "dataset" in payload["error"]

    def test_unknown_dataset_400(self, server):
        status, _ = request(server, "POST", "/v1/spgemm",
                            {"dataset": "does-not-exist"})
        assert status == 400

    def test_non_numeric_timeout_400(self, server):
        # A bad timeout_s must be a clean 400, not a dropped connection.
        status, payload = request(server, "POST", "/v1/spgemm",
                                  {"dataset": "wiki-Vote", "max_nodes": 96,
                                   "timeout_s": "abc"})
        assert status == 400
        assert "float" in payload["error"] or "abc" in payload["error"]

    def test_malformed_operand_400(self, server):
        status, payload = request(server, "POST", "/v1/spgemm",
                                  {"a": {"indptr": [0, 1]}})
        assert status == 400
        assert "missing" in payload["error"]

    def test_queue_overflow_maps_to_503(self, server, monkeypatch):
        def shed(spec, timeout_s=None, pins=(), tenant="default"):
            raise QueueOverflow("request queue is full (test)",
                                retry_after_s=0.25)

        def counts():
            stats = request(server, "GET", "/stats")[1]
            row = request(server, "GET", "/v1/tenants")[1]["tenants"] \
                .get("default", {}).get("serving", {})
            return stats["shed"], row.get("rejected_queue", 0)

        shed_before, rejected_before = counts()
        monkeypatch.setattr(server.queue, "put", shed)
        status, payload = request(server, "POST", "/v1/spgemm",
                                  {"dataset": "wiki-Vote", "max_nodes": 96})
        assert status == 503
        assert "full" in payload["error"]
        assert payload["tenant"] == "default"
        assert payload["retry_after_s"] == 0.25
        # One 503, counted once: /stats' shed is the tenant rows' sum.
        assert counts() == (shed_before + 1, rejected_before + 1)


class TestGCNEndpoint:
    def test_gcn_request(self, server):
        status, row = request(server, "POST", "/v1/gcn",
                              {"dataset": "cora", "max_nodes": 64,
                               "feature_dim": 8, "hidden_dim": 4})
        assert status == 200
        assert row["kind"] == "gcn_layer"
        assert row["total_cycles"] > 0

    def test_gcn_requires_dataset(self, server):
        status, payload = request(server, "POST", "/v1/gcn",
                                  {"feature_dim": 8})
        assert status == 400
        assert "dataset" in payload["error"]


#: A 2x3 CSR operand: A @ A (no ``b``) does not multiply.
NON_SQUARE = {"indptr": [0, 1, 2], "indices": [0, 2], "data": [1.0, 2.0],
              "shape": [2, 3]}
#: Parses from JSON ``Infinity`` (or ``1e400``); ``int()`` of it overflows.
INF = float("inf")


class TestInvalidWorkloads:
    """Workload parameters that cannot run are refused with 400 while the
    spec is built, before anything executes."""

    @pytest.mark.parametrize("path, body", [
        ("/v1/gcn", {"dataset": "cora", "max_nodes": 64, "hidden_dim": 0}),
        ("/v1/gcn", {"dataset": "cora", "max_nodes": 64, "feature_dim": -3}),
        ("/v1/gnn", {"dataset": "cora", "max_nodes": 64, "feature_dim": 0}),
        ("/v1/gnn", {"dataset": "cora", "max_nodes": 64,
                     "activations": "bogus"}),
        ("/v1/gnn", {"dataset": "cora", "max_nodes": 64,
                     "layer_dims": [4, 4], "activations": ["relu", "tanh"]}),
        ("/v1/spgemm", {"dataset": "wiki-Vote", "max_nodes": 64,
                        "tile_size": -2}),
        ("/v1/spgemm", {"dataset": "wiki-Vote", "max_nodes": 64,
                        "tile_size": 0}),
        ("/v1/spgemm", {"dataset": "wiki-Vote", "max_nodes": 64,
                        "tile_size": 3}),
        ("/v1/spgemm", {"a": NON_SQUARE}),
        ("/v1/spgemm", {"a": NON_SQUARE, "b": NON_SQUARE}),
        ("/v1/spgemm", {"dataset": "pubmed", "max_nodes": 100000}),
        ("/v1/gcn", {"dataset": "cora",
                     "max_nodes": serve_http.MAX_DATASET_NODES + 1}),
        # Integer fields sent as JSON ``Infinity``.
        ("/v1/spgemm", {"dataset": "wiki-Vote", "max_nodes": INF}),
        ("/v1/spgemm", {"dataset": "wiki-Vote", "max_nodes": 64,
                        "shards": INF}),
        ("/v1/spgemm", {"a": {**NON_SQUARE, "shape": [INF, 3]}}),
        ("/v1/gcn", {"dataset": "cora", "max_nodes": 64,
                     "feature_dim": INF}),
        ("/v1/gnn", {"dataset": "cora", "max_nodes": 64, "layers": INF}),
        ("/v1/gnn", {"dataset": "cora", "max_nodes": 64, "batches": INF}),
        ("/v1/gnn", {"dataset": "cora", "max_nodes": 64,
                     "batches": 10**400}),
        # numpy refuses a negative seed; the spec refuses it first.
        ("/v1/gcn", {"dataset": "cora", "max_nodes": 64,
                     "feature_seed": -1}),
        ("/v1/gnn", {"dataset": "cora", "max_nodes": 64,
                     "feature_seed": -1}),
    ])
    def test_refused_with_400(self, server, path, body):
        status, payload = request(server, "POST", path, body)
        assert status == 400, payload
        assert payload["error"]

    @pytest.mark.parametrize("path", ["/v1/gcn", "/v1/gnn"])
    @pytest.mark.parametrize("density", [float("nan"), INF])
    def test_non_finite_feature_density_400(self, server, path, density):
        # json.loads parses NaN and Infinity; neither can size a feature
        # matrix, so the spec refuses them and the server keeps serving.
        status, payload = request(server, "POST", path,
                                  {"dataset": "cora", "max_nodes": 64,
                                   "feature_dim": 8,
                                   "feature_density": density})
        assert status == 400, payload
        assert "feature_density" in payload["error"]
        status, row = request(server, "POST", path,
                              {"dataset": "cora", "max_nodes": 64,
                               "feature_dim": 8, "feature_density": 0.5})
        assert status == 200, row

    def test_dataset_operand_above_node_limit_400(self, server):
        status, payload = request(server, "PUT", "/v1/operands",
                                  {"dataset": "cora", "max_nodes": 100000})
        assert status == 400
        assert str(serve_http.MAX_DATASET_NODES) in payload["error"]

    @pytest.mark.parametrize("body", [
        {"dataset": "cora", "max_nodes": INF},
        {**NON_SQUARE, "shape": [2, INF]},
    ])
    def test_operand_with_infinite_integer_400(self, server, body):
        status, payload = request(server, "PUT", "/v1/operands", body)
        assert status == 400, payload
        assert payload["error"]

    def test_ref_pair_whose_shapes_mismatch_400(self, server):
        refs = []
        for shape in ([2, 3], [2, 2]):
            status, row = request(server, "PUT", "/v1/operands",
                                  {"indptr": [0, 1, 2], "indices": [0, 1],
                                   "data": [1.0, 5.0], "shape": shape})
            assert status == 200
            refs.append(row["ref"])
        status, payload = request(server, "POST", "/v1/spgemm",
                                  {"a": {"ref": refs[0]},
                                   "b": {"ref": refs[1]}})
        assert status == 400
        assert "columns" in payload["error"]
        # The refused request released its pins: both operands evict.
        for ref in refs:
            assert request(server, "DELETE", f"/v1/operands/{ref}")[0] == 200


GIANT = 1_000_000_000
#: The body fields a graph request's cost grows with, each one past its cap.
OVERSIZED_GRAPH_BODIES = [
    ("/v1/gcn", {"feature_dim": GIANT}),
    ("/v1/gcn", {"hidden_dim": GIANT}),
    ("/v1/gcn", {"feature_dim": serve_http.MAX_FEATURE_DIM + 1}),
    ("/v1/gnn", {"feature_dim": GIANT}),
    ("/v1/gnn", {"hidden_dim": GIANT}),
    ("/v1/gnn", {"layers": 1_000_000}),
    ("/v1/gnn", {"layers": serve_http.MAX_GNN_LAYERS + 1}),
    ("/v1/gnn", {"layer_dims": [8, GIANT]}),
    ("/v1/gnn", {"layer_dims": [8] * (serve_http.MAX_GNN_LAYERS + 1)}),
]


class TestGraphBodyCaps:
    """Widths and depth of a /v1/gcn or /v1/gnn body are capped: past a
    cap the answer is a prompt 400, not a request that holds the batcher."""

    def test_caps(self):
        assert serve_http.MAX_FEATURE_DIM == 3703  # citeseer's width
        assert serve_http.MAX_GNN_LAYERS == 16

    @pytest.mark.parametrize("path, fields", OVERSIZED_GRAPH_BODIES)
    def test_oversized_field_400(self, server, path, fields):
        status, payload = request(
            server, "POST", path,
            {"dataset": "cora", "max_nodes": 64, **fields}, timeout=5)
        assert status == 400, payload
        assert "limit" in payload["error"]
        assert request(server, "GET", "/healthz", timeout=5)[0] == 200


class TestSpGEMMShards:
    """``shards`` on a /v1/spgemm body is capped, and a multichip server,
    whose chips are its shards, refuses it: a prompt 400 either way."""

    def test_shards_above_cap_400(self, server):
        for shards in (65, GIANT):
            status, payload = request(
                server, "POST", "/v1/spgemm",
                {"dataset": "wiki-Vote", "max_nodes": 64, "shards": shards},
                timeout=5)
            assert status == 400, payload
            assert "limit" in payload["error"]
        status, row = request(server, "POST", "/v1/spgemm",
                              {"dataset": "wiki-Vote", "max_nodes": 64,
                               "shards": 2})
        assert status == 200, row
        assert row["shards"] == 2
        assert serve_http.MAX_SPGEMM_SHARDS == 64

    def test_multichip_server_refuses_shards(self):
        with Session("Tile-4", backend="multichip", chips=2) as session, \
                BackgroundServer(ReproServer(session, port=0)) as background:
            status, payload = request(
                background.server, "POST", "/v1/spgemm",
                {"dataset": "wiki-Vote", "max_nodes": 64, "shards": 2},
                timeout=5)
            assert status == 400, payload
            assert "shards" in payload["error"]
            status, row = request(background.server, "POST", "/v1/spgemm",
                                  {"dataset": "wiki-Vote", "max_nodes": 64})
            assert status == 200, row
            assert row["chips"] == 2

    def test_session_and_server_refuse_shards_alike(self):
        with Session("Tile-4", backend="multichip", chips=2) as session, \
                BackgroundServer(ReproServer(session, port=0)) as background:
            with pytest.raises(ValueError) as refused:
                session.run(SpGEMMSpec(a=np.eye(4), shards=2))
            status, payload = request(
                background.server, "POST", "/v1/spgemm",
                {"dataset": "wiki-Vote", "max_nodes": 64, "shards": 2},
                timeout=5)
        assert status == 400
        assert payload["error"] == str(refused.value)


class TestRequestTimeoutField:
    """``timeout_s`` must be a finite number of seconds above 0."""

    @pytest.mark.parametrize("path, body", [
        ("/v1/spgemm", {"dataset": "wiki-Vote", "max_nodes": 64}),
        ("/v1/gcn", {"dataset": "cora", "max_nodes": 64}),
        ("/v1/gnn", {"dataset": "cora", "max_nodes": 64}),
    ])
    @pytest.mark.parametrize("timeout_s", [float("nan"), INF, -INF, 0, -1],
                             ids=["nan", "inf", "-inf", "zero", "negative"])
    def test_refused_with_400(self, server, path, body, timeout_s):
        status, payload = request(server, "POST", path,
                                  {**body, "timeout_s": timeout_s})
        assert status == 400, payload
        assert "timeout_s" in payload["error"]

    @pytest.mark.parametrize("timeout_s", [float("nan"), INF, -INF, 0, -1],
                             ids=["nan", "inf", "-inf", "zero", "negative"])
    def test_bad_server_default_refused_at_construction(self, session,
                                                        timeout_s):
        with pytest.raises(ValueError, match="request_timeout_s"):
            ReproServer(session, port=0, request_timeout_s=timeout_s)


class TestHostileBodies:
    """A body too deeply nested for the JSON decoder gets 400, and the
    server keeps serving."""

    @pytest.mark.parametrize("method, path", [
        ("POST", "/v1/spgemm"), ("POST", "/v1/gcn"), ("POST", "/v1/gnn"),
        ("PUT", "/v1/operands"),
    ])
    def test_deeply_nested_body_400(self, server, method, path):
        depth = 100_000
        connection = http.client.HTTPConnection("127.0.0.1", server.port,
                                                timeout=60)
        try:
            connection.request(method, path,
                               body=b"[" * depth + b"]" * depth)
            response = connection.getresponse()
            status, payload = response.status, json.loads(response.read())
        finally:
            connection.close()
        assert status == 400, payload
        assert "nests too deeply" in payload["error"]
        assert request(server, "GET", "/healthz")[0] == 200


class TestDatasetSynthesis:
    """Server-side dataset synthesis runs off the event loop."""

    # Each case asks for a seed no other test uses, so the dataset is not
    # cached yet and the request has to synthesise it.
    @pytest.mark.parametrize("method, path, seed", [
        ("POST", "/v1/spgemm", 9001), ("POST", "/v1/gcn", 9002),
        ("POST", "/v1/gnn", 9003), ("PUT", "/v1/operands", 9004),
    ])
    def test_healthz_answers_while_synthesis_blocks(self, server,
                                                    monkeypatch, method,
                                                    path, seed):
        started, release = threading.Event(), threading.Event()
        real = serve_http.load_dataset

        def blocking(*args, **kwargs):
            started.set()
            release.wait(timeout=60)
            return real(*args, **kwargs)

        monkeypatch.setattr(serve_http, "load_dataset", blocking)
        body = {"dataset": "cora", "max_nodes": 48, "seed": seed}
        replies = []
        client = threading.Thread(
            target=lambda: replies.append(request(server, method, path,
                                                  body)))
        client.start()
        try:
            assert started.wait(timeout=60)
            probe = http.client.HTTPConnection("127.0.0.1", server.port,
                                               timeout=10)
            try:
                probe.request("GET", "/healthz")
                assert probe.getresponse().status == 200
            finally:
                probe.close()
        finally:
            release.set()
            client.join(timeout=60)
        assert not client.is_alive()
        assert replies and replies[0][0] == 200, replies


class TestLifecycle:
    def test_clean_shutdown_refuses_new_connections(self):
        with Session("Tile-4", backend="analytic") as session:
            background = BackgroundServer(ReproServer(session, port=0))
            background.start()
            port = background.port
            status, _ = request(background.server, "GET", "/healthz")
            assert status == 200
            background.stop()
            with pytest.raises(OSError):
                connection = http.client.HTTPConnection("127.0.0.1", port,
                                                        timeout=5)
                try:
                    connection.request("GET", "/healthz")
                    connection.getresponse()
                finally:
                    connection.close()

    def test_stop_closes_idle_keep_alive_connection_cleanly(self, capfd,
                                                            caplog):
        caplog.set_level(logging.DEBUG, logger="asyncio")
        with Session("Tile-4", backend="analytic") as session:
            background = BackgroundServer(ReproServer(session, port=0))
            background.start()
            client = socket.create_connection(("127.0.0.1", background.port),
                                              timeout=10)
            try:
                client.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
                assert client.recv(65536).startswith(b"HTTP/1.1 200")
                background.stop()  # the client idles on its keep-alive
                assert client.recv(65536) == b""  # the server hung up
            finally:
                client.close()
        assert capfd.readouterr().err == ""
        assert [record for record in caplog.records
                if record.name == "asyncio"
                and record.levelno >= logging.WARNING] == []

    def test_keep_alive_serves_multiple_requests(self, server):
        connection = http.client.HTTPConnection("127.0.0.1", server.port,
                                                timeout=60)
        try:
            for _ in range(3):
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                assert response.status == 200
                response.read()
        finally:
            connection.close()


def raw_exchange(server, request: bytes) -> tuple[int, dict]:
    """Send raw request bytes and read until the server closes; returns
    the status and the JSON body.  A server that kept the connection
    open would time the read out."""
    with socket.create_connection(("127.0.0.1", server.port),
                                  timeout=10) as sock:
        sock.sendall(request)
        received = b""
        while chunk := sock.recv(65536):
            received += chunk
    head, _, body = received.partition(b"\r\n\r\n")
    return int(head.split(b" ", 2)[1]), json.loads(body)


def headers_block(count: int) -> bytes:
    return b"".join(b"X-Filler-%d: v\r\n" % i for i in range(count))


class TestRequestHeadLimits:
    """Request heads past asyncio's line limit or the header-count cap get
    a structured 4xx and a closed connection, never silence."""

    def test_oversized_request_line_414(self, server):
        target = b"/" + b"a" * (LINE_LIMIT + 1024)
        status, payload = raw_exchange(
            server, b"GET " + target + b" HTTP/1.1\r\nHost: x\r\n\r\n")
        assert status == 414
        assert "request line" in payload["error"]

    def test_oversized_header_line_431(self, server):
        status, payload = raw_exchange(
            server, b"GET /healthz HTTP/1.1\r\nX-Big: "
            + b"a" * (LINE_LIMIT + 1024) + b"\r\n\r\n")
        assert status == 431
        assert "header line" in payload["error"]

    def test_too_many_headers_431(self, server):
        status, payload = raw_exchange(
            server, b"GET /healthz HTTP/1.1\r\n"
            + headers_block(MAX_HEADERS + 1) + b"\r\n")
        assert status == 431
        assert str(MAX_HEADERS) in payload["error"]

    def test_header_cap_is_inclusive(self, server):
        status, payload = raw_exchange(
            server, b"GET /healthz HTTP/1.1\r\nConnection: close\r\n"
            + headers_block(MAX_HEADERS - 1) + b"\r\n")
        assert status == 200
        assert payload["status"] == "ok"

    def test_server_keeps_serving_after_rejections(self, server):
        raw_exchange(server, b"GET /" + b"a" * (2 * LINE_LIMIT)
                     + b" HTTP/1.1\r\n\r\n")
        assert request(server, "GET", "/healthz")[0] == 200


class TestRequestReadTimeout:
    """After the request line, a client that stalls before its headers are
    complete, or mid-body, gets a structured 408 and a closed connection;
    a body sent slowly but steadily is served, and the idle wait between
    keep-alive requests is not timed."""

    TIMEOUT_S = 0.3

    @pytest.fixture(autouse=True)
    def short_timeouts(self, monkeypatch):
        monkeypatch.setattr(serve_http, "HEAD_TIMEOUT_S", self.TIMEOUT_S)
        monkeypatch.setattr(serve_http, "LINGER_S", 0.1)

    def test_stall_mid_headers_408(self, server):
        start = time.monotonic()
        status, payload = raw_exchange(
            server, b"GET /healthz HTTP/1.1\r\nHost: x\r\n")
        assert status == 408
        assert "not received in time" in payload["error"]
        assert time.monotonic() - start >= self.TIMEOUT_S

    def test_stall_mid_body_408(self, server):
        status, payload = raw_exchange(
            server, b"POST /v1/spgemm HTTP/1.1\r\n"
            b"Content-Type: application/json\r\n"
            b"Content-Length: 100\r\n\r\n{\"dataset\"")
        assert status == 408
        assert "body stalled" in payload["error"]

    def test_slow_steady_body_served(self, server):
        body = json.dumps({"dataset": "wiki-Vote", "max_nodes": 96,
                           "seed": 5, "label": "slow"}).encode()
        head = (b"POST /v1/spgemm HTTP/1.1\r\n"
                b"Content-Type: application/json\r\nConnection: close\r\n"
                b"Content-Length: %d\r\n\r\n" % len(body))
        pieces = [body[i:i + 8] for i in range(0, len(body), 8)]
        start = time.monotonic()
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=60) as sock:
            sock.sendall(head)
            for piece in pieces:
                time.sleep(self.TIMEOUT_S / 3)
                sock.sendall(piece)
            received = b""
            while chunk := sock.recv(65536):
                received += chunk
        # The whole body took far longer than the stall bound.
        assert time.monotonic() - start > 2 * self.TIMEOUT_S
        status_line, _, payload = received.partition(b"\r\n\r\n")
        assert status_line.split(b" ", 2)[1] == b"200"
        assert json.loads(payload)["label"] == "slow"

    def test_keep_alive_idle_is_not_timed(self, server):
        connection = http.client.HTTPConnection("127.0.0.1", server.port,
                                                timeout=10)
        try:
            for pause in (3 * self.TIMEOUT_S, 0.0):
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                assert response.status == 200
                response.read()
                time.sleep(pause)
        finally:
            connection.close()
