"""Wire-format benchmark: registry + binary frames vs JSON-inline bytes.

Boots the serving stack in-process and measures the *bytes on the wire*
per request under the two client strategies the serving layer supports:

* **json-inline** — the original protocol: every request carries the full
  CSR operand as inline JSON arrays and reads back the JSON metrics row.
  This is the steady state of a client that never registers operands.
* **binary+registry** — upload the operand once as a binary
  ``application/x-repro-csr`` frame (``PUT /v1/operands``), then issue
  ~100-byte ``{"a": {"ref": ...}}`` requests against the digest.

The steady-state workload is metrics-only traffic against one hot graph
(`include_output` off) — the regime a long-lived server actually runs in,
where the JSON-inline client re-ships a multi-kilobyte operand with every
request and learns nothing new from it.  The headline number is
``bytes_per_request_ratio`` (json-inline / binary+registry), and the
acceptance bar is **>= 5x**: ``--smoke`` exits non-zero below it, which
is the CI guard.

Product *download* sizes (JSON ``include_output`` vs a binary frame) are
recorded alongside but not guarded — JSON of small float values can
undercut 16-byte binary entries, so the honest claim there is "comparable
size, no double buffering", not a ratio.  A byte-identity
probe asserts the binary product decodes bit-equal to the JSON one.

Results land in ``benchmarks/results/bench_wire.json`` — the same
record-don't-assert contract the other benches keep (only ``--smoke``
asserts, because CI runs it).

Run with:  PYTHONPATH=src python benchmarks/bench_wire.py [--nodes 2000]
           PYTHONPATH=src python benchmarks/bench_wire.py --smoke
"""

from __future__ import annotations

import argparse
import http.client
import json
import platform
import time
from pathlib import Path

import numpy as np

from repro.core import Session
from repro.datasets import load_dataset
from repro.serve import BackgroundServer, ReproServer
from repro.serve.wire import WIRE_CONTENT_TYPE, decode_csr, encode_csr

RESULTS_PATH = Path(__file__).parent / "results" / "bench_wire.json"

#: Acceptance bar: steady-state bytes/request must shrink at least this
#: much when clients switch from JSON-inline operands to registry refs.
MIN_BYTES_RATIO = 5.0


class _Client:
    """One keep-alive connection that counts request/response body bytes."""

    def __init__(self, host: str, port: int) -> None:
        self.connection = http.client.HTTPConnection(host, port, timeout=120)
        self.bytes_sent = 0
        self.bytes_received = 0

    def request(self, method: str, path: str, body: bytes,
                headers: dict | None = None) -> tuple[int, str, bytes]:
        self.connection.request(method, path, body=body,
                                headers=headers or
                                {"Content-Type": "application/json"})
        response = self.connection.getresponse()
        payload = response.read()
        self.bytes_sent += len(body)
        self.bytes_received += len(payload)
        return (response.status,
                response.getheader("Content-Type") or "", payload)

    @property
    def total(self) -> int:
        return self.bytes_sent + self.bytes_received

    def close(self) -> None:
        self.connection.close()


def _json_request(client: _Client, path: str, payload: dict) -> dict:
    status, _ctype, body = client.request("POST", path,
                                          json.dumps(payload).encode())
    row = json.loads(body)
    if status != 200:
        raise RuntimeError(f"request failed: {status} {row}")
    return row


def _inline_operand(csr) -> dict:
    return {"indptr": csr.indptr.tolist(), "indices": csr.indices.tolist(),
            "data": csr.data.tolist(), "shape": list(csr.shape)}


def measure_steady_state(host: str, port: int, csr,
                         n_requests: int) -> dict:
    """Per-request wire bytes for both client strategies, warm server."""
    inline_body = {"a": _inline_operand(csr), "verify": False}

    client = _Client(host, port)
    try:
        _json_request(client, "/v1/spgemm",
                      {**inline_body, "label": "warmup"})  # compile once
        client.bytes_sent = client.bytes_received = 0
        start = time.perf_counter()
        for index in range(n_requests):
            _json_request(client, "/v1/spgemm",
                          {**inline_body, "label": f"inline-{index}"})
        inline_wall = time.perf_counter() - start
        inline_total = client.total
    finally:
        client.close()

    client = _Client(host, port)
    try:
        status, _ctype, body = client.request(
            "PUT", "/v1/operands", encode_csr(csr),
            headers={"Content-Type": WIRE_CONTENT_TYPE})
        operand = json.loads(body)
        if status != 200:
            raise RuntimeError(f"operand upload failed: {status} {operand}")
        upload_bytes = client.total
        client.bytes_sent = client.bytes_received = 0
        ref_body = {"a": {"ref": operand["ref"]}, "verify": False}
        start = time.perf_counter()
        for index in range(n_requests):
            _json_request(client, "/v1/spgemm",
                          {**ref_body, "label": f"ref-{index}"})
        ref_wall = time.perf_counter() - start
        ref_total = client.total
    finally:
        client.close()

    inline_per_request = inline_total / n_requests
    ref_per_request = ref_total / n_requests
    return {
        "requests": n_requests,
        "json_inline_bytes_per_request": round(inline_per_request, 1),
        "binary_registry_bytes_per_request": round(ref_per_request, 1),
        "bytes_per_request_ratio": round(inline_per_request
                                         / ref_per_request, 2),
        "one_time_upload_bytes": upload_bytes,
        "upload_amortized_after_requests": int(np.ceil(
            upload_bytes / max(inline_per_request - ref_per_request, 1.0))),
        "json_inline_wall_s": round(inline_wall, 4),
        "binary_registry_wall_s": round(ref_wall, 4),
        "operand_ref": operand["ref"],
    }


def measure_product_fetch(host: str, port: int, ref: str) -> dict:
    """Full-product download: JSON include_output vs a binary frame.

    Recorded, not guarded — and doubles as the byte-identity probe: the
    decoded binary product must equal the JSON arrays bit for bit.
    """
    client = _Client(host, port)
    try:
        row = _json_request(client, "/v1/spgemm",
                            {"a": {"ref": ref}, "verify": False,
                             "include_output": True})
        json_bytes = client.total
        served = row["output"]

        client.bytes_sent = client.bytes_received = 0
        status, ctype, frame = client.request(
            "POST", "/v1/spgemm",
            json.dumps({"a": {"ref": ref}, "verify": False}).encode(),
            headers={"Content-Type": "application/json",
                     "Accept": WIRE_CONTENT_TYPE})
        if status != 200 or ctype != WIRE_CONTENT_TYPE:
            raise RuntimeError(f"binary fetch failed: {status} {ctype}")
        binary_bytes = client.total
    finally:
        client.close()
    product, meta = decode_csr(frame)
    byte_identical = (
        np.array_equal(product.indptr, np.asarray(served["indptr"]))
        and np.array_equal(product.indices, np.asarray(served["indices"]))
        and np.array_equal(product.data, np.asarray(served["data"])))
    return {
        "json_bytes": json_bytes,
        "binary_bytes": binary_bytes,
        "json_over_binary": round(json_bytes / binary_bytes, 2),
        "binary_meta_carries_metrics": "cycles" in (meta or {}),
        "byte_identical": bool(byte_identical),
        "product_nnz": product.nnz,
    }


def run(nodes: int, n_requests: int, dataset: str = "wiki-Vote",
        config: str = "Tile-16", seed: int = 0) -> dict:
    csr = load_dataset(dataset, max_nodes=nodes, seed=seed).adjacency_csr()
    record = {
        "dataset": dataset,
        "nodes": nodes,
        "config": config,
        "operand_nnz": csr.nnz,
        "python_version": platform.python_version(),
        "workload": "steady-state metrics-only requests on one hot graph; "
                    "json-inline re-ships the operand per request, "
                    "binary+registry ships a ~100-byte ref",
        "min_bytes_ratio": MIN_BYTES_RATIO,
    }
    with Session(config, backend="analytic") as session:
        server = ReproServer(session, port=0, max_batch=4)
        with BackgroundServer(server) as background:
            host, port = "127.0.0.1", background.port
            record["steady_state"] = measure_steady_state(
                host, port, csr, n_requests)
            record["product_fetch"] = measure_product_fetch(
                host, port, record["steady_state"]["operand_ref"])
            stats_client = _Client(host, port)
            try:
                _status, _ctype, body = stats_client.request(
                    "GET", "/stats", b"")
                stats = json.loads(body)
            finally:
                stats_client.close()
            record["server_counters"] = {
                key: stats.get(key)
                for key in ("bytes_in", "bytes_out", "registry_hits",
                            "registry_entries", "registry_evictions",
                            "coalesced")}
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=2000,
                        help="synthetic graph size (default: 2000)")
    parser.add_argument("--dataset", default="wiki-Vote")
    parser.add_argument("--config", default="Tile-16")
    parser.add_argument("--requests", type=int, default=32,
                        help="steady-state requests per strategy "
                             "(default: 32)")
    parser.add_argument("--smoke", action="store_true",
                        help="small fast configuration for CI (300 nodes, "
                             "8 requests, no result file) that FAILS "
                             f"unless the ratio is >= {MIN_BYTES_RATIO}x")
    parser.add_argument("--output", default=str(RESULTS_PATH))
    args = parser.parse_args()

    if args.smoke:
        args.nodes = 300
        args.requests = 8

    record = run(args.nodes, args.requests, dataset=args.dataset,
                 config=args.config)
    steady = record["steady_state"]
    fetch = record["product_fetch"]

    print(f"{record['dataset']}  nodes={record['nodes']}  "
          f"config={record['config']}  operand_nnz={record['operand_nnz']}")
    print(f"steady state   json-inline      "
          f"{steady['json_inline_bytes_per_request']:12.1f} B/request")
    print(f"steady state   binary+registry  "
          f"{steady['binary_registry_bytes_per_request']:12.1f} B/request  "
          f"(one-time upload {steady['one_time_upload_bytes']} B, "
          f"amortized after "
          f"{steady['upload_amortized_after_requests']} request(s))")
    print(f"steady state   ratio            "
          f"{steady['bytes_per_request_ratio']:12.2f}x  "
          f"(bar: >= {MIN_BYTES_RATIO}x)")
    print(f"product fetch  json={fetch['json_bytes']} B  "
          f"binary={fetch['binary_bytes']} B  "
          f"({fetch['json_over_binary']}x)  "
          f"byte_identical={fetch['byte_identical']}")

    if not fetch["byte_identical"]:
        print("ERROR: binary product diverged from the JSON product")
        return 1
    ratio_ok = steady["bytes_per_request_ratio"] >= MIN_BYTES_RATIO
    if args.smoke:
        if not ratio_ok:
            print(f"ERROR: bytes/request ratio "
                  f"{steady['bytes_per_request_ratio']}x is below the "
                  f"{MIN_BYTES_RATIO}x acceptance bar")
            return 1
        print("[smoke mode: results not saved]")
        return 0
    output = Path(args.output)
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(record, indent=2) + "\n")
    print(f"[saved {output}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
