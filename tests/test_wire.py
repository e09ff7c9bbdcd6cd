"""Binary wire codec + operand registry: framing, eviction, HTTP surface.

Three layers under test:

* the :mod:`repro.serve.wire` codec — round-trips must be byte-exact and
  every truncated / padded / malformed frame must raise
  :class:`WireFormatError` (the HTTP layer's 400);
* the :class:`~repro.serve.registry.OperandRegistry` — content-addressed
  idempotent puts, LRU eviction under byte pressure, pin semantics, and
  ref resolution stamping coalescer digests;
* the HTTP front-end — operand upload/download/delete endpoints, content
  negotiation (415 / 406 / binary Accept), 413 rejection before body
  buffering, ref-request byte-identity with the inline path on both
  ``/v1/spgemm`` and ``/v1/gcn``, and coalescing across inline + ref
  requests for the same matrix.
"""

import http.client
import json
import math
import os
import socket
import threading
import time

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from repro.core import Session, SpGEMMSpec
from repro.core.runner import matrix_fingerprint
from repro.core.specs import GCNLayerSpec, OperandRef
from repro.datasets import load_dataset
from repro.serve import BackgroundServer, ReproServer
from repro.serve.registry import (
    OperandPinned,
    OperandRegistry,
    RegistryFull,
    UnknownOperand,
)
from repro.serve.wire import (
    HEADER_BYTES,
    WIRE_CONTENT_TYPE,
    WireFormatError,
    csr_json,
    decode_csr,
    encode_csr,
    encode_csr_frames,
    frames_nbytes,
    json_array,
)
from repro.sparse.csr import CSRMatrix


def _csr(seed: int = 0, n: int = 32) -> CSRMatrix:
    return load_dataset("wiki-Vote", max_nodes=n, seed=seed).adjacency_csr()


def _operand_json(csr: CSRMatrix) -> dict:
    return {"indptr": csr.indptr.tolist(), "indices": csr.indices.tolist(),
            "data": csr.data.tolist(), "shape": list(csr.shape)}


# ----------------------------------------------------------------------
# Codec
# ----------------------------------------------------------------------
class TestWireCodec:
    def test_round_trip_byte_exact(self):
        csr = _csr(seed=3, n=64)
        decoded, meta = decode_csr(encode_csr(csr))
        assert meta is None
        assert decoded.shape == csr.shape
        assert np.array_equal(decoded.indptr, csr.indptr)
        assert np.array_equal(decoded.indices, csr.indices)
        assert decoded.data.tobytes() == csr.data.tobytes()

    def test_round_trip_with_metadata(self):
        csr = _csr()
        meta = {"cycles": 123.5, "label": "probe", "nested": {"ok": True}}
        decoded, got = decode_csr(encode_csr(csr, meta=meta))
        assert got == meta
        assert np.array_equal(decoded.indices, csr.indices)

    def test_frames_concatenate_to_frame(self):
        csr = _csr()
        frames = encode_csr_frames(csr, meta={"x": 1})
        assert len(frames) == 4  # header+meta, indptr, indices, data
        assert b"".join(bytes(frame) for frame in frames) \
            == encode_csr(csr, meta={"x": 1})
        assert frames_nbytes(frames) == len(encode_csr(csr, meta={"x": 1}))

    def test_empty_matrix_round_trips(self):
        empty = CSRMatrix(np.zeros(5, dtype=np.int64),
                          np.zeros(0, dtype=np.int64),
                          np.zeros(0, dtype=np.float64), (4, 7))
        decoded, _ = decode_csr(encode_csr(empty))
        assert decoded.shape == (4, 7)
        assert decoded.nnz == 0

    def test_truncated_header_rejected(self):
        with pytest.raises(WireFormatError, match="truncated"):
            decode_csr(encode_csr(_csr())[:HEADER_BYTES - 1])

    def test_truncated_payload_rejected(self):
        body = encode_csr(_csr())
        with pytest.raises(WireFormatError, match="length mismatch"):
            decode_csr(body[:-8])

    def test_padded_payload_rejected(self):
        with pytest.raises(WireFormatError, match="length mismatch"):
            decode_csr(encode_csr(_csr()) + b"\x00" * 4)

    def test_bad_magic_rejected(self):
        body = bytearray(encode_csr(_csr()))
        body[:4] = b"NOPE"
        with pytest.raises(WireFormatError, match="magic"):
            decode_csr(bytes(body))

    def test_unknown_version_rejected(self):
        body = bytearray(encode_csr(_csr()))
        body[4] = 99
        with pytest.raises(WireFormatError, match="version"):
            decode_csr(bytes(body))

    def test_reserved_flag_bits_rejected(self):
        body = bytearray(encode_csr(_csr()))
        body[5] |= 0x80
        with pytest.raises(WireFormatError, match="reserved"):
            decode_csr(bytes(body))

    def test_undecodable_metadata_rejected(self):
        csr = _csr()
        good = encode_csr(csr, meta={"abc": 1})
        # Corrupt the JSON blob in place: same length, invalid content.
        blob = bytearray(good)
        blob[HEADER_BYTES:HEADER_BYTES + 10] = b"\xff" * 10
        with pytest.raises(WireFormatError, match="metadata"):
            decode_csr(bytes(blob))

    def test_deeply_nested_metadata_rejected(self):
        csr = _csr()
        deep = b'{"n": ' + b"[" * 100_000 + b"]" * 100_000 + b"}"
        # Encode a placeholder of the same length, then swap the blob.
        body = bytearray(encode_csr(csr, meta={"n": "x" * len(deep)}))
        meta_len = len(body) - len(encode_csr(csr))
        assert meta_len >= len(deep)
        body[HEADER_BYTES:HEADER_BYTES + meta_len] = deep.ljust(meta_len)
        with pytest.raises(WireFormatError, match="metadata"):
            decode_csr(bytes(body))

    def test_structurally_invalid_csr_rejected(self):
        csr = _csr()
        body = bytearray(encode_csr(csr))
        # Point the first column index out of range.
        offset = HEADER_BYTES + csr.indptr.nbytes
        body[offset:offset + 8] = (2 ** 40).to_bytes(8, "little")
        with pytest.raises(WireFormatError, match="valid CSR"):
            decode_csr(bytes(body))


_INT64 = np.iinfo(np.int64)
_FLOATS = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 1e-5]


def _assert_same_text(got: str, want: str) -> None:
    """``got == want``, reported as the first differing span: pytest's own
    diff of two long one-line strings can run for minutes."""
    if got != want:
        at = len(os.path.commonprefix([got, want]))
        pytest.fail(f"texts differ at {at}: {got[max(0, at - 30):at + 30]!r}"
                    f" != {want[max(0, at - 30):at + 30]!r}")


@st.composite
def _value_arrays(draw, values, dtype):
    """A pool of values, either as drawn (mostly distinct) or picked from
    by a seeded generator into a longer, heavily repeated array."""
    pool = np.array(draw(st.lists(values, max_size=40)), dtype=dtype)
    if not len(pool) or draw(st.booleans()):
        return pool
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return pool[rng.integers(len(pool), size=draw(st.integers(0, 5000)))]


class TestJsonText:
    """``json_array``/``csr_json`` give exactly ``json.dumps``'s bytes."""

    @seed(38)
    @settings(max_examples=80, deadline=None)
    @given(_value_arrays(st.integers(_INT64.min, _INT64.max)
                         | st.integers(-3, 60)
                         | st.sampled_from([_INT64.min, _INT64.max]),
                         np.int64))
    def test_int64_matches_json_dumps(self, values):
        _assert_same_text(json_array(values), json.dumps(values.tolist()))

    @seed(38)
    @settings(max_examples=80, deadline=None)
    @given(_value_arrays(st.floats() | st.sampled_from(_FLOATS), np.float64))
    def test_float64_matches_json_dumps(self, values):
        _assert_same_text(json_array(values), json.dumps(values.tolist()))

    @pytest.mark.parametrize("values", [
        np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64),
        np.arange(3000, dtype=np.int64) % 7,
        np.random.default_rng(1).permutation(3000),
        np.tile(np.array(_FLOATS), 500),
        np.random.default_rng(2).random(3000),
        # Three NaN bit patterns, each its own table entry.
        np.tile(np.array([0x7FF8000000000001, 0x7FF8000000000000,
                          0xFFF8000000000000], dtype=np.uint64), 9)
        .view(np.float64),
        np.arange(12, dtype=np.uint64).repeat(4),
        np.ones(9, dtype=np.float32)])
    def test_fixed_arrays_match_json_dumps(self, values):
        _assert_same_text(json_array(values), json.dumps(values.tolist()))

    def test_csr_json_matches_json_dumps(self, session):
        csr = _csr(seed=5, n=64)
        product = session.run(SpGEMMSpec(a=csr, verify=False)).output
        for matrix in (csr, product):
            _assert_same_text(csr_json(matrix),
                              json.dumps(_operand_json(matrix)))


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestOperandRegistry:
    def test_put_is_content_addressed_and_idempotent(self):
        registry = OperandRegistry(1 << 20)
        csr = _csr()
        entry, created = registry.put(csr)
        assert created
        assert entry.digest == matrix_fingerprint(csr)
        again, created = registry.put(csr)
        assert not created
        assert again is entry
        assert len(registry) == 1

    def test_get_touches_lru_and_counts_hits(self):
        registry = OperandRegistry(1 << 20)
        entry, _ = registry.put(_csr())
        assert registry.get(entry.digest).hits == 1
        assert registry.stats()["registry_hits"] == 1
        with pytest.raises(UnknownOperand):
            registry.get("no-such-digest")
        assert registry.stats()["registry_misses"] == 1

    def test_eviction_under_size_pressure(self):
        a, b = _csr(seed=1, n=48), _csr(seed=2, n=48)
        nbytes = a.indptr.nbytes + a.indices.nbytes + a.data.nbytes
        registry = OperandRegistry(int(nbytes * 1.5))
        first, _ = registry.put(a)
        second, _ = registry.put(b)  # over cap: LRU (a) must go
        assert first.digest not in registry
        assert second.digest in registry
        assert registry.stats()["registry_evictions"] == 1
        assert registry.nbytes <= registry.max_bytes

    def test_pinned_entry_survives_sweep_until_release(self):
        a, b = _csr(seed=1, n=48), _csr(seed=2, n=48)
        nbytes = a.indptr.nbytes + a.indices.nbytes + a.data.nbytes
        registry = OperandRegistry(int(nbytes * 1.5))
        first, _ = registry.put(a)
        pin = registry.acquire(first.digest)
        registry.put(b)  # over cap, but the LRU entry is pinned
        assert first.digest in registry  # transient overage
        pin.release()  # sweep on release evicts the now-unpinned LRU
        assert first.digest not in registry
        pin.release()  # idempotent
        assert registry.nbytes <= registry.max_bytes

    def test_delete_unknown_and_pinned(self):
        registry = OperandRegistry(1 << 20)
        entry, _ = registry.put(_csr())
        pin = registry.acquire(entry.digest)
        with pytest.raises(OperandPinned):
            registry.delete(entry.digest)
        pin.release()
        registry.delete(entry.digest)
        with pytest.raises(UnknownOperand):
            registry.delete(entry.digest)

    def test_single_operand_over_cap_rejected(self):
        with pytest.raises(RegistryFull):
            OperandRegistry(16).put(_csr())

    def test_resolve_swaps_refs_and_stamps_digests(self):
        registry = OperandRegistry(1 << 20)
        a, b = _csr(seed=1), _csr(seed=2)
        ea, _ = registry.put(a)
        eb, _ = registry.put(b)
        spec = SpGEMMSpec(a=OperandRef(ea.digest), b=OperandRef(eb.digest),
                          verify=False)
        resolved, pins = registry.resolve(spec)
        assert resolved.a is ea.csr and resolved.b is eb.csr
        assert resolved.a_digest == ea.digest
        assert resolved.b_digest == eb.digest
        assert len(pins) == 2
        assert spec.a == OperandRef(ea.digest)  # original untouched
        for pin in pins:
            pin.release()

    def test_resolve_dangling_ref_releases_taken_pins(self):
        registry = OperandRegistry(1 << 20)
        entry, _ = registry.put(_csr())
        spec = SpGEMMSpec(a=OperandRef(entry.digest),
                          b=OperandRef("dangling"), verify=False)
        with pytest.raises(UnknownOperand):
            registry.resolve(spec)
        assert registry.get(entry.digest).refcount == 0

    def test_resolve_passes_through_non_spgemm(self):
        registry = OperandRegistry(1 << 20)
        spec = GCNLayerSpec(dataset=object())
        assert registry.resolve(spec) == (spec, ())


# ----------------------------------------------------------------------
# HTTP surface
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def session():
    with Session("Tile-4", backend="analytic") as session:
        yield session


@pytest.fixture(scope="module")
def server(session):
    with BackgroundServer(ReproServer(session, port=0, max_batch=4,
                                      max_delay_ms=2.0)) as background:
        yield background.server


def raw_request(server, method, path, body=b"", headers=None):
    """One request returning (status, content_type, raw body bytes)."""
    connection = http.client.HTTPConnection("127.0.0.1", server.port,
                                            timeout=60)
    try:
        connection.request(method, path, body=body, headers=headers or {})
        response = connection.getresponse()
        return (response.status, response.getheader("Content-Type"),
                response.read())
    finally:
        connection.close()


def json_request(server, method, path, payload=None, headers=None):
    body = b"" if payload is None else json.dumps(payload).encode()
    status, _ctype, raw = raw_request(server, method, path, body,
                                      headers=headers)
    return status, json.loads(raw)


class TestOperandEndpoints:
    def test_binary_upload_and_metadata(self, server):
        csr = _csr(seed=7, n=64)
        status, row = json_request(
            server, "PUT", "/v1/operands", headers={
                "Content-Type": WIRE_CONTENT_TYPE})
        # empty binary body is a malformed frame
        assert status == 400

        connection = http.client.HTTPConnection("127.0.0.1", server.port)
        try:
            connection.request("PUT", "/v1/operands", body=encode_csr(csr),
                               headers={"Content-Type": WIRE_CONTENT_TYPE})
            response = connection.getresponse()
            row = json.loads(response.read())
        finally:
            connection.close()
        assert response.status == 200
        assert row["ref"] == matrix_fingerprint(csr)
        assert row["created"] is True
        assert row["nnz"] == csr.nnz
        status, meta = json_request(server, "GET",
                                    f"/v1/operands/{row['ref']}")
        assert status == 200
        assert meta["shape"] == list(csr.shape)

    def test_json_and_dataset_uploads(self, server):
        csr = _csr(seed=11, n=48)
        status, row = json_request(server, "PUT", "/v1/operands",
                                   _operand_json(csr))
        assert status == 200
        assert row["ref"] == matrix_fingerprint(csr)
        status, row = json_request(server, "PUT", "/v1/operands",
                                   {"dataset": "cora", "max_nodes": 64})
        assert status == 200
        assert row["source"] == "cora"
        assert row["dataset_backed"] is True

    def test_operand_listing(self, server):
        status, row = json_request(server, "GET", "/v1/operands")
        assert status == 200
        assert "operands" in row and "registry_bytes" in row

    def test_binary_download_round_trips(self, server):
        csr = _csr(seed=13, n=64)
        status, row = json_request(server, "PUT", "/v1/operands",
                                   _operand_json(csr))
        assert status == 200
        status, ctype, frame = raw_request(
            server, "GET", f"/v1/operands/{row['ref']}",
            headers={"Accept": WIRE_CONTENT_TYPE})
        assert status == 200
        assert ctype == WIRE_CONTENT_TYPE
        downloaded, meta = decode_csr(frame)
        assert downloaded.indptr.tobytes() == csr.indptr.tobytes()
        assert downloaded.indices.tobytes() == csr.indices.tobytes()
        assert downloaded.data.tobytes() == csr.data.tobytes()
        assert meta["ref"] == row["ref"]

    def test_unknown_ref_404(self, server):
        assert json_request(server, "GET", "/v1/operands/bogus")[0] == 404
        assert json_request(server, "DELETE", "/v1/operands/bogus")[0] == 404
        status, row = json_request(server, "POST", "/v1/spgemm",
                                   {"a": {"ref": "bogus"}})
        assert status == 404
        assert "bogus" in row["error"]
        status, _ = json_request(server, "POST", "/v1/gcn",
                                 {"dataset": {"ref": "bogus"}})
        assert status == 404

    def test_delete(self, server):
        csr = _csr(seed=17, n=40)
        _, row = json_request(server, "PUT", "/v1/operands",
                              _operand_json(csr))
        assert json_request(server, "DELETE",
                            f"/v1/operands/{row['ref']}")[0] == 200
        assert json_request(server, "GET",
                            f"/v1/operands/{row['ref']}")[0] == 404

    def test_pinned_delete_409(self, server):
        csr = _csr(seed=19, n=40)
        _, row = json_request(server, "PUT", "/v1/operands",
                              _operand_json(csr))
        pin = server.registry.acquire(row["ref"])
        try:
            status, body = json_request(server, "DELETE",
                                        f"/v1/operands/{row['ref']}")
            assert status == 409
            assert "pinned" in body["error"]
        finally:
            pin.release()
        assert json_request(server, "DELETE",
                            f"/v1/operands/{row['ref']}")[0] == 200

    def test_malformed_binary_upload_400(self, server):
        status, row = json_request(
            server, "PUT", "/v1/operands",
            headers={"Content-Type": WIRE_CONTENT_TYPE})
        assert status == 400
        connection = http.client.HTTPConnection("127.0.0.1", server.port)
        try:
            truncated = encode_csr(_csr())[:-10]
            connection.request("PUT", "/v1/operands", body=truncated,
                               headers={"Content-Type": WIRE_CONTENT_TYPE})
            response = connection.getresponse()
            row = json.loads(response.read())
        finally:
            connection.close()
        assert response.status == 400
        assert "x-repro-csr" in row["error"]

    def test_registry_eviction_over_http(self, session):
        csr = _csr(seed=23, n=48)
        nbytes = csr.indptr.nbytes + csr.indices.nbytes + csr.data.nbytes
        tiny = ReproServer(session, port=0,
                           registry_max_bytes=int(nbytes * 1.5))
        with BackgroundServer(tiny) as background:
            server = background.server
            _, first = json_request(server, "PUT", "/v1/operands",
                                    _operand_json(csr))
            other = _csr(seed=29, n=48)
            _, second = json_request(server, "PUT", "/v1/operands",
                                     _operand_json(other))
            status, stats = json_request(server, "GET", "/stats")
            assert stats["registry_evictions"] == 1
            assert stats["registry_entries"] == 1
            # The evicted ref now dangles: 404, not a silent recompute.
            assert json_request(server, "POST", "/v1/spgemm",
                                {"a": {"ref": first["ref"]}})[0] == 404
            assert json_request(server, "POST", "/v1/spgemm",
                                {"a": {"ref": second["ref"]}})[0] == 200


class TestContentNegotiation:
    def test_unsupported_content_type_415(self, server):
        status, _ctype, raw = raw_request(
            server, "POST", "/v1/spgemm", b"<xml/>",
            headers={"Content-Type": "text/xml"})
        assert status == 415
        assert b"application/json" in raw

    def test_413_rejected_before_body_buffering(self, server):
        """An oversized Content-Length is refused from the headers alone:
        the 413 arrives while the body remains unsent."""
        with socket.create_connection(("127.0.0.1", server.port),
                                      timeout=10) as sock:
            sock.sendall(b"POST /v1/spgemm HTTP/1.1\r\n"
                         b"Host: x\r\n"
                         b"Content-Type: application/json\r\n"
                         b"Content-Length: 99999999999\r\n\r\n")
            # No body bytes follow; a server that buffered first would
            # block on the read and time this recv out.
            sock.settimeout(5.0)
            head = sock.recv(4096)
        assert b"413" in head.split(b"\r\n", 1)[0]

    def test_gcn_binary_accept_406(self, server):
        status, row = json_request(server, "POST", "/v1/gcn",
                                   {"dataset": "cora", "max_nodes": 48},
                                   headers={"Accept": WIRE_CONTENT_TYPE})
        assert status == 406
        assert "dense" in row["error"]

    def test_binary_response_errors_stay_json(self, server):
        # An error on a binary-Accept request must come back as JSON.
        status, ctype, raw = raw_request(
            server, "POST", "/v1/spgemm", b"not json",
            headers={"Content-Type": "application/json",
                     "Accept": WIRE_CONTENT_TYPE})
        assert status == 400
        assert ctype == "application/json"


class TestRefServingByteIdentity:
    def test_spgemm_ref_byte_identical_to_inline(self, server, session):
        csr = _csr(seed=31, n=96)
        direct = session.run(SpGEMMSpec(a=csr, verify=False))
        _, up = json_request(server, "PUT", "/v1/operands",
                             _operand_json(csr))
        status, row = json_request(server, "POST", "/v1/spgemm",
                                   {"a": {"ref": up["ref"]},
                                    "include_output": True})
        assert status == 200
        assert np.array_equal(np.asarray(row["output"]["indptr"]),
                              direct.output.indptr)
        assert np.array_equal(np.asarray(row["output"]["indices"]),
                              direct.output.indices)
        assert np.asarray(row["output"]["data"]).tobytes() \
            == direct.output.data.tobytes()

    def test_spgemm_binary_response_byte_identical(self, server, session):
        csr = _csr(seed=31, n=96)
        direct = session.run(SpGEMMSpec(a=csr, verify=False))
        _, up = json_request(server, "PUT", "/v1/operands",
                             _operand_json(csr))
        status, ctype, frame = raw_request(
            server, "POST", "/v1/spgemm",
            json.dumps({"a": {"ref": up["ref"]}}).encode(),
            headers={"Content-Type": "application/json",
                     "Accept": WIRE_CONTENT_TYPE})
        assert status == 200
        assert ctype == WIRE_CONTENT_TYPE
        product, meta = decode_csr(frame)
        assert product.indptr.tobytes() == direct.output.indptr.tobytes()
        assert product.indices.tobytes() == direct.output.indices.tobytes()
        assert product.data.tobytes() == direct.output.data.tobytes()
        assert meta["cycles"] == direct.metrics["cycles"]
        assert meta["kind"] == "spgemm"

    def test_gcn_dataset_ref_identical_to_inline(self, server):
        _, up = json_request(server, "PUT", "/v1/operands",
                             {"dataset": "cora", "max_nodes": 72,
                              "seed": 3})
        payload = {"feature_dim": 8, "hidden_dim": 4, "seed": 3}
        status, by_ref = json_request(
            server, "POST", "/v1/gcn",
            {"dataset": {"ref": up["ref"]}, **payload})
        assert status == 200
        status, inline = json_request(
            server, "POST", "/v1/gcn",
            {"dataset": "cora", "max_nodes": 72, "seed": 3, **payload})
        assert status == 200
        for key in ("cycles", "aggregation_cycles", "output_nnz"):
            if key in inline:
                assert by_ref[key] == inline[key], key
        assert by_ref["label"] == inline["label"] == "cora"

    def test_gcn_bare_csr_ref_serves(self, server):
        csr = _csr(seed=37, n=48)
        _, up = json_request(server, "PUT", "/v1/operands",
                             _operand_json(csr))
        status, row = json_request(
            server, "POST", "/v1/gcn",
            {"dataset": {"ref": up["ref"]}, "feature_dim": 4,
             "hidden_dim": 2})
        assert status == 200
        assert row["label"].startswith("ref:")


def _product_replies(server, csr):
    """One ``include_output`` JSON reply and one binary-``Accept`` reply for
    ``csr @ csr``: (JSON text, binary response, binary frame)."""
    body = json.dumps({"a": _operand_json(csr),
                       "include_output": True}).encode()
    status, ctype, text = raw_request(server, "POST", "/v1/spgemm", body,
                                      {"Content-Type": "application/json"})
    assert (status, ctype) == (200, "application/json")
    connection = http.client.HTTPConnection("127.0.0.1", server.port,
                                            timeout=60)
    try:
        connection.request("POST", "/v1/spgemm", body=body, headers={
            "Content-Type": "application/json", "Accept": WIRE_CONTENT_TYPE})
        response = connection.getresponse()
        frame = response.read()
    finally:
        connection.close()
    assert response.status == 200
    return text.decode(), response, frame


class TestProductReplies:
    """A product reply in either encoding carries the same product; JSON
    replies are ``json.dumps``'s own text, binary ones are sized up front."""

    @pytest.mark.parametrize("random_data", [False, True],
                             ids=["repeated-values", "random-floats"])
    def test_json_product_is_canonical_and_equals_binary(self, server,
                                                         random_data):
        csr = _csr(seed=43, n=96)
        if random_data:
            rng = np.random.default_rng(43)
            csr = CSRMatrix(csr.indptr, csr.indices,
                            rng.standard_normal(csr.nnz), csr.shape)
        text, _response, frame = _product_replies(server, csr)
        row = json.loads(text)
        _assert_same_text(json.dumps(row), text)
        assert list(row)[-1] == "output"
        product, _meta = decode_csr(frame)
        output = row["output"]
        assert output["shape"] == list(product.shape)
        assert np.array_equal(output["indptr"], product.indptr)
        assert np.array_equal(output["indices"], product.indices)
        assert np.array_equal(np.asarray(output["data"]).view(np.int64),
                              product.data.view(np.int64))
        # The two cases take the two sides of json_array's float choice.
        distinct = len(np.unique(product.data))
        assert (distinct == product.nnz) == random_data

    def test_large_binary_reply_has_content_length(self, server):
        text, response, frame = _product_replies(server, _csr(seed=47,
                                                              n=160))
        assert len(frame) >= 64 * 1024
        assert response.getheader("Content-Length") == str(len(frame))
        assert response.getheader("Transfer-Encoding") is None
        product, _meta = decode_csr(frame)
        _assert_same_text(csr_json(product),
                          json.dumps(json.loads(text)["output"]))


class TestCoalescingAcrossInlineAndRef:
    def test_inline_and_ref_requests_coalesce(self, session):
        """One inline request and one ref request for the same matrix in
        one micro-batch execute once: the registry digest IS the operand
        fingerprint, so the coalescer keys them identically."""
        csr = _csr(seed=41, n=64)
        wide = ReproServer(session, port=0, max_batch=2,
                           max_delay_ms=200.0)
        with BackgroundServer(wide) as background:
            server = background.server
            _, up = json_request(server, "PUT", "/v1/operands",
                                 _operand_json(csr))
            before = server.stats.snapshot()["coalesced"]
            results = {}

            def fire(name, payload):
                results[name] = json_request(server, "POST", "/v1/spgemm",
                                             payload)

            threads = [
                threading.Thread(target=fire, args=(
                    "inline", {"a": _operand_json(csr), "verify": False,
                               "label": "inline"})),
                threading.Thread(target=fire, args=(
                    "ref", {"a": {"ref": up["ref"]}, "verify": False,
                            "label": "ref"})),
            ]
            for thread in threads:
                thread.start()
                time.sleep(0.02)  # both land inside the 200 ms window
            for thread in threads:
                thread.join(timeout=30)
            after = server.stats.snapshot()["coalesced"]
        assert results["inline"][0] == 200
        assert results["ref"][0] == 200
        assert after == before + 1
        assert results["inline"][1]["cycles"] == results["ref"][1]["cycles"]
        assert results["inline"][1]["label"] == "inline"
        assert results["ref"][1]["label"] == "ref"


class TestServingStatsCounters:
    def test_bytes_and_registry_counters_in_stats(self, server):
        status, stats = json_request(server, "GET", "/stats")
        assert status == 200
        for key in ("bytes_in", "bytes_out", "registry_entries",
                    "registry_bytes", "registry_max_bytes",
                    "registry_hits", "registry_misses",
                    "registry_evictions", "registry_pinned"):
            assert key in stats, key
        assert stats["bytes_in"] > 0
        assert stats["bytes_out"] > 0
