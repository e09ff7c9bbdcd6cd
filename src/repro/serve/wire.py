"""Binary CSR wire format: ``application/x-repro-csr``.

The serving layer's JSON encoding pays for itself on small metric rows
but is ruinous for operands and products: a multi-megabyte CSR inflates
through ``json.dumps`` into one contiguous text body that the asyncio
front-end must buffer twice (arrays -> text -> socket).  This module
defines the binary alternative: an NPY-style *frame* that carries the
three CSR segments as raw little-endian buffers behind a fixed header,
plus an optional JSON metadata blob (the ``RunResult.as_row()`` payload
on response frames, free-form hints on upload frames).

Frame layout (all integers little-endian)::

    offset  size            field
    ------  --------------  ---------------------------------------------
    0       4               magic  b"RCSR"
    4       1               format version (currently 1)
    5       1               flags  (bit 0: metadata blob present)
    6       2               reserved (must be 0)
    8       8               n_rows   (int64)
    16      8               n_cols   (int64)
    24      8               nnz      (int64)
    32      4               meta_len (uint32; 0 when flags bit 0 clear)
    36      meta_len        metadata: UTF-8 JSON object
    ...     (n_rows+1)*8    indptr   (int64)
    ...     nnz*8           indices  (int64)
    ...     nnz*8           data     (float64)

The total frame length is fully determined by the header, so a receiver
can reject truncated or padded bodies before touching the payload —
every malformed frame raises :class:`WireFormatError`, which the HTTP
front-end maps to ``400``.

Encoding is zero-copy where the platform allows it:
:func:`encode_csr_frames` returns the header plus *views* of the CSR's
own array buffers (numpy int64/float64 arrays on little-endian hosts are
already wire-shaped), so the HTTP layer can stream each segment straight
into the socket without ever materialising the whole body.
"""

from __future__ import annotations

import json
import struct
from typing import Any

import numpy as np

from repro.sparse.csr import CSRMatrix

#: Content type negotiated on upload (``Content-Type``) and response
#: (``Accept``) paths of the serving HTTP front-end.
WIRE_CONTENT_TYPE = "application/x-repro-csr"

#: Frame magic and the single format version this codec speaks.
WIRE_MAGIC = b"RCSR"
WIRE_VERSION = 1

#: Flags bit 0: a JSON metadata blob follows the fixed header.
_FLAG_META = 0x01

#: ``<`` little-endian: magic, version, flags, reserved, n_rows, n_cols,
#: nnz, meta_len.
_HEADER = struct.Struct("<4sBBHqqqI")
HEADER_BYTES = _HEADER.size  # 36

_INT64 = np.dtype("<i8")
_FLOAT64 = np.dtype("<f8")


class WireFormatError(ValueError):
    """A binary frame is truncated, padded, or structurally invalid."""


def _wire_buffer(array: np.ndarray, dtype: np.dtype) -> memoryview:
    """A little-endian contiguous buffer view of ``array``.

    On little-endian hosts (every platform the repo targets) the CSR's
    own int64/float64 buffers already match the wire layout, so this is
    a view, not a copy.
    """
    wire = np.ascontiguousarray(np.asarray(array), dtype=dtype)
    return wire.data.cast("B")


def encode_csr_frames(csr: CSRMatrix,
                      meta: dict[str, Any] | None = None) -> list:
    """Encode ``csr`` as a list of wire segments (header first).

    The segments concatenate into one valid frame; keeping them separate
    lets the HTTP layer write each straight from the CSR's buffers so
    large products are never buffered twice.  ``meta`` (optional) rides
    along as a JSON blob — response frames put the flat metrics row here.
    """
    meta_blob = b"" if meta is None else json.dumps(meta).encode()
    flags = _FLAG_META if meta is not None else 0
    header = _HEADER.pack(WIRE_MAGIC, WIRE_VERSION, flags, 0,
                          csr.shape[0], csr.shape[1], csr.nnz,
                          len(meta_blob))
    return [header + meta_blob,
            _wire_buffer(csr.indptr, _INT64),
            _wire_buffer(csr.indices, _INT64),
            _wire_buffer(csr.data, _FLOAT64)]


def encode_csr(csr: CSRMatrix, meta: dict[str, Any] | None = None) -> bytes:
    """Encode ``csr`` (and optional metadata) as one contiguous frame."""
    return b"".join(encode_csr_frames(csr, meta))


#: Values :func:`json_array` samples to judge whether floats repeat.
_REPEAT_SAMPLE = 1024


def json_array(values: np.ndarray) -> str:
    """``json.dumps(values.tolist())``, rendering each distinct value once.

    Integers in ``[0, size)`` with ``2 * size <= len(values)`` (CSR column
    ids) index a table of ``str(i)``.  float64 values whose strided sample
    repeats index a table of ``json.dumps`` tokens, one per bit pattern, so
    ``-0.0`` and every NaN keep their own.  Anything else is dumped whole.
    """
    n = len(values)
    if values.dtype.kind in "iu" and n and values.min() >= 0 \
            and 2 * (size := int(values.max()) + 1) <= n:
        tokens, codes = list(map(str, range(size))), values
    elif values.dtype == np.float64:
        bits = values.view(np.int64)
        sample = bits[::max(1, n // _REPEAT_SAMPLE)]
        if 2 * len(np.unique(sample)) > len(sample):
            return json.dumps(values.tolist())
        distinct, codes = np.unique(bits, return_inverse=True)
        tokens = json.dumps(distinct.view(np.float64).tolist())[1:-1] \
            .split(", ")
    else:
        return json.dumps(values.tolist())
    return "[" + ", ".join(np.array(tokens, dtype=object)[codes].tolist()) \
        + "]"


def csr_json(csr: CSRMatrix) -> str:
    """The JSON object text of ``csr``'s arrays and shape, byte-identical
    to ``json.dumps`` of ``{"indptr": ..., "indices": ..., "data": ...,
    "shape": ...}`` built from ``tolist()``."""
    return (f'{{"indptr": {json_array(csr.indptr)}, '
            f'"indices": {json_array(csr.indices)}, '
            f'"data": {json_array(csr.data)}, '
            f'"shape": {json.dumps([int(dim) for dim in csr.shape])}}}')


def frames_nbytes(frames: list) -> int:
    """Total byte length of a segment list from :func:`encode_csr_frames`."""
    return sum(len(frame) for frame in frames)


def decode_csr(body: bytes) -> tuple[CSRMatrix, dict[str, Any] | None]:
    """Decode one frame into ``(matrix, metadata)``.

    Raises:
        WireFormatError: bad magic/version, truncated or padded body,
            inconsistent header counts, undecodable metadata, or CSR
            structural invariants violated (``indptr`` not matching
            ``nnz``, column ids out of range, ...).
    """
    body = bytes(body)
    if len(body) < HEADER_BYTES:
        raise WireFormatError(
            f"frame truncated: {len(body)} bytes is shorter than the "
            f"{HEADER_BYTES}-byte header")
    magic, version, flags, reserved, n_rows, n_cols, nnz, meta_len = \
        _HEADER.unpack_from(body)
    if magic != WIRE_MAGIC:
        raise WireFormatError(f"bad magic {magic!r}; expected {WIRE_MAGIC!r}")
    if version != WIRE_VERSION:
        raise WireFormatError(f"unsupported wire version {version}; "
                              f"this codec speaks {WIRE_VERSION}")
    if reserved != 0 or flags & ~_FLAG_META:
        raise WireFormatError("reserved header bits set; refusing frame")
    if n_rows < 0 or n_cols < 0 or nnz < 0:
        raise WireFormatError("negative dimension in frame header")
    if not flags & _FLAG_META and meta_len != 0:
        raise WireFormatError("meta_len set but metadata flag clear")
    expected = (HEADER_BYTES + meta_len
                + (n_rows + 1) * 8 + nnz * 8 + nnz * 8)
    if len(body) != expected:
        raise WireFormatError(
            f"frame length mismatch: header describes {expected} bytes, "
            f"got {len(body)} (truncated or padded body)")
    offset = HEADER_BYTES
    meta: dict[str, Any] | None = None
    if flags & _FLAG_META:
        try:
            meta = json.loads(body[offset:offset + meta_len].decode())
        except (UnicodeDecodeError, json.JSONDecodeError,
                RecursionError) as err:
            raise WireFormatError(f"undecodable frame metadata: {err}") \
                from err
        if not isinstance(meta, dict):
            raise WireFormatError("frame metadata must be a JSON object")
        offset += meta_len
    indptr = np.frombuffer(body, dtype=_INT64, count=n_rows + 1,
                           offset=offset).copy()
    offset += (n_rows + 1) * 8
    indices = np.frombuffer(body, dtype=_INT64, count=nnz,
                            offset=offset).copy()
    offset += nnz * 8
    data = np.frombuffer(body, dtype=_FLOAT64, count=nnz,
                         offset=offset).copy()
    try:
        matrix = CSRMatrix(indptr, indices, data, (n_rows, n_cols))
    except ValueError as err:  # a StructureError from the constructor
        raise WireFormatError(f"frame payload is not a valid CSR: {err}") \
            from err
    return matrix, meta
