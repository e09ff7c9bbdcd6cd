"""Content-addressed operand registry: upload once, reference forever.

The serving layer's steady-state waste is re-shipping operands: every
JSON-inline request carries the full CSR of A (and B), and the batcher
re-fingerprints those arrays per request just to discover it already ran
the identical product.  The :class:`OperandRegistry` closes that loop:

* ``PUT /v1/operands`` stores a CSR (uploaded inline, as a binary
  :mod:`~repro.serve.wire` frame, or synthesised server-side from a named
  generator dataset) under its **content digest** — the same
  :func:`~repro.core.runner.matrix_fingerprint` the program cache and the
  coalescer key on, so a registered handle *is* the coalescing identity.
* later requests say ``{"a": {"ref": "<digest>"}}`` — a ~100-byte body —
  and :meth:`OperandRegistry.resolve` swaps the
  :class:`~repro.core.specs.OperandRef` for the resident matrix, stamping
  ``a_digest`` / ``b_digest`` on the spec so the micro-batcher's
  coalescer never re-hashes the arrays.

Residency is bounded: the registry is size-capped and LRU-swept, exactly
like every other buffer in the serving layer.  Entries referenced by
in-flight requests are *pinned* (ref-counted via :class:`OperandPin`) and
survive sweeps; the pin is released when the request's future resolves,
so a hot operand under load can never be evicted out from under the
batch that is about to execute it.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from dataclasses import replace as _replace
from typing import Any

from repro.analysis.structure import require_valid_csr
from repro.core.runner import matrix_fingerprint
from repro.core.specs import OperandRef, SpGEMMSpec, WorkloadSpec
from repro.sparse.csr import CSRMatrix

#: Default bound on resident operand bytes (indptr + indices + data).
DEFAULT_REGISTRY_BYTES = 256 * 1024 * 1024


class UnknownOperand(KeyError):
    """A dangling ref: no registered operand under that digest (404)."""

    def __str__(self) -> str:  # KeyError quotes its arg; keep it readable
        return self.args[0] if self.args else "unknown operand"


class OperandPinned(RuntimeError):
    """The operand is referenced by in-flight requests (409)."""


class RegistryFull(ValueError):
    """A single operand exceeds the registry's byte cap (413)."""


@dataclass
class OperandEntry:
    """One resident operand.

    Attributes:
        digest: content digest (``matrix_fingerprint``) — the handle.
        csr: the resident matrix.
        nbytes: resident size (the three array buffers).
        source: dataset name or ``"upload"``; label provenance only.
        dataset: the server-side :class:`~repro.datasets.suite.GraphDataset`
            when the operand was registered from a named generator — lets
            ``/v1/gcn`` serve ref requests byte-identically to the
            inline-dataset path.
        hits: resolutions served from this entry.
        refcount: in-flight requests currently pinning the entry.
    """

    digest: str
    csr: CSRMatrix
    nbytes: int
    source: str = "upload"
    dataset: Any = None
    created_at: float = field(default_factory=time.monotonic)
    hits: int = 0
    refcount: int = 0

    def describe(self) -> dict:
        """Metadata row for the ``/v1/operands`` endpoints."""
        return {
            "ref": self.digest,
            "shape": list(self.csr.shape),
            "nnz": self.csr.nnz,
            "bytes": self.nbytes,
            "source": self.source,
            "dataset_backed": self.dataset is not None,
            "hits": self.hits,
            "pinned": self.refcount,
        }


class OperandPin:
    """One in-flight use of a registered operand; release is idempotent."""

    __slots__ = ("_registry", "digest", "_released")

    def __init__(self, registry: "OperandRegistry", digest: str) -> None:
        self._registry = registry
        self.digest = digest
        self._released = False

    def release(self) -> None:
        if not self._released:
            self._released = True
            self._registry.release(self.digest)


class OperandRegistry:
    """Thread-safe content-addressed LRU store of CSR operands.

    Args:
        max_bytes: bound on resident operand bytes.  Inserts beyond it
            evict least-recently-used *unpinned* entries; pinned entries
            are skipped (they are about to execute), so the registry may
            transiently exceed the cap under extreme in-flight pressure
            — it re-converges as pins release.
    """

    def __init__(self, max_bytes: int = DEFAULT_REGISTRY_BYTES) -> None:
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.max_bytes = max_bytes
        self._entries: "OrderedDict[str, OperandEntry]" = OrderedDict()  # guarded-by: _lock
        self._lock = threading.Lock()
        self._bytes = 0  # guarded-by: _lock
        self.hits = 0  # guarded-by: _lock
        self.misses = 0  # guarded-by: _lock
        self.evictions = 0  # guarded-by: _lock

    # ------------------------------------------------------------------
    # Store / fetch
    # ------------------------------------------------------------------
    def put(self, csr: CSRMatrix, *, source: str = "upload",
            dataset: Any = None) -> tuple[OperandEntry, bool]:
        """Register ``csr``; returns ``(entry, created)``.

        Idempotent: re-uploading an already-resident operand touches the
        LRU and returns the existing entry (upgrading it with ``dataset``
        when the first registration lacked one).

        Raises:
            RegistryFull: the single operand is larger than ``max_bytes``.
        """
        require_valid_csr(csr, context="registry-put")
        digest = matrix_fingerprint(csr)
        nbytes = csr.indptr.nbytes + csr.indices.nbytes + csr.data.nbytes
        with self._lock:
            entry = self._entries.get(digest)
            if entry is not None:
                self._entries.move_to_end(digest)
                if entry.dataset is None and dataset is not None:
                    entry.dataset = dataset
                    entry.source = source
                return entry, False
            if nbytes > self.max_bytes:
                raise RegistryFull(
                    f"operand is {nbytes} bytes; registry cap is "
                    f"{self.max_bytes} bytes")
            entry = OperandEntry(digest=digest, csr=csr, nbytes=nbytes,
                                 source=source, dataset=dataset)
            self._entries[digest] = entry
            self._bytes += nbytes
            self._sweep(protect=digest)
            return entry, True

    def get(self, digest: str) -> OperandEntry:
        """Fetch a resident operand by digest (LRU touch + hit count).

        Raises:
            UnknownOperand: no entry under ``digest`` (dangling ref).
        """
        with self._lock:
            entry = self._entries.get(digest)
            if entry is None:
                self.misses += 1
                raise UnknownOperand(f"unknown operand ref {digest!r}; "
                                     "upload it via PUT /v1/operands")
            self._entries.move_to_end(digest)
            entry.hits += 1
            self.hits += 1
            return entry

    def delete(self, digest: str) -> None:
        """Remove an operand.

        Raises:
            UnknownOperand: nothing registered under ``digest``.
            OperandPinned: in-flight requests still reference it.
        """
        with self._lock:
            entry = self._entries.get(digest)
            if entry is None:
                raise UnknownOperand(f"unknown operand ref {digest!r}")
            if entry.refcount > 0:
                raise OperandPinned(
                    f"operand {digest!r} is pinned by {entry.refcount} "
                    "in-flight request(s); retry once they resolve")
            del self._entries[digest]
            self._bytes -= entry.nbytes

    # ------------------------------------------------------------------
    # Pinning
    # ------------------------------------------------------------------
    def acquire(self, digest: str) -> OperandPin:
        """Pin an entry for one in-flight use.

        Raises:
            UnknownOperand: no entry under ``digest``.
        """
        with self._lock:
            entry = self._entries.get(digest)
            if entry is None:
                raise UnknownOperand(f"unknown operand ref {digest!r}")
            entry.refcount += 1
        return OperandPin(self, digest)

    def release(self, digest: str) -> None:
        """Drop one pin; sweeps if the cap was exceeded while pinned."""
        with self._lock:
            entry = self._entries.get(digest)
            if entry is not None and entry.refcount > 0:
                entry.refcount -= 1
            self._sweep()

    # ------------------------------------------------------------------
    # Spec resolution
    # ------------------------------------------------------------------
    def resolve(self, spec: WorkloadSpec
                ) -> tuple[WorkloadSpec, tuple[OperandPin, ...]]:
        """Swap :class:`OperandRef` operands on a spec for resident CSRs.

        Returns the resolved spec (with ``a_digest`` / ``b_digest``
        stamped, so the coalescer keys on the digest instead of
        re-fingerprinting) plus the pins taken — the caller hands those
        to the request queue, which releases them when the request's
        future resolves.

        Raises:
            UnknownOperand: a ref does not resolve.
            ValueError: the resolved operands fail the spec's validation
                (their shapes do not multiply).

            Either way, any pins already taken for this spec are released
            first.
        """
        if not isinstance(spec, SpGEMMSpec):
            return spec, ()
        pins: list[OperandPin] = []
        updates: dict[str, Any] = {}
        try:
            for name in ("a", "b"):
                operand = getattr(spec, name)
                if not isinstance(operand, OperandRef):
                    continue
                entry = self.get(operand.ref)
                pins.append(self.acquire(operand.ref))
                updates[name] = entry.csr
                updates[f"{name}_digest"] = entry.digest
            if updates:
                # Rebuilding the spec re-runs its validation.
                spec = _replace(spec, **updates)
        except (UnknownOperand, ValueError):
            for pin in pins:
                pin.release()
            raise
        return spec, tuple(pins)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        with self._lock:
            return self._bytes

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, digest: str) -> bool:
        with self._lock:
            return digest in self._entries

    def entries(self) -> list[dict]:
        """Metadata rows for every resident operand, LRU-oldest first."""
        with self._lock:
            return [entry.describe() for entry in self._entries.values()]

    def stats(self) -> dict:
        """Counter snapshot merged into the ``/stats`` endpoint."""
        with self._lock:
            return {
                "registry_entries": len(self._entries),
                "registry_bytes": self._bytes,
                "registry_max_bytes": self.max_bytes,
                "registry_hits": self.hits,
                "registry_misses": self.misses,
                "registry_evictions": self.evictions,
                "registry_pinned": sum(1 for e in self._entries.values()
                                       if e.refcount > 0),
            }

    # ------------------------------------------------------------------
    def _sweep(self, protect: str | None = None) -> None:  # lockcheck: holds _lock
        """Evict LRU unpinned entries until under the cap (lock held).

        ``protect`` shields the just-inserted digest: it is the MRU entry
        and must never be the victim of its own insertion sweep even when
        every older entry is pinned (transient overage instead).
        """
        while self._bytes > self.max_bytes:
            victim = next((digest for digest, entry in self._entries.items()
                           if entry.refcount == 0 and digest != protect),
                          None)
            if victim is None:  # everything pinned: transient overage
                return
            entry = self._entries.pop(victim)
            self._bytes -= entry.nbytes
            self.evictions += 1
