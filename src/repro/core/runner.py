"""Compiled-program caching: operand fingerprints and a bounded LRU.

Compilation — the symbolic pass plus MMH lowering, the expensive front half
of every run — is cached in a :class:`ProgramCache`: an LRU bound in memory
that can also spill programs to disk, so repeated CLI / batch invocations
against the same graphs skip compilation entirely.  Programs are keyed by
A's content and B's structure: NeuraChip decouples multiply (MMH) from
accumulate (HACC), so a program depends on B only through its sparsity
(for a full-structure B, through its shape alone).
:func:`fetch_or_compile`, the one fetch-or-compile step of every execution
path (session runs, GNN stack layers, multichip and host-shard units),
re-binds a hit to the caller's B values.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Callable

import numpy as np

from repro.analysis.verifier import verify_program
from repro.compiler.lowering import compile_spgemm
from repro.compiler.program import Program, rebind_b_values
from repro.sparse.convert import csr_to_csc
from repro.sparse.csr import CSRMatrix, full_structure_csr, matrix_fingerprint

#: Default bound on cached compiled programs (LRU eviction).
DEFAULT_CACHE_CAPACITY = 128

#: Default bound on the on-disk cache tier, in bytes.  Long-lived serving
#: hosts spill every compiled program; without a cap the tier grows without
#: bound, so spills sweep the directory by mtime (oldest first) down to
#: this size.  ``max_disk_bytes=None`` disables the sweep.
DEFAULT_DISK_CAPACITY_BYTES = 256 * 1024 * 1024

#: On-disk cache schema version.  The first element of every cache key:
#: bump it whenever the fingerprint inputs, the Program layout, or the
#: pickle payload change shape, so stale entries from an older release can
#: never silently collide with (or be served as) current ones.
#: v3: programs pickle as their columnar payload (numpy buffers) instead
#: of a materialized macro-op list — far smaller spills, and incompatible
#: with the v2 object graph.
#: v4: keys drop the program-family ``kind`` element; a program depends
#: only on A's content, B's structure and the tile size.
#: v5: a full-structure B's structure fingerprint digests its shape alone.
#: v6: a program pickles as one ``Program`` dataclass (its columns,
#: address map, partial-product total and source) instead of a wrapper
#: around a separate column object.
CACHE_SCHEMA_VERSION = 6


def matrix_structure_fingerprint(matrix) -> str:
    """Stable hash of a sparse matrix's *structure* (shape + index arrays,
    values excluded).

    Two matrices with identical sparsity patterns but different values map
    to the same digest.  :meth:`ProgramCache.key` keys B this way: the
    compiled program depends only on B's structure, so a program compiled
    for one B serves any B of the same structure after a value re-bind
    (every layer of a fixed-width GNN stack, for one).

    A :class:`~repro.sparse.csr.CSRMatrix` is canonical (it validates on
    construction), so one whose nnz is ``rows * cols`` can only hold every
    slot: its structure is its shape, and only the shape is digested, as
    for a dense ``(n, W)`` array (a GNN stack layer's features).
    """
    digest = hashlib.sha1()
    digest.update(f"schema={CACHE_SCHEMA_VERSION}:structure".encode())
    digest.update(str(matrix.shape).encode())
    if isinstance(matrix, np.ndarray) or (
            isinstance(matrix, CSRMatrix)
            and matrix.nnz == matrix.shape[0] * matrix.shape[1]):
        digest.update(b"full")
        return digest.hexdigest()
    for array in (matrix.indptr, matrix.indices):
        digest.update(str(array.dtype).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def default_cache_dir() -> Path:
    """Default location for the persistent program cache
    (``$XDG_CACHE_HOME`` or ``~/.cache``)."""
    base = os.environ.get("XDG_CACHE_HOME")
    root = Path(base) if base else Path.home() / ".cache"
    return root / "neurachip-repro" / f"programs-v{CACHE_SCHEMA_VERSION}"


class ProgramCache:
    """Bounded LRU cache of compiled programs, keyed by A's content and
    B's structure (see :meth:`key`).

    Entries are touched on :meth:`get`, so hot programs survive pressure
    that would have evicted them under the old FIFO policy.  When
    ``cache_dir`` is given, every stored program is also pickled to disk
    under its key digest; later processes (or later CLI invocations) that
    miss in memory transparently load from disk, skipping compilation.
    The disk tier is itself bounded: every spill sweeps the directory down
    to ``max_disk_bytes`` by eviction of the oldest-mtime entries (disk
    hits touch the file's mtime, so the sweep is an LRU over entries any
    process sharing the directory actually uses).  The cache is
    thread-safe, so a thread executor can share it, and a miss claims its
    key (:meth:`claim`): concurrent misses on one key wait for the one
    compile instead of repeating it.
    """

    def __init__(self, capacity: int = DEFAULT_CACHE_CAPACITY,
                 cache_dir: str | Path | None = None,
                 max_disk_bytes: int | None = DEFAULT_DISK_CAPACITY_BYTES
                 ) -> None:
        self.capacity = max(0, capacity)
        self.max_disk_bytes = max_disk_bytes
        self._entries: OrderedDict[tuple, Program] = OrderedDict()  # guarded-by: _lock
        self._claims: dict[tuple, threading.Event] = {}  # guarded-by: _lock
        self._lock = threading.Lock()
        self.hits = 0  # guarded-by: _lock
        self.misses = 0  # guarded-by: _lock
        self.disk_hits = 0  # guarded-by: _lock
        self.disk_evictions = 0  # guarded-by: _lock
        self.verify_failed = 0  # guarded-by: _lock
        self.cache_dir: Path | None = None
        if cache_dir is not None:
            path = Path(cache_dir).expanduser()
            if path.exists() and not path.is_dir():
                raise ValueError(f"cache dir {str(path)!r} exists and is not "
                                 "a directory")
            path.mkdir(parents=True, exist_ok=True)
            self.cache_dir = path

    # ------------------------------------------------------------------
    def key(self, a, b, tile_size: int, a_key: str | None = None) -> tuple:
        """Cache key for operands ``(a, b)`` at ``tile_size``: A by
        content, a given ``b`` by structure only, since the compiled
        program never depends on B's values (:func:`fetch_or_compile`
        re-binds them on a hit).  A full-structure ``b`` is keyed by its
        shape, with no hashing of its index arrays
        (:func:`matrix_structure_fingerprint`); a given ``a_key`` is A's.

        ``b=None`` means the A @ A workload, whose one operand is keyed by
        content.  Nothing else enters the key: a plain SpGEMM, a GCN
        layer's aggregation, a GNN stack layer and a multichip unit with
        the same operands share one program.  Only the key's leading
        :data:`CACHE_SCHEMA_VERSION` versions it.
        """
        fingerprint_a = a_key if a_key is not None else matrix_fingerprint(a)
        fingerprint_b = (matrix_structure_fingerprint(b) if b is not None
                         else fingerprint_a)
        return (CACHE_SCHEMA_VERSION, fingerprint_a, fingerprint_b,
                tile_size)

    def _disk_path(self, key: tuple) -> Path:
        digest = hashlib.sha1(repr(key).encode()).hexdigest()
        return self.cache_dir / f"{digest}.pkl"

    # ------------------------------------------------------------------
    def get(self, key: tuple) -> Program | None:
        """The program stored at ``key`` — from memory, else from disk —
        or ``None`` on a miss."""
        program = self.claim(key)
        if program is None:
            self.release(key)
        return program

    def claim(self, key: tuple) -> Program | None:
        """:meth:`get`, except that a miss claims ``key``: the caller
        compiles the program and must :meth:`put` it, or :meth:`release`
        the key if the compile fails.  A miss on a key another caller has
        claimed waits for that caller: its :meth:`put` makes the wait a
        hit, its :meth:`release` lets one waiter claim the key in turn."""
        while True:
            with self._lock:
                program = self._entries.get(key)
                if program is not None:
                    self._entries.move_to_end(key)  # LRU touch
                    self.hits += 1
                    return program
                pending = self._claims.get(key)
                if pending is None:
                    self._claims[key] = threading.Event()
                    break
            pending.wait()
        program = self._load_from_disk(key)
        with self._lock:
            if program is not None:
                self.hits += 1
                self.disk_hits += 1
                self._store(key, program)
                self._unclaim(key)
            else:
                self.misses += 1
        return program

    def put(self, key: tuple, program: Program) -> None:
        with self._lock:
            self._store(key, program)
            self._unclaim(key)
        self._spill_to_disk(key, program)

    def release(self, key: tuple) -> None:
        """Give up the claim on ``key`` without storing a program."""
        with self._lock:
            self._unclaim(key)

    def _unclaim(self, key: tuple) -> None:  # lockcheck: holds _lock
        pending = self._claims.pop(key, None)
        if pending is not None:
            pending.set()

    def rebound(self, key: tuple, program: Program) -> None:
        """Swap the in-memory entry at ``key`` for ``program``, its copy
        re-bound to other B values; the disk tier is left as it is."""
        with self._lock:
            if key in self._entries:
                self._entries[key] = program

    def _store(self, key: tuple, program: Program) -> None:  # lockcheck: holds _lock
        if self.capacity <= 0:
            return
        self._entries[key] = program
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    # ------------------------------------------------------------------
    def _load_from_disk(self, key: tuple) -> Program | None:
        if self.cache_dir is None:
            return None
        path = self._disk_path(key)
        if not path.exists():
            return None
        try:
            with path.open("rb") as handle:
                schema, stored_key, program = pickle.load(handle)
            if schema != CACHE_SCHEMA_VERSION or stored_key != key:
                raise ValueError("stale or colliding cache entry")
            # The cache tier is payload-agnostic (tests and callers may
            # store non-Program values); only compiled programs carry IR
            # invariants to verify.
            findings = (verify_program(program, level="quick")
                        if isinstance(program, Program) else [])
            if findings:
                # A pickle that unpickles into an ill-formed program is
                # treated exactly like a corrupt entry (drop + recompile),
                # but counted separately: corruption that survives
                # pickle.load is worth alarming on.
                with self._lock:
                    self.verify_failed += 1
                raise ValueError("disk cache entry failed IR verification: "
                                 + findings[0].format())
            try:
                os.utime(path)  # LRU touch: hot entries survive the sweep
            except OSError:
                pass
            return program
        except Exception:  # corrupt/stale entries are misses, not errors
            path.unlink(missing_ok=True)
            return None

    def _spill_to_disk(self, key: tuple, program: Program) -> None:
        if self.cache_dir is None or self.capacity <= 0:
            return
        path = self._disk_path(key)
        # Unique temp name per writer so concurrent spills of the same
        # entry (thread pool, or processes sharing one cache dir) never
        # interleave partial writes; last replace wins atomically.
        tmp = path.with_suffix(f".{os.getpid()}.{threading.get_ident()}.tmp")
        try:
            with tmp.open("wb") as handle:
                pickle.dump((CACHE_SCHEMA_VERSION, key, program), handle,
                            protocol=pickle.HIGHEST_PROTOCOL)
            tmp.replace(path)  # atomic publish for concurrent writers
        except Exception:
            # Disk spill is best-effort: I/O errors and unpicklable
            # payloads (e.g. caller-extended metadata) must not abort the
            # run, and the partial temp file must not linger.
            tmp.unlink(missing_ok=True)
            return
        self._sweep_disk()

    def _sweep_disk(self) -> None:
        """Evict oldest-mtime disk entries until the tier fits
        ``max_disk_bytes`` (best-effort: concurrent writers may race the
        stat/unlink, which only makes the sweep conservative)."""
        if self.cache_dir is None or self.max_disk_bytes is None:
            return
        entries = []
        total = 0
        for path in self.cache_dir.glob("*.pkl"):
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
            total += stat.st_size
        if total <= self.max_disk_bytes:
            return
        # Never evict the newest entry: a single program larger than the
        # cap must stay cached (deleting it would force a recompile on
        # every subsequent run without ever freeing the budget it needs).
        evicted = 0
        for _, size, path in sorted(entries)[:-1]:
            try:
                path.unlink(missing_ok=True)
            except OSError:
                continue
            evicted += 1
            total -= size
            if total <= self.max_disk_bytes:
                break
        if evicted:
            # _sweep_disk runs outside the lock (it only touches the
            # filesystem); the shared counter update must not.
            with self._lock:
                self.disk_evictions += evicted

    def clear_disk(self) -> int:
        """Remove every on-disk entry (and stray temp files); returns the
        number of cache entries removed."""
        if self.cache_dir is None:
            return 0
        removed = 0
        for path in self.cache_dir.glob("*.pkl"):
            try:
                path.unlink(missing_ok=True)
                removed += 1
            except OSError:
                continue
        for tmp in self.cache_dir.glob("*.tmp"):
            tmp.unlink(missing_ok=True)
        return removed

    def disk_stats(self) -> dict:
        """Entry count and byte totals of the on-disk tier."""
        entries = 0
        total = 0
        if self.cache_dir is not None:
            for path in self.cache_dir.glob("*.pkl"):
                try:
                    total += path.stat().st_size
                except OSError:
                    continue
                entries += 1
        return {"disk_entries": entries, "disk_bytes": total,
                "max_disk_bytes": self.max_disk_bytes,
                "disk_evictions": self.disk_evictions,
                "verify_failed": self.verify_failed}

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Hit / miss counters and sizing, as one flat dict."""
        return {"hits": self.hits, "misses": self.misses,
                "disk_hits": self.disk_hits, "entries": len(self._entries),
                "capacity": self.capacity,
                "cache_dir": str(self.cache_dir) if self.cache_dir else None,
                **self.disk_stats()}

    def __len__(self) -> int:
        return len(self._entries)


def _same_bits(held: np.ndarray, values: np.ndarray) -> bool:
    """Bitwise equality of two value arrays: a NaN matches itself, and
    ``-0.0`` does not match ``0.0``."""
    if held.dtype != values.dtype or held.shape != values.shape:
        return False
    bits = np.dtype(f"u{held.dtype.itemsize}")
    return np.array_equal(held.view(bits), values.view(bits))


def fetch_or_compile(cache: ProgramCache | None, a_csr: CSRMatrix,
                     b_csr: CSRMatrix | np.ndarray | None, tile_size: int,
                     source: str,
                     check: Callable[[tuple | None, Program], Program]
                     | None = None, a_key: str | None = None,
                     fresh_b: bool = False) -> tuple[Program, bool, bool]:
    """The program for C = A @ B (``b_csr=None`` means A @ A), from
    ``cache`` or freshly compiled and stored; returns
    ``(program, cache_hit, rebound)``.

    The cache keys ``b_csr`` by structure, so a hit may hold other B
    values: it then comes back re-bound to a copy of ``b_csr``'s values,
    byte-identical to a fresh compile, replaces the cached entry (which
    thus holds the B values last served) and ``rebound`` is true.  A hit
    already holding these values, bit for bit, is returned as cached.
    A ``fresh_b`` (no caller holds it) is re-bound with no compare and no
    copy; ``a_key`` goes to :meth:`ProgramCache.key`; a dense ``(n, W)``
    ``b_csr`` is encoded only to compile it.  ``cache=None`` always compiles.
    A miss on a key another thread is compiling waits for that compile
    and counts as a hit (:meth:`ProgramCache.claim`).
    ``check(key, program)`` sees every fetched or compiled program and
    returns it; the session passes its memoized IR verification, which
    raises on an ill-formed program.
    """
    key = None
    program = None
    if cache is not None:
        key = cache.key(a_csr, b_csr, tile_size, a_key=a_key)
        program = cache.claim(key)
    cache_hit = program is not None
    dense = isinstance(b_csr, np.ndarray)
    rebound = cache_hit and b_csr is not None and (fresh_b or not _same_bits(
        program.b_values, b_csr.reshape(-1) if dense else b_csr.data))
    if rebound:
        program = rebind_b_values(program, b_csr, copy=not fresh_b)
        cache.rebound(key, program)
    elif program is None:
        try:
            program = compile_spgemm(
                csr_to_csc(a_csr), full_structure_csr(b_csr) if dense
                else b_csr if b_csr is not None else a_csr,
                tile_size=tile_size, source=source)
        except BaseException:
            if cache is not None:
                cache.release(key)
            raise
        if cache is not None:
            cache.put(key, program)
    if check is not None:
        program = check(key, program)
    return program, cache_hit, rebound
