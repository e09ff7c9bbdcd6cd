"""Executor layer: how a session fans work out on the host.

Executors are named exactly like execution backends
(:mod:`repro.backends.registry`): :func:`get_executor` resolves a name in
one fixed table (listing the alternatives on a miss), and
:func:`available_executors` reports its names.  Three executors exist:

========= ============================================== ==================
name      what runs                                      use when
========= ============================================== ==================
serial    in the calling thread, in submission order     default; debugging
thread    a ``ThreadPoolExecutor``                       I/O-bound or
                                                         numpy-heavy jobs
process   a ``ProcessPoolExecutor``                      CPU-bound compile +
                                                         simulate jobs
========= ============================================== ==================

The process executor requires the mapped function and every item to be
picklable; :class:`~repro.core.session.Session` ships a module-level worker
with a snapshot of its constructor state for exactly this purpose.
"""

from __future__ import annotations

import os
import threading
from abc import ABC, abstractmethod
from concurrent.futures import (
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from typing import Any, Callable, Iterable


def available_executors() -> list[str]:
    """Executor names, sorted."""
    return sorted(_EXECUTORS)


def get_executor(name: str, workers: int | None = None) -> "Executor":
    """Instantiate the executor named ``name``.

    Raises:
        ValueError: when no executor has that name; the message lists every
            registered executor.
    """
    if name not in _EXECUTORS:
        raise ValueError(f"unknown executor {name!r}; "
                         f"registered executors: {available_executors()}")
    return _EXECUTORS[name](workers=workers)


def default_workers() -> int:
    """Default worker count for the pooled executors."""
    return max(1, min(8, os.cpu_count() or 1))


class Executor(ABC):
    """One strategy for running many independent job callables."""

    #: The executor's name in ``_EXECUTORS``.
    name: str = ""

    def __init__(self, workers: int | None = None) -> None:
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers or default_workers()

    @abstractmethod
    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> list:
        """Apply ``fn`` to every item; results come back in submission
        order.  Exceptions propagate to the caller."""

    @abstractmethod
    def submit(self, fn: Callable[[Any], Any], item: Any) -> Future:
        """Schedule one call and return a ``concurrent.futures.Future``."""

    def shutdown(self) -> None:
        """Release pooled resources; the executor may not be reused."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


class SerialExecutor(Executor):
    """Run every job inline in the calling thread (the default)."""

    name = "serial"

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> list:
        return [fn(item) for item in items]

    def submit(self, fn: Callable[[Any], Any], item: Any) -> Future:
        future: Future = Future()
        try:
            future.set_result(fn(item))
        except BaseException as exc:  # noqa: BLE001 - mirrored into the future
            future.set_exception(exc)
        return future


class _PooledExecutor(Executor):
    """Shared plumbing for the thread / process pool executors."""

    _pool_cls: type = ThreadPoolExecutor

    def __init__(self, workers: int | None = None) -> None:
        super().__init__(workers)
        self._lock = threading.Lock()
        self._pool = None  # guarded-by: _lock

    def _ensure_pool(self):
        with self._lock:
            if self._pool is None:
                self._pool = self._pool_cls(max_workers=self.workers)
            return self._pool

    def _drop_pool(self, pool) -> None:
        """Shut ``pool`` down and forget it if it is still the current one:
        another caller may already have replaced it with a healthy pool."""
        with self._lock:
            if self._pool is pool:
                self._pool = None
        pool.shutdown(wait=False, cancel_futures=True)

    def _submit_all(self, fn: Callable[[Any], Any],
                    items: Iterable[Any]) -> list[Future]:
        items = list(items)
        pool = self._ensure_pool()
        try:
            return [pool.submit(fn, item) for item in items]
        except BrokenExecutor:
            # A worker died under an earlier call, which already failed
            # with BrokenExecutor; this call gets a fresh pool.
            self._drop_pool(pool)
            pool = self._ensure_pool()
            return [pool.submit(fn, item) for item in items]

    def map(self, fn: Callable[[Any], Any], items: Iterable[Any]) -> list:
        return [future.result() for future in self._submit_all(fn, items)]

    def submit(self, fn: Callable[[Any], Any], item: Any) -> Future:
        return self._submit_all(fn, [item])[0]

    def shutdown(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)


class ThreadExecutor(_PooledExecutor):
    """Fan jobs out over a thread pool (shares the in-process cache)."""

    name = "thread"
    _pool_cls = ThreadPoolExecutor


class ProcessExecutor(_PooledExecutor):
    """Fan jobs out over worker processes (true CPU parallelism).

    The mapped function and every item must be picklable; in-memory caches
    are per-worker, but a session's *disk* program cache is shared through
    the filesystem.
    """

    name = "process"
    _pool_cls = ProcessPoolExecutor


_EXECUTORS: dict[str, type[Executor]] = {
    "serial": SerialExecutor,
    "thread": ThreadExecutor,
    "process": ProcessExecutor,
}
