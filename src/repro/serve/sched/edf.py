"""Earliest-deadline-first ordering within one tenant.

:class:`EDFQueue` is a deadline-ordered heap of
:class:`~repro.serve.queue.ServeRequest`: the head is always the request
whose deadline expires soonest.  Requests without a deadline sort after
every deadline-carrying request (key ``+inf``) and among themselves fall
back to arrival order via the monotonically increasing ``request_id`` —
so a single default tenant with no deadlines degrades to exactly the
FIFO order the serving layer had before scheduling existed, and two
same-tenant deadlines are never inverted (the property
``tests/test_sched.py`` checks).

The queue is *externally synchronized*: every instance lives inside a
:class:`~repro.serve.sched.wfq.WFQScheduler` lane and is only touched
under the owning :class:`~repro.serve.queue.RequestQueue`'s condition
lock (annotated ``guarded-by: _condition`` / ``lockcheck: holds`` for
the ``repro analyze --pass locks`` audit).
"""

from __future__ import annotations

import heapq
import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.serve.queue import ServeRequest

#: Sort key for requests with no deadline: after every real deadline.
_NO_DEADLINE = math.inf


def deadline_key(request: "ServeRequest") -> tuple[float, int]:
    """EDF sort key: (deadline or +inf, arrival id).  Total order — ties
    on deadline resolve by arrival, so the order is deterministic."""
    deadline = request.deadline if request.deadline is not None \
        else _NO_DEADLINE
    return (deadline, request.request_id)


class EDFQueue:
    """Deadline-ordered request heap (externally synchronized)."""

    __slots__ = ("_heap",)

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, "ServeRequest"]] = []  # guarded-by: _condition

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(self, request: "ServeRequest") -> None:  # lockcheck: holds _condition
        deadline, request_id = deadline_key(request)
        heapq.heappush(self._heap, (deadline, request_id, request))

    def pop(self) -> "ServeRequest":  # lockcheck: holds _condition
        """Remove and return the earliest-deadline request."""
        return heapq.heappop(self._heap)[2]

    def head_key(self) -> tuple[float, int]:
        """Sort key of the head (``(inf, inf)`` when empty, so an empty
        queue loses every tie-break)."""
        if not self._heap:
            return (_NO_DEADLINE, -1)
        deadline, request_id, _request = self._heap[0]
        return (deadline, request_id)

    def drain(self) -> list["ServeRequest"]:  # lockcheck: holds _condition
        """Remove and return every request in EDF order."""
        drained = [entry[2] for entry in sorted(self._heap)]
        self._heap.clear()
        return drained
