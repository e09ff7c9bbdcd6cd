"""Discrete-event simulation kernel.

A minimal, fast event queue: ``callback(*args)`` runs at an absolute or
relative cycle time, in time order (FIFO among equal timestamps).  NeuraSim's
components share one :class:`Simulator` and pass bound methods, not closures.
"""

from __future__ import annotations

import heapq
from typing import Callable


class Simulator:
    """Event-driven simulation clock and queue.

    The clock unit is one accelerator cycle.  Events may be scheduled at
    fractional cycles internally (e.g. sub-cycle hash-engine slots); reported
    statistics are rounded to whole cycles.
    """

    def __init__(self) -> None:
        self._queue: list[tuple[float, int, Callable, tuple]] = []
        self._seq = 0
        self.now: float = 0.0
        self.events_processed = 0

    def schedule(self, delay: float, callback: Callable, *args) -> None:
        """Schedule ``callback(*args)`` to run ``delay`` cycles from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        self._seq += 1
        heapq.heappush(self._queue, (self.now + delay, self._seq, callback, args))

    def schedule_at(self, time: float, callback: Callable, *args) -> None:
        """Schedule ``callback(*args)`` at an absolute time (>= now)."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past ({time} < {self.now})")
        self._seq += 1
        heapq.heappush(self._queue, (time, self._seq, callback, args))

    def run(self, max_events: int | None = None, until: float | None = None) -> None:
        """Drain the event queue.

        Args:
            max_events: optional safety cap on the number of events processed.
            until: optional simulation-time horizon.
        """
        processed = 0
        while self._queue:
            if max_events is not None and processed >= max_events:
                break
            time, _seq, callback, args = heapq.heappop(self._queue)
            if until is not None and time > until:
                # Put the event back and stop.
                heapq.heappush(self._queue, (time, _seq, callback, args))
                break
            self.now = time
            callback(*args)
            processed += 1
        self.events_processed += processed

    @property
    def pending_events(self) -> int:
        """Number of events still queued."""
        return len(self._queue)

    def reset(self) -> None:
        """Clear the queue and rewind the clock to zero."""
        self._queue.clear()
        self._seq = 0
        self.now = 0.0
        self.events_processed = 0
