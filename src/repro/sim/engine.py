"""Discrete-event simulation kernel.

A minimal, fast event queue: ``callback(*args)`` runs at an absolute or
relative cycle time, in time order (FIFO among equal timestamps).  NeuraSim's
components share one :class:`Simulator` and pass bound methods, not closures.

Hot-path rules, which keep every report bit-identical: every push takes its
sequence number from the one counter ``seq`` (a component may push ``(time,
next(sim.seq), callback, args)`` itself where ``time >= now`` by
construction); handlers read parameters cached at construction; no event is
added, dropped or reordered for speed.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from math import inf
from sys import maxsize
from typing import Callable


class Simulator:
    """Event-driven simulation clock and queue.

    The clock unit is one accelerator cycle.  Events may be scheduled at
    fractional cycles internally (e.g. sub-cycle hash-engine slots); reported
    statistics are rounded to whole cycles.
    """

    def __init__(self) -> None:
        self.queue: list[tuple[float, int, Callable, tuple]] = []
        self.seq = count(1)
        self.now: float = 0.0
        self.events_processed = 0

    def schedule(self, delay: float, callback: Callable, *args) -> None:
        """Schedule ``callback(*args)`` to run ``delay`` cycles from now."""
        if not delay >= 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        heappush(self.queue, (self.now + delay, next(self.seq), callback, args))

    def schedule_at(self, time: float, callback: Callable, *args) -> None:
        """Schedule ``callback(*args)`` at an absolute time (>= now)."""
        if not time >= self.now:
            raise ValueError(f"cannot schedule at {time} (now is {self.now})")
        heappush(self.queue, (time, next(self.seq), callback, args))

    def run(self, max_events: int | None = None, until: float | None = None) -> None:
        """Drain the event queue.

        Args:
            max_events: optional safety cap on the number of events processed.
            until: optional simulation-time horizon; events after it stay
                queued.
        """
        queue = self.queue
        horizon = inf if until is None else until
        budget = maxsize if max_events is None else max_events
        processed = 0
        for processed in range(budget):
            if not queue:
                break
            time, seq, callback, args = heappop(queue)
            if time > horizon:
                heappush(queue, (time, seq, callback, args))
                break
            self.now = time
            callback(*args)
        else:
            processed = budget
        self.events_processed += processed

    @property
    def pending_events(self) -> int:
        """Number of events still queued."""
        return len(self.queue)

    def reset(self) -> None:
        """Clear the queue and rewind the clock and the counter."""
        self.queue.clear()
        self.seq = count(1)
        self.now = 0.0
        self.events_processed = 0
