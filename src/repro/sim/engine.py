"""Discrete-event simulation kernel.

A minimal, fast event queue: ``callback(*args)`` runs at an absolute or
relative cycle time, in time order (FIFO among equal timestamps).  NeuraSim's
components share one :class:`Simulator` and pass bound methods, not closures.
The queue is a calendar (Brown, CACM 31(10), 1988): one FIFO bucket of
``(callback, args)`` per distinct time and a heap of the distinct times, so
same-time events run in push order with no sequence number or tuple compare.

Hot-path rules, which keep every report bit-identical: events enter through
``schedule``, ``schedule_at`` or, where ``time >= now`` by construction,
:meth:`Simulator.push`; handlers read parameters cached at construction; no
event is added, dropped or reordered for speed.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import islice
from math import inf
from operator import length_hint
from typing import Callable


class _Calendar(dict[float, list[tuple[Callable, tuple]]]):
    """Time -> its events in push order; a new time joins the ``times`` heap."""

    def __init__(self) -> None:
        super().__init__()
        self.times: list[float] = []

    def __missing__(self, time: float) -> list[tuple[Callable, tuple]]:
        heappush(self.times, time)
        bucket: list[tuple[Callable, tuple]] = []
        self[time] = bucket
        return bucket


class Simulator:
    """Event-driven simulation clock and queue.

    The clock unit is one accelerator cycle.  Events may be scheduled at
    fractional cycles internally (e.g. sub-cycle hash-engine slots); reported
    statistics are rounded to whole cycles.
    """

    def __init__(self) -> None:
        self._calendar = _Calendar()
        self.now: float = 0.0
        self.events_processed = 0

    def push(self, time: float, callback: Callable, args: tuple) -> None:
        """Queue ``callback(*args)`` at ``time``, unchecked: the caller
        guarantees ``time >= now``."""
        self._calendar[time].append((callback, args))

    def schedule(self, delay: float, callback: Callable, *args) -> None:
        """Schedule ``callback(*args)`` to run ``delay`` cycles from now."""
        if not delay >= 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        self._calendar[self.now + delay].append((callback, args))

    def schedule_at(self, time: float, callback: Callable, *args) -> None:
        """Schedule ``callback(*args)`` at an absolute time (>= now)."""
        if not time >= self.now:
            raise ValueError(f"cannot schedule at {time} (now is {self.now})")
        self._calendar[time].append((callback, args))

    def run(self, max_events: int | None = None, until: float | None = None) -> None:
        """Drain the event queue.  An event that raises is consumed, with
        the events before it; the later ones stay queued in order.

        Args:
            max_events: optional safety cap on the number of events processed.
            until: optional simulation-time horizon; events after it stay
                queued.
        """
        calendar = self._calendar
        times = calendar.times
        horizon = inf if until is None else until
        processed = 0
        while times and (max_events is None or processed < max_events):
            time = times[0]
            if time > horizon:
                break
            self.now = time
            bucket = calendar[time]
            events = iter(bucket)  # also yields what handlers append at now
            try:
                for callback, args in (events if max_events is None else
                                       islice(events, max_events - processed)):
                    callback(*args)
            finally:
                left = length_hint(events)
                done = len(bucket) - left
                processed += done
                self.events_processed += done
                if left:
                    del bucket[:done]
                else:
                    del calendar[time]
                    heappop(times)

    @property
    def pending_events(self) -> int:
        """Number of events still queued."""
        return sum(map(len, self._calendar.values()))

    def reset(self) -> None:
        """Clear the queue and rewind the clock and the counter."""
        self._calendar.clear()
        self._calendar.times.clear()
        self.now = 0.0
        self.events_processed = 0
