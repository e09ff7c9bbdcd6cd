"""Host-speed calibration for the benchmark's host-time metrics.

The benchmark host is shared.  Its speed switches between a fast state and
one about 1.5x slower, for stretches of 0.1 s to minutes, in proportions
that change from minute to minute; process CPU time slows with it, so it
is contention for the core, not time taken away from the process.  Raw
medians therefore follow the host: ten seeded runs of one code spread by
30% of their median, and a later set of runs can sit wholly in the other
state.

:func:`host_ms` times a fixed kernel (interpreter loop, numpy gather, sort
and scatter-add, the kinds of work the workloads do).  A time is reported
*normalised*: multiplied by ``REF_MS`` over the kernel's time measured
around it, i.e. the time the stretch would have taken had the kernel run
in ``REF_MS``.  Over 90 s of ``spgemm-warm`` operations the raw per-15 s
medians moved by 30% and the normalised ones by 5%.  A change to the
program moves the stretch and not the kernel, so it shows in full; the raw
figures are printed beside the normalised ones.

Operations can last longer than one speed state, so :class:`Sampler` also
times the kernel from a timer signal *during* them and takes the time its
handler spent out of the operation.

The correction is partial where a workload slows more than the kernel:
``cycle-sim``'s pure-Python simulator does, and its ten-seed spread only
fell from 26% to 13% of the median (the others: 2-7%).
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

#: The kernel's time, in ms, in the fast state of the 2-vCPU host the
#: benchmark was written on.  It only scales the normalised figures.
REF_MS = 4.0

#: How far around a timed stretch kernel samples count for it.
MARGIN_S = 0.5

_RNG = np.random.default_rng(20240601)
_VALUES = _RNG.random(200_000)
_INDEX = _RNG.integers(0, 200_000, 200_000)
_BUCKETS = _INDEX[:20_000] % 1000


def _kernel() -> None:
    total = 0
    for i in range(20_000):
        total += i * i
    np.sort(_VALUES[_INDEX])
    np.add.at(np.zeros(1000), _BUCKETS, 1.0)


def host_ms() -> float:
    """Milliseconds the calibration kernel takes right now.  It runs twice
    and the second run is timed, so what the timed stretch before it left
    in the caches does not count."""
    _kernel()
    begin = time.perf_counter_ns()
    _kernel()
    return (time.perf_counter_ns() - begin) / 1e6


def normalised(elapsed: float, before_ms: float, after_ms: float) -> float:
    """``elapsed`` (any unit) at the reference host speed, from the kernel
    times measured right before and right after it."""
    return elapsed * REF_MS / ((before_ms + after_ms) / 2)


class Sampler:
    """Kernel samples ``(perf_counter_ns, ms)`` taken on demand and, while
    entered with an ``interval_s``, from a ``SIGALRM`` timer.

    Python runs signal handlers in the main thread between bytecodes, so a
    timed sample interrupts the operation in progress; ``spent_ns`` counts
    the time handlers took, for the caller to take out of its timing.
    Only the main thread may enter a timed sampler."""

    def __init__(self, interval_s: float | None = None) -> None:
        self.interval_s = interval_s
        self.samples: list[tuple[int, float]] = []
        self.spent_ns = 0
        self._previous = None

    def sample(self) -> None:
        begin = time.perf_counter_ns()
        ms = host_ms()
        end = time.perf_counter_ns()
        self.samples.append((end, ms))
        self.spent_ns += end - begin

    def _on_timer(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> "Sampler":
        self.sample()
        if self.interval_s:
            self._previous = signal.signal(signal.SIGALRM, self._on_timer)
            signal.setitimer(signal.ITIMER_REAL, self.interval_s,
                             self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        if self.interval_s:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def normalise(self, start_ns: int, elapsed_ms: float) -> float:
        """``elapsed_ms`` of a stretch that began at ``start_ns``, at the
        reference speed: scaled by the mean kernel time over the samples
        from :data:`MARGIN_S` before the stretch to as long after it, and
        at least the last one before it and the first one after it.  One
        ~4 ms sample is noisier than the stretches it calibrates; the
        margin averages several while still following the speed states."""
        self.samples.sort()
        times = [at for at, _ in self.samples]
        end_ns = start_ns + elapsed_ms * 1e6
        margin = MARGIN_S * 1e9
        first = min(bisect.bisect_left(times, start_ns - margin),
                    max(bisect.bisect_right(times, start_ns) - 1, 0))
        last = max(bisect.bisect_right(times, end_ns + margin) - 1,
                   min(bisect.bisect_left(times, end_ns), len(times) - 1))
        kernel = statistics.mean(ms for _, ms in self.samples[first:last + 1])
        return elapsed_ms * REF_MS / kernel
