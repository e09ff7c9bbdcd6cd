"""Statistics primitives for NeuraSim.

Every NeuraSim component counts its own events in plain attributes; this
module holds the two shared instruments the accelerator hands to them: the
binned histograms of the paper's Figures 14 and 15, and time-weighted level
tracking (for the "in-flight memory instructions" metric of Figure 11).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class Histogram:
    """Fixed-width binned histogram with an overflow bucket.

    Mirrors the CPI histograms of Figures 14/15: bins of ``bin_width`` cycles
    from 0 to ``n_bins * bin_width``, with everything beyond that falling into
    the final ``...+`` bucket.
    """

    bin_width: int
    n_bins: int
    bin_counts: list[int] = field(default=None)
    total_observations: int = 0
    sum_values: float = 0.0

    def __post_init__(self) -> None:
        if self.bin_counts is None:
            self.bin_counts = [0] * self.n_bins

    @property
    def counts(self) -> np.ndarray:
        """Observations per bin (``bin_counts``, plain ints) as int64."""
        return np.array(self.bin_counts, dtype=np.int64)

    def add(self, value: float) -> None:
        """Record one observation."""
        index, last = int(value // self.bin_width), self.n_bins - 1
        self.bin_counts[last if index > last else index if index > 0 else 0] += 1
        self.total_observations += 1
        self.sum_values += value

    @classmethod
    def merged(cls, histograms: list["Histogram"]) -> "Histogram":
        """One histogram holding every observation of ``histograms``, which
        share one binning."""
        return cls(histograms[0].bin_width, histograms[0].n_bins,
                   [sum(column) for column
                    in zip(*(h.bin_counts for h in histograms))],
                   sum(h.total_observations for h in histograms),
                   sum(h.sum_values for h in histograms))

    @property
    def mean(self) -> float:
        """Mean of the recorded observations."""
        if self.total_observations == 0:
            return 0.0
        return self.sum_values / self.total_observations

    def labels(self) -> list[str]:
        """Human-readable bin labels ('0-25', '25-50', ..., '475-500+')."""
        return [f"{i * self.bin_width}-{(i + 1) * self.bin_width}"
                + ("+" if i == self.n_bins - 1 else "")
                for i in range(self.n_bins)]

    def percentages(self) -> np.ndarray:
        """Percentage of observations falling into each bin."""
        if self.total_observations == 0:
            return np.zeros(self.n_bins)
        return self.counts / self.total_observations * 100.0

    def as_dict(self) -> dict[str, float]:
        """Bin label -> percentage mapping."""
        return dict(zip(self.labels(), self.percentages().tolist()))


class LevelTracker:
    """Time-weighted tracker of an integer level (e.g. in-flight requests)."""

    def __init__(self) -> None:
        self._level = 0
        self._last_time = 0.0
        self._area = 0.0

    def change(self, time: float, delta: int) -> None:
        """Apply a level change at the given time, which is never earlier
        than the last change's (the engine clock only moves forward)."""
        self._area += self._level * (time - self._last_time)
        self._last_time = time
        self._level += delta

    def average(self, end_time: float) -> float:
        """Time-weighted average level over [0, end_time]."""
        if end_time <= 0:
            return 0.0
        area = self._area + self._level * max(0.0, end_time - self._last_time)
        return area / end_time

    @property
    def current(self) -> int:
        return self._level
