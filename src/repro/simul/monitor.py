"""Instrumentation probes recorded in simulated time."""

from __future__ import annotations

import bisect
import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simul.core import Environment


class TimeSeries:
    """Append-only ``(time, value)`` samples, e.g. per-batch latencies."""

    def __init__(self, env: "Environment", name: str = "") -> None:
        self.env = env
        self.name = name
        self.times: list[float] = []
        self.values: list[float] = []

    def __len__(self) -> int:
        return len(self.times)

    def record(self, value: float) -> None:
        self.times.append(self.env.now)
        self.values.append(value)

    def window(self, start: float, end: float) -> "list[tuple[float, float]]":
        """Samples with ``start <= t < end``."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_left(self.times, end)
        return list(zip(self.times[lo:hi], self.values[lo:hi]))

    def values_after(self, start: float) -> list[float]:
        lo = bisect.bisect_left(self.times, start)
        return self.values[lo:]

    def last_before(self, time: float) -> float | None:
        """The most recent value recorded strictly before ``time``.

        Returns None when nothing was recorded yet — a scraper asking
        "what was this gauge at t" before the first sample.
        """
        index = bisect.bisect_left(self.times, time)
        return self.values[index - 1] if index else None

    def mean_between(self, start: float, end: float) -> float:
        """Arithmetic mean of samples with ``start <= t < end``.

        NaN when the window holds no samples (matching the empty-window
        convention of :class:`~repro.core.metrics.LatencyStats`).
        """
        if end <= start:
            raise ValueError(f"empty window [{start}, {end})")
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_left(self.times, end)
        if hi == lo:
            return float("nan")
        window = self.values[lo:hi]
        return sum(window) / len(window)
