"""Metrics collection (§3.3): end-to-end latency and throughput.

Latency per CrayfishDataBatch = ``end - start`` where *start* is the
producer-local creation time (recorded before the write to the input
topic) and *end* is the broker's LogAppendTime on the output topic.
Both timestamps are captured outside the SUT (SUT separation, §3.5).
"""

from __future__ import annotations

import dataclasses
import math
import typing

from repro.core.batch import CrayfishDataBatch
from repro.simul import Environment


@dataclasses.dataclass(frozen=True)
class LatencyStats:
    """Summary statistics over a latency sample (seconds)."""

    count: int
    mean: float
    std: float
    minimum: float
    p50: float
    p95: float
    p99: float
    p999: float
    maximum: float

    @classmethod
    def from_samples(cls, samples: typing.Sequence[float]) -> "LatencyStats":
        if not samples:
            nan = math.nan
            return cls(0, nan, nan, nan, nan, nan, nan, nan, nan)
        ordered = sorted(samples)
        n = len(ordered)
        mean = sum(ordered) / n
        variance = sum((x - mean) ** 2 for x in ordered) / n
        return cls(
            count=n,
            mean=mean,
            std=math.sqrt(variance),
            minimum=ordered[0],
            p50=percentile(ordered, 0.50),
            p95=percentile(ordered, 0.95),
            p99=percentile(ordered, 0.99),
            p999=percentile(ordered, 0.999),
            maximum=ordered[-1],
        )

    def to_dict(self) -> dict[str, float]:
        """Field-name -> value mapping (JSON-friendly; NaNs preserved)."""
        return dataclasses.asdict(self)


def percentile(ordered: typing.Sequence[float], q: float) -> float:
    """Linear-interpolation percentile of an already sorted sample.

    An empty sample yields NaN — the same convention as
    :meth:`LatencyStats.from_samples`, so empty measurement windows
    propagate as NaN statistics instead of raising mid-report.
    """
    if not ordered:
        return math.nan
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    # a + (b - a) * f is exact when a == b, so interpolated percentiles
    # can never exceed the sample maximum by a rounding ulp.
    return ordered[low] + (ordered[high] - ordered[low]) * fraction


# Built per record: slotted, not frozen (cheaper __init__); treat as immutable.
@dataclasses.dataclass(slots=True)
class Completion:
    """One observed batch completion."""

    batch_id: int
    created_at: float
    end_time: float

    @property
    def latency(self) -> float:
        return self.end_time - self.created_at


class MetricsCollector:
    """Receives completions from the pipeline and summarizes them.

    ``strict=True`` (the default) treats a repeated batch id as a bug —
    correct for failure-free runs. Fault-tolerance experiments set
    ``strict=False``: under at-least-once recovery replayed batches
    legitimately reach the sink twice, and the collector counts them as
    :attr:`duplicates` instead of raising.
    """

    def __init__(self, env: Environment, strict: bool = True) -> None:
        self.env = env
        self.strict = strict
        self.completions: list[Completion] = []
        self.duplicates = 0
        self._seen: set[int] = set()

    def on_complete(self, batch: CrayfishDataBatch, end_time: float) -> None:
        """Completion callback handed to the data processor."""
        if end_time < batch.created_at:
            raise ValueError(
                f"batch {batch.batch_id}: end {end_time} before start "
                f"{batch.created_at}"
            )
        if batch.batch_id in self._seen:
            if self.strict:
                raise ValueError(f"batch {batch.batch_id} completed twice")
            # A replayed batch is sink-duplicated work, not a second
            # completion: counting it in the stats would inflate
            # throughput and skew latency toward the replay tail.
            self.duplicates += 1
            return
        self._seen.add(batch.batch_id)
        self.completions.append(
            Completion(batch.batch_id, batch.created_at, end_time)
        )

    @property
    def count(self) -> int:
        return len(self.completions)

    def after(
        self, cutoff: float, end: float | None = None
    ) -> list[Completion]:
        """Completions whose *end* falls in ``[cutoff, end]`` (warm-up
        discard happens on the end timestamp, like the paper's discard of
        the first 25% of measurements). ``end=None`` leaves the window
        open on the right."""
        return [
            c
            for c in self.completions
            if c.end_time >= cutoff and (end is None or c.end_time <= end)
        ]

    def latency_stats(
        self, cutoff: float = 0.0, end: float | None = None
    ) -> LatencyStats:
        return LatencyStats.from_samples(
            [c.latency for c in self.after(cutoff, end)]
        )

    def throughput(self, start: float, end: float) -> float:
        """Completed events per second over the closed window
        ``[start, end]`` — the same window :meth:`latency_stats` uses, so
        both report over one population of completions."""
        if end <= start:
            raise ValueError(f"empty window [{start}, {end}]")
        completed = sum(1 for c in self.completions if start <= c.end_time <= end)
        return completed / (end - start)

    def latency_series(self, cutoff: float = 0.0) -> list[tuple[float, float]]:
        """(end_time, latency) pairs, for burst-recovery analysis."""
        return [(c.end_time, c.latency) for c in self.after(cutoff)]
