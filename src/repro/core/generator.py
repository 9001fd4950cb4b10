"""Synthetic workload generation: rate schedules and batch factories.

The input producer (§3.1) generates tensor-like data of user-defined size
and shape at a constant rate or with periodic bursts (Table 1). Data
*content* is irrelevant to inference latency (§4.1), so the pipeline
carries batch descriptors (count and shape) and no arrays; the model
side is likewise shapes and FLOPs only (:mod:`repro.nn`).
"""

from __future__ import annotations

import dataclasses
import itertools
import typing

from repro.core.batch import CrayfishDataBatch
from repro.errors import ConfigError
from repro.tracing.spans import NO_TRACE


class RateSchedule:
    """Offered input rate (events/s) as a function of simulated time."""

    def rate_at(self, time: float) -> float:
        raise NotImplementedError


@dataclasses.dataclass(frozen=True)
class ConstantRate(RateSchedule):
    """The open/closed-loop schedules: a fixed ``ir``."""

    events_per_second: float

    def __post_init__(self) -> None:
        if self.events_per_second <= 0:
            raise ConfigError(f"rate must be positive, got {self.events_per_second}")

    def rate_at(self, time: float) -> float:
        return self.events_per_second


@dataclasses.dataclass(frozen=True)
class PeriodicBursts(RateSchedule):
    """§4.1's bursty schedule: ``high_rate`` for ``bd`` seconds out of
    every ``tbb + bd`` cycle, ``low_rate`` otherwise. The paper drives
    bursts at 110% of sustainable throughput and valleys at 70%."""

    low_rate: float
    high_rate: float
    burst_duration: float  # bd
    time_between_bursts: float  # tbb

    def __post_init__(self) -> None:
        if self.low_rate <= 0 or self.high_rate <= 0:
            raise ConfigError("burst rates must be positive")
        if self.burst_duration <= 0 or self.time_between_bursts <= 0:
            raise ConfigError("bd and tbb must be positive")

    @property
    def cycle(self) -> float:
        return self.time_between_bursts + self.burst_duration

    def in_burst(self, time: float) -> bool:
        return (time % self.cycle) >= self.time_between_bursts

    def rate_at(self, time: float) -> float:
        return self.high_rate if self.in_burst(time) else self.low_rate

    def burst_windows(self, horizon: float) -> list[tuple[float, float]]:
        """(start, end) of every burst beginning before ``horizon``."""
        windows = []
        start = self.time_between_bursts
        while start < horizon:
            windows.append((start, start + self.burst_duration))
            start += self.cycle
        return windows


@dataclasses.dataclass(frozen=True)
class TraceSchedule(RateSchedule):
    """Replay a recorded rate trace: piecewise-constant ``(time, rate)``
    steps, holding the last rate forever (and cycling if ``loop``).

    Lets Crayfish drive the SUT with production traffic shapes beyond
    the paper's constant/bursty generators.
    """

    steps: tuple[tuple[float, float], ...]
    loop: bool = False

    def __post_init__(self) -> None:
        if not self.steps:
            raise ConfigError("trace needs at least one (time, rate) step")
        times = [t for t, __ in self.steps]
        if times[0] != 0.0:
            raise ConfigError("trace must start at time 0")
        if times != sorted(times) or len(set(times)) != len(times):
            raise ConfigError("trace times must be strictly increasing")
        if any(rate <= 0 for __, rate in self.steps):
            raise ConfigError("trace rates must be positive")

    @property
    def span(self) -> float:
        return self.steps[-1][0]

    def rate_at(self, time: float) -> float:
        if self.loop and self.span > 0:
            time = time % self.span if time > self.span else time
        current = self.steps[0][1]
        for step_time, rate in self.steps:
            if step_time <= time:
                current = rate
            else:
                break
        return current


class BatchFactory:
    """Produces CrayfishDataBatch descriptors with consecutive ids.

    When a tracer is attached, the head-based sampling decision is taken
    here, at creation: sampled batches carry a trace context for every
    downstream component to attach spans to.
    """

    def __init__(
        self,
        points: int,
        point_shape: typing.Sequence[int],
        tracer: typing.Any = NO_TRACE,
    ) -> None:
        if points < 1:
            raise ConfigError(f"points must be >= 1, got {points}")
        self.points = points
        self.point_shape = tuple(int(d) for d in point_shape)
        if not self.point_shape or any(d < 1 for d in self.point_shape):
            raise ConfigError(f"invalid point shape {self.point_shape}")
        self.tracer = tracer
        self._ids = itertools.count()

    def make(self, created_at: float) -> CrayfishDataBatch:
        batch_id = next(self._ids)
        tracer = self.tracer
        return CrayfishDataBatch(
            batch_id=batch_id,
            created_at=created_at,
            points=self.points,
            point_shape=self.point_shape,
            trace=tracer.make_context(batch_id, created_at) if tracer.enabled else None,
        )
