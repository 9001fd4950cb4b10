"""Fault plans and resilience policies: the *configuration* of chaos.

Everything in this module is a frozen dataclass with no simulation
dependencies, so :mod:`repro.config` can embed these values while staying
a leaf module. The machinery that executes a plan lives in
:mod:`repro.faults.injectors` / :mod:`repro.faults.resilience`.

All injected faults are scheduled at fixed simulated times from the
experiment's :class:`FaultPlan`, and any randomness (retry jitter,
network error rolls) draws from named seeded streams — so a chaos run is
exactly as reproducible as a fault-free one.
"""

from __future__ import annotations

import dataclasses

from repro import knobs
from repro.errors import ConfigError
from repro.knobs import Domain, knob

#: Logical topic roles a partition outage can target; the runner maps
#: them onto the concrete topic names it created.
TOPIC_ROLES = ("input", "output")

#: Degradation policies once retries are exhausted (or disabled).
DEGRADATION_MODES = ("shed", "fallback", "raise")


@knobs.declared
@dataclasses.dataclass(frozen=True)
class ServerCrash:
    """The external serving process dies and later restarts.

    In-flight requests fail immediately. With ``drop_queue`` the server's
    ingress queue is lost too (a process crash); without it the queue
    survives and drains after restart (a container restart behind a
    persistent service queue). After ``downtime`` the server restarts and
    reloads its model (the reload is charged on top of the downtime).
    """

    at: float = knob(gt=0)
    downtime: float = knob(0.5, ge=0)
    drop_queue: bool = True

    __post_init__ = knobs.check


@knobs.declared
@dataclasses.dataclass(frozen=True)
class PartitionOutage:
    """Broker partitions become unavailable for a window.

    Appends to the affected partitions block until the outage ends
    (leader election restores the partition); fetches return nothing.
    ``topic`` is a logical role ("input" or "output"), resolved to the
    concrete topic name by the runner.
    """

    at: float = knob(gt=0)
    duration: float = knob(gt=0)
    topic: str = knob("input", choices=TOPIC_ROLES)
    partitions: tuple[int, ...] = knob((0,), items=Domain(ge=0))

    def __post_init__(self) -> None:
        knobs.check(self)
        if not self.partitions:
            raise ConfigError("partitions must be a non-empty tuple of indices >= 0")


@knobs.declared
@dataclasses.dataclass(frozen=True)
class NetworkDegradation:
    """The SPS <-> serving link degrades for a window.

    ``extra_latency`` is added to each one-way transfer of the RPC
    channel; ``error_rate`` is the probability a request is dropped
    (connection reset) after its transfer — rolled from a seeded stream.
    """

    at: float = knob(gt=0)
    duration: float = knob(gt=0)
    extra_latency: float = knob(0.0, ge=0)
    error_rate: float = knob(0.0, ge=0, le=1)

    def __post_init__(self) -> None:
        knobs.check(self)
        if self.extra_latency == 0.0 and self.error_rate == 0.0:
            raise ConfigError("degradation must add latency or errors (or both)")


@knobs.declared
@dataclasses.dataclass(frozen=True)
class StragglerReplica:
    """One serving worker slows down for a window (a noisy neighbour).

    Inference on the live worker ``worker`` (by spawn order, modulo the
    pool's size when the window opens) takes ``slowdown`` times longer
    while the window is open; requests on that worker straggle but do not
    fail.
    """

    at: float = knob(gt=0)
    duration: float = knob(gt=0)
    slowdown: float = knob(4.0, ge=1)
    worker: int = knob(0, ge=0)

    __post_init__ = knobs.check


@knobs.declared
@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """Every fault injected into one run, scheduled in simulated time."""

    server_crashes: tuple[ServerCrash, ...] = ()
    partition_outages: tuple[PartitionOutage, ...] = ()
    network_degradations: tuple[NetworkDegradation, ...] = ()
    stragglers: tuple[StragglerReplica, ...] = ()

    __post_init__ = knobs.check

    @property
    def empty(self) -> bool:
        return not (
            self.server_crashes
            or self.partition_outages
            or self.network_degradations
            or self.stragglers
        )

    @property
    def touches_serving(self) -> bool:
        """True when any fault targets the external serving path."""
        return bool(
            self.server_crashes or self.network_degradations or self.stragglers
        )

    @property
    def can_fail_requests(self) -> bool:
        """True when a scoring call may raise a TransientError — the runner
        installs a default shed policy then, so an unhandled fault never
        crashes an engine task."""
        return bool(self.server_crashes) or any(
            d.error_rate > 0 for d in self.network_degradations
        )

    def windows(self) -> list[tuple[float, float]]:
        """(start, end) of every fault window, for recovery analysis."""
        spans: list[tuple[float, float]] = []
        for crash in self.server_crashes:
            spans.append((crash.at, crash.at + crash.downtime))
        for outage in self.partition_outages:
            spans.append((outage.at, outage.at + outage.duration))
        for degradation in self.network_degradations:
            spans.append((degradation.at, degradation.at + degradation.duration))
        for straggler in self.stragglers:
            spans.append((straggler.at, straggler.at + straggler.duration))
        return sorted(spans)


@knobs.declared
@dataclasses.dataclass(frozen=True)
class ResiliencePolicy:
    """Client-side resilience wrapped around external scoring calls.

    The defaults are deliberately inert: no timeout, no retries, shed on
    failure. A policy only changes behaviour when a fault actually fails
    a request — fault-free runs under any policy are byte-identical to
    unwrapped runs.
    """

    #: Client-side deadline per attempt (seconds); None never times out.
    timeout: float | None = knob(None, gt=0)
    #: Retries after the first failed attempt (0 = fail straight to the
    #: degradation mode).
    retries: int = knob(0, ge=0)
    #: First backoff delay; doubles (``backoff_factor``) per retry up to
    #: ``backoff_max``.
    backoff_base: float = knob(0.02, gt=0)
    backoff_factor: float = knob(2.0, ge=1)
    backoff_max: float = knob(1.0, gt=0)
    #: Relative jitter on each backoff delay, drawn from the seeded
    #: "resilience.jitter" stream; 0 disables the draw entirely.
    jitter: float = knob(0.1, ge=0, lt=1)
    #: Consecutive failures that open the circuit breaker; None disables
    #: the breaker.
    breaker_threshold: int | None = knob(None, ge=1)
    #: Seconds an open breaker waits before letting one half-open probe
    #: through.
    breaker_reset: float = knob(0.5, gt=0)
    #: What to do when retries are exhausted (or the breaker is open):
    #: "shed" drops the batch, "fallback" scores on an embedded library,
    #: "raise" propagates (kills the scoring task — for experiments).
    on_exhausted: str = knob("shed", choices=DEGRADATION_MODES)
    #: Embedded serving tool used by the "fallback" mode.
    fallback: str | None = None

    def __post_init__(self) -> None:
        knobs.check(self)
        if self.on_exhausted == "fallback" and self.fallback is None:
            raise ConfigError("on_exhausted='fallback' needs a fallback tool name")
        if self.fallback is not None and self.on_exhausted != "fallback":
            raise ConfigError("fallback is only used with on_exhausted='fallback'")
