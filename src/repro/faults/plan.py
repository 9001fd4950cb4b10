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

from repro.errors import ConfigError

#: Logical topic roles a partition outage can target; the runner maps
#: them onto the concrete topic names it created.
TOPIC_ROLES = ("input", "output")

#: Degradation policies once retries are exhausted (or disabled).
DEGRADATION_MODES = ("shed", "fallback", "raise")


@dataclasses.dataclass(frozen=True)
class ServerCrash:
    """The external serving process dies and later restarts.

    In-flight requests fail immediately. With ``drop_queue`` the server's
    ingress queue is lost too (a process crash); without it the queue
    survives and drains after restart (a container restart behind a
    persistent service queue). After ``downtime`` the server restarts and
    reloads its model (the reload is charged on top of the downtime).
    """

    at: float
    downtime: float = 0.5
    drop_queue: bool = True

    def __post_init__(self) -> None:
        if self.at <= 0:
            raise ConfigError(f"fault time must be positive, got {self.at}")
        if self.downtime < 0:
            raise ConfigError(f"downtime must be non-negative, got {self.downtime}")


@dataclasses.dataclass(frozen=True)
class PartitionOutage:
    """Broker partitions become unavailable for a window.

    Appends to the affected partitions block until the outage ends
    (leader election restores the partition); fetches return nothing.
    ``topic`` is a logical role ("input" or "output"), resolved to the
    concrete topic name by the runner.
    """

    at: float
    duration: float
    topic: str = "input"
    partitions: tuple[int, ...] = (0,)

    def __post_init__(self) -> None:
        object.__setattr__(self, "partitions", tuple(self.partitions))
        if self.at <= 0:
            raise ConfigError(f"fault time must be positive, got {self.at}")
        if self.duration <= 0:
            raise ConfigError(f"outage duration must be positive, got {self.duration}")
        if self.topic not in TOPIC_ROLES:
            raise ConfigError(
                f"outage topic must be one of {TOPIC_ROLES}, got {self.topic!r}"
            )
        if not self.partitions or any(p < 0 for p in self.partitions):
            raise ConfigError("partitions must be a non-empty tuple of indices >= 0")


@dataclasses.dataclass(frozen=True)
class NetworkDegradation:
    """The SPS <-> serving link degrades for a window.

    ``extra_latency`` is added to each one-way transfer of the RPC
    channel; ``error_rate`` is the probability a request is dropped
    (connection reset) after its transfer — rolled from a seeded stream.
    """

    at: float
    duration: float
    extra_latency: float = 0.0
    error_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.at <= 0:
            raise ConfigError(f"fault time must be positive, got {self.at}")
        if self.duration <= 0:
            raise ConfigError(f"degradation duration must be positive, got {self.duration}")
        if self.extra_latency < 0:
            raise ConfigError("extra_latency must be non-negative")
        if not 0.0 <= self.error_rate <= 1.0:
            raise ConfigError(f"error_rate must be in [0, 1], got {self.error_rate}")
        if self.extra_latency == 0.0 and self.error_rate == 0.0:
            raise ConfigError("degradation must add latency or errors (or both)")


@dataclasses.dataclass(frozen=True)
class StragglerReplica:
    """One serving worker slows down for a window (a noisy neighbour).

    Inference on the live worker ``worker`` (by spawn order, modulo the
    pool's size when the window opens) takes ``slowdown`` times longer
    while the window is open; requests on that worker straggle but do not
    fail.
    """

    at: float
    duration: float
    slowdown: float = 4.0
    worker: int = 0

    def __post_init__(self) -> None:
        if self.at <= 0:
            raise ConfigError(f"fault time must be positive, got {self.at}")
        if self.duration <= 0:
            raise ConfigError(f"straggler duration must be positive, got {self.duration}")
        if self.slowdown < 1.0:
            raise ConfigError(f"slowdown must be >= 1, got {self.slowdown}")
        if self.worker < 0:
            raise ConfigError(f"worker index must be >= 0, got {self.worker}")


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """Every fault injected into one run, scheduled in simulated time."""

    server_crashes: tuple[ServerCrash, ...] = ()
    partition_outages: tuple[PartitionOutage, ...] = ()
    network_degradations: tuple[NetworkDegradation, ...] = ()
    stragglers: tuple[StragglerReplica, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "server_crashes", tuple(self.server_crashes))
        object.__setattr__(self, "partition_outages", tuple(self.partition_outages))
        object.__setattr__(
            self, "network_degradations", tuple(self.network_degradations)
        )
        object.__setattr__(self, "stragglers", tuple(self.stragglers))

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


@dataclasses.dataclass(frozen=True)
class ResiliencePolicy:
    """Client-side resilience wrapped around external scoring calls.

    The defaults are deliberately inert: no timeout, no retries, shed on
    failure. A policy only changes behaviour when a fault actually fails
    a request — fault-free runs under any policy are byte-identical to
    unwrapped runs.
    """

    #: Client-side deadline per attempt (seconds); None never times out.
    timeout: float | None = None
    #: Retries after the first failed attempt (0 = fail straight to the
    #: degradation mode).
    retries: int = 0
    #: First backoff delay; doubles (``backoff_factor``) per retry up to
    #: ``backoff_max``.
    backoff_base: float = 0.02
    backoff_factor: float = 2.0
    backoff_max: float = 1.0
    #: Relative jitter on each backoff delay, drawn from the seeded
    #: "resilience.jitter" stream; 0 disables the draw entirely.
    jitter: float = 0.1
    #: Consecutive failures that open the circuit breaker; None disables
    #: the breaker.
    breaker_threshold: int | None = None
    #: Seconds an open breaker waits before letting one half-open probe
    #: through.
    breaker_reset: float = 0.5
    #: What to do when retries are exhausted (or the breaker is open):
    #: "shed" drops the batch, "fallback" scores on an embedded library,
    #: "raise" propagates (kills the scoring task — for experiments).
    on_exhausted: str = "shed"
    #: Embedded serving tool used by the "fallback" mode.
    fallback: str | None = None

    def __post_init__(self) -> None:
        if self.timeout is not None and self.timeout <= 0:
            raise ConfigError(f"timeout must be positive, got {self.timeout}")
        if self.retries < 0:
            raise ConfigError(f"retries must be >= 0, got {self.retries}")
        if self.backoff_base <= 0 or self.backoff_max <= 0:
            raise ConfigError("backoff_base and backoff_max must be positive")
        if self.backoff_factor < 1.0:
            raise ConfigError(f"backoff_factor must be >= 1, got {self.backoff_factor}")
        if not 0.0 <= self.jitter < 1.0:
            raise ConfigError(f"jitter must be in [0, 1), got {self.jitter}")
        if self.breaker_threshold is not None and self.breaker_threshold < 1:
            raise ConfigError("breaker_threshold must be >= 1")
        if self.breaker_reset <= 0:
            raise ConfigError("breaker_reset must be positive")
        if self.on_exhausted not in DEGRADATION_MODES:
            raise ConfigError(
                f"on_exhausted must be one of {DEGRADATION_MODES}, "
                f"got {self.on_exhausted!r}"
            )
        if self.on_exhausted == "fallback" and self.fallback is None:
            raise ConfigError("on_exhausted='fallback' needs a fallback tool name")
        if self.fallback is not None and self.on_exhausted != "fallback":
            raise ConfigError("fallback is only used with on_exhausted='fallback'")
