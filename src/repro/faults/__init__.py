"""Fault injection and client resilience (chaos engineering, §7.2).

This package makes failure a first-class experiment axis: a seeded,
deterministic :class:`FaultPlan` schedules server crashes, broker
partition outages, network degradation, and straggler replicas, while a
:class:`ResiliencePolicy` arms the client side with timeouts, backoff
retries, circuit breaking, and graceful degradation, and
:class:`~repro.faults.recovery.EngineRecovery` checkpoints any engine
and replays it after injected crashes. Everything is off by default;
faults-off runs are byte-identical to builds without this package.

Only pure-configuration types are re-exported here so that
:mod:`repro.config` can import them while staying a leaf module. The
runtime machinery lives in :mod:`repro.faults.injectors`,
:mod:`repro.faults.resilience`, :mod:`repro.faults.recovery`, and
:mod:`repro.faults.report`.
"""

from repro.faults.plan import (
    FaultPlan,
    NetworkDegradation,
    PartitionOutage,
    ResiliencePolicy,
    ServerCrash,
    StragglerReplica,
)
from repro.faults.summary import FaultSummary

__all__ = [
    "FaultPlan",
    "ServerCrash",
    "PartitionOutage",
    "NetworkDegradation",
    "StragglerReplica",
    "ResiliencePolicy",
    "FaultSummary",
]
