"""Deterministic fault injectors driven by a :class:`FaultPlan`.

One simulation process per scheduled fault: it sleeps until the fault's
start time, flips the targeted component into its failure mode, sleeps
through the fault window, and restores the component. All timing comes
from the plan and all randomness from named seeded streams, so chaos
runs replay exactly under the same seed.
"""

from __future__ import annotations

import typing

from repro.errors import ConfigError
from repro.faults.plan import (
    FaultPlan,
    NetworkDegradation,
    PartitionOutage,
    ServerCrash,
    StragglerReplica,
)
from repro.metrics.registry import NO_METRICS
from repro.simul import Environment

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simul import RandomStreams

FAULT_KINDS = (
    "server_crash",
    "partition_outage",
    "network_degradation",
    "straggler",
)


class FaultInjector:
    """Schedules every fault in a plan against the assembled system.

    ``cluster`` is the broker cluster (None in standalone mode),
    ``server`` the raw external serving service (None for embedded
    serving), and ``topics`` maps the plan's logical topic roles
    ("input"/"output") to concrete topic names.
    """

    def __init__(
        self,
        env: Environment,
        plan: FaultPlan,
        cluster: typing.Any = None,
        server: typing.Any = None,
        topics: dict[str, str] | None = None,
        rng: "RandomStreams | None" = None,
        metrics: typing.Any = NO_METRICS,
    ) -> None:
        if plan.partition_outages and cluster is None:
            raise ConfigError("partition outages need a broker cluster")
        if plan.touches_serving and server is None:
            raise ConfigError(
                "server/network/straggler faults need an external serving service"
            )
        if any(d.error_rate > 0 for d in plan.network_degradations) and rng is None:
            raise ConfigError("network error injection needs seeded random streams")
        self.env = env
        self.plan = plan
        self.cluster = cluster
        self.server = server
        self.topics = topics or {}
        self.rng = rng
        self.counts: dict[str, int] = {kind: 0 for kind in FAULT_KINDS}
        for kind in FAULT_KINDS:
            metrics.counter(
                "faults_injected",
                help="faults the chaos plan has injected so far",
                labels={"kind": kind},
                fn=lambda k=kind: self.counts[k],
            )

    def start(self) -> None:
        """Spawn one injector process per scheduled fault."""
        for crash in self.plan.server_crashes:
            self.env.process(self._server_crash(crash))
        for outage in self.plan.partition_outages:
            self.env.process(self._partition_outage(outage))
        for degradation in self.plan.network_degradations:
            self.env.process(self._network_degradation(degradation))
        for straggler in self.plan.stragglers:
            self.env.process(self._straggler(straggler))

    # -- fault bodies -----------------------------------------------------

    def _server_crash(self, spec: ServerCrash) -> typing.Generator:
        yield self.env.timeout(spec.at)
        self.counts["server_crash"] += 1
        self.server.crash(drop_queue=spec.drop_queue)
        yield self.env.timeout(spec.downtime)
        # Restart reloads the model on top of the configured downtime.
        yield from self.server.restart()

    def _partition_outage(self, spec: PartitionOutage) -> typing.Generator:
        topic = self.topics.get(spec.topic, spec.topic)
        yield self.env.timeout(spec.at)
        self.counts["partition_outage"] += 1
        self.cluster.begin_partition_outage(topic, spec.partitions)
        yield self.env.timeout(spec.duration)
        self.cluster.end_partition_outage(topic, spec.partitions)

    def _network_degradation(self, spec: NetworkDegradation) -> typing.Generator:
        yield self.env.timeout(spec.at)
        self.counts["network_degradation"] += 1
        stream = (
            self.rng.stream("faults.network") if self.rng is not None else None
        )
        self.server.channel.impair(
            extra_latency=spec.extra_latency,
            error_rate=spec.error_rate,
            rng=stream,
        )
        yield self.env.timeout(spec.duration)
        self.server.channel.clear_impairment()

    def _straggler(self, spec: StragglerReplica) -> typing.Generator:
        yield self.env.timeout(spec.at)
        self.counts["straggler"] += 1
        worker = self.server.set_straggler(spec.worker, spec.slowdown)
        yield self.env.timeout(spec.duration)
        self.server.clear_straggler(worker)
