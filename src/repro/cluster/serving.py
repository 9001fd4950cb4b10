"""Load-balanced external-serving fleets for scale-out simulations.

A :class:`LoadBalancedFleet` puts ``replicas_per_node × nodes`` external
serving replicas behind one simulated L4 load balancer: SPS scoring
tasks call the fleet like any :class:`~repro.serving.base.ServingTool`,
the balancer forwards each request round-robin to a replica, and each
hop pays its link — client → balancer over the cluster's typical
internal hop, balancer → replica over the link between the balancer's
node and the replica's node (baked into the replica's RPC channel by the
factory). Replica choice is a plain deterministic counter, so dual runs
stay byte-identical.

The balancer adds forwarding latency but is deliberately *not* a
serialized chokepoint (contrast Ray Serve's single HTTP proxy, Fig. 11):
capacity should scale with replicas so the sustainable-capacity search
can observe scale-out.
"""

from __future__ import annotations

import typing

from repro.errors import ConfigError
from repro.serving.base import ServingTool
from repro.serving.external.server import ExternalServingService
from repro.simul import Environment
from repro.tracing.spans import OPEN, chained_stages

#: Per-request forwarding cost of the simulated L4 balancer (connection
#: tracking + NAT rewrite; no payload inspection).
LB_FORWARD_COST = 0.00003  # 30 µs


class LoadBalancedFleet(ServingTool):
    """External serving replicas behind one load balancer."""

    kind = "external"

    def __init__(
        self,
        env: Environment,
        replicas: typing.Sequence[ExternalServingService],
        replica_nodes: typing.Sequence[str],
        lb_node: str,
        ingress_channel: typing.Any,
    ) -> None:
        if not replicas:
            raise ConfigError("a serving fleet needs at least one replica")
        if len(replicas) != len(replica_nodes):
            raise ConfigError(
                f"{len(replicas)} replicas but {len(replica_nodes)} nodes"
            )
        # Set before super().__init__: the tracer property below touches
        # _replicas and the base constructor assigns tracer/metrics.
        self._replicas = tuple(replicas)
        self.replica_nodes = tuple(replica_nodes)
        self.lb_node = lb_node
        #: Same channel class as the replicas but carrying the client →
        #: balancer link; only its transfer costs are used (the replica
        #: call charges the client CPU exactly once).
        self.ingress_channel = ingress_channel
        super().__init__(env, replicas[0].costs)
        self._next_replica = 0

    # -- tracer propagation ----------------------------------------------

    @property
    def tracer(self) -> typing.Any:
        return self._tracer

    @tracer.setter
    def tracer(self, value: typing.Any) -> None:
        # The runner installs the tracer by attribute assignment; fan it
        # out so replica-internal spans (queueing, inference) attach too.
        self._tracer = value
        for replica in self._replicas:
            replica.tracer = value

    # -- aggregate views -------------------------------------------------

    @property
    def replicas(self) -> tuple[ExternalServingService, ...]:
        return self._replicas

    @property
    def replica_count(self) -> int:
        return len(self._replicas)

    def node_requests(self, node: str) -> int:
        """Requests served by replicas placed on ``node``."""
        return sum(
            replica.requests_served
            for replica, name in zip(self._replicas, self.replica_nodes)
            if name == node
        )

    def _register_metrics(self, registry: typing.Any) -> None:
        registry.gauge(
            "serving_fleet_replicas",
            help="external serving replicas behind the load balancer",
            fn=lambda: self.replica_count,
        )
        for node in dict.fromkeys(self.replica_nodes):
            registry.counter(
                "serving_node_requests",
                help="scoring calls served by replicas on this node",
                labels={"node": node},
                fn=lambda n=node: self.node_requests(n),
            )
            registry.gauge(
                "serving_node_queue_depth",
                help="requests queued at this node's replicas",
                labels={"node": node},
                fn=lambda n=node: sum(
                    replica.backlog
                    for replica, name in zip(self._replicas, self.replica_nodes)
                    if name == n
                ),
            )

    # -- ServingTool interface -------------------------------------------

    def load(self) -> typing.Generator:
        """Bring every replica up concurrently (real fleets roll out in
        parallel); warm-up ends when the slowest replica is ready."""
        processes = [
            self.env.process(replica.load()) for replica in self._replicas
        ]
        yield self.env.all_of(processes)
        self._loaded = True

    def _pick_replica(self) -> int:
        index = self._next_replica
        self._next_replica = (index + 1) % len(self._replicas)
        return index

    def score(
        self, bsz: int, vectorized: bool = False, ctx: typing.Any = None
    ) -> typing.Generator:
        self._require_loaded()
        start = self.env.now
        model = self.costs.model
        ingress = self.ingress_channel.round_trip_costs(
            request_values=bsz * model.input_values,
            response_values=bsz * model.output_values,
        )
        # Client → balancer transfer (client CPU is charged inside the
        # replica call, exactly once).
        trace = getattr(ctx, "trace", None)
        balancer = None if trace is None else {"node": self.lb_node}
        yield from chained_stages(
            self.env, self.tracer, trace, "lb.ingress",
            ingress.request_transfer + LB_FORWARD_COST,
            closed=True, attrs=balancer,
        )
        index = self._pick_replica()
        span = None
        if trace is not None:
            attrs = {0: {"node": self.replica_nodes[index], "replica": index}}
            span = self.tracer.stages(
                trace, self.env.now, ("lb.forward",), (OPEN,), attrs
            )
        result = yield from self._replicas[index].score(
            bsz, vectorized=vectorized, ctx=ctx
        )
        if span is not None:
            self.tracer.end(span)
        # Balancer → client response transfer.
        yield from chained_stages(
            self.env, self.tracer, trace, "lb.egress", ingress.response_transfer,
            closed=True, attrs=balancer,
        )
        self.requests_served += 1
        return type(result)(
            points=result.points,
            output_values=result.output_values,
            service_time=self.env.now - start,
        )
