"""Ray (§3.4.4): an actor pipeline standing in for a dataflow graph.

``mp`` input actors, ``mp`` scoring actors, and ``mp`` output actors are
chained one-to-one (§4.3). Every message delivery pays Python actor
overhead (mailbox, scheduling, GIL), and all scoring-stage deliveries
additionally cross the node's serialized scheduler — the mechanism behind
Ray's low per-event throughput (Table 5: 157 ev/s) and its ~1.2k ev/s
plateau when scaling up (Fig. 11). Being Python-native, Ray needs no
interoperability library for embedded scoring; latency at low rates is
competitive with the JVM engines (Fig. 10).
"""

from __future__ import annotations

import typing

from repro import calibration as cal
from repro.sps.api import DataProcessor
from repro.sps.gateways import InputEvent
from repro.simul import Resource, Store
from repro.tracing.spans import OPEN, chained_stages

#: Actor mailbox capacity: puts block when a downstream actor lags.
MAILBOX_CAPACITY = 16


class RayProcessor(DataProcessor):
    """The Ray data-processor adapter (actor pipeline)."""

    name = "ray"
    profile = cal.RAY_PROFILE

    def _spawn_tasks(self) -> None:
        # One serialized scheduler *per cluster node*: actors placed on
        # the same node contend for it, actors on other nodes do not.
        # Single-node runs (no placement on the input gateway) collapse
        # to one shared resource, the original Fig. 11 bottleneck.
        node_of = getattr(self.input, "node_of_member", None)
        self._node_scheds: dict[object, Resource] = {}
        self._mailboxes: dict[str, list[Store]] = {"score": [], "output": []}
        for stage in self._mailboxes:
            self.metrics.gauge(
                "ray_mailbox_depth",
                help="messages queued in the stage's actor mailboxes",
                labels={"stage": stage},
                # Late-bound through self so the gauge follows the fresh
                # mailboxes created when the engine restarts.
                fn=lambda s=stage: sum(
                    box.level for box in self._mailboxes[s]
                ),
            )
        self.metrics.gauge(
            "ray_scheduler_queue",
            help="deliveries waiting on the serialized node schedulers",
            fn=lambda: sum(
                len(sched.queue) for sched in self._node_scheds.values()
            ),
        )
        for lane in range(self.mp):
            node = node_of(lane) if node_of is not None else None
            sched = self._node_scheds.get(node)
            if sched is None:
                sched = self._node_scheds[node] = Resource(self.env, capacity=1)
            score_box: Store = Store(self.env, capacity=MAILBOX_CAPACITY)
            out_box: Store = Store(self.env, capacity=MAILBOX_CAPACITY)
            self._mailboxes["score"].append(score_box)
            self._mailboxes["output"].append(out_box)
            self._spawn(self._input_actor(lane, self.mp, score_box))
            self._spawn(self._scoring_actor(score_box, out_box, sched))
            self._spawn(self._output_actor(out_box))

    def _input_actor(self, member: int, members: int, downstream: Store) -> typing.Generator:
        source = self._new_source(member, members)
        while True:
            events = yield from source.poll()
            polled_at = self.env.now
            for event in events:
                yield from chained_stages(
                    self.env,
                    self.tracer,
                    event.batch,
                    "ray.input_actor",
                    cal.RAY_ACTOR_OVERHEAD
                    + self.profile.source_overhead
                    + self.decode_cost(event.batch),
                    since=("ray.task_queue", polled_at),
                    closed=True,
                )
                yield from self._send(event, downstream)

    def _send(self, event: InputEvent, mailbox: Store) -> typing.Generator:
        """Put the event into an actor's mailbox (blocks while it is
        full), stamped with the enqueue time for the receiver's dwell
        span."""
        now = self.env.now
        span = None
        if event.batch.trace is not None:
            span = self.tracer.stages(
                event.batch.trace, now, ("ray.mailbox_wait",), (OPEN,)
            )
        yield mailbox.put((event, now))
        if span is not None:
            self.tracer.end(span)

    def _scoring_actor(
        self, upstream: Store, downstream: Store, node_sched: Resource
    ) -> typing.Generator:
        env = self.env
        while True:
            event, enqueued = yield upstream.get()
            trace = event.batch.trace
            yield from chained_stages(
                env,
                self.tracer,
                event.batch,
                "ray.scoring_actor",
                cal.RAY_ACTOR_OVERHEAD + self.profile.score_overhead,
                since=("ray.mailbox_dwell", enqueued),
                closed=True,
            )
            # Delivery into the scoring stage crosses the node scheduler.
            waited = env.now
            with node_sched.request() as slot:
                yield slot
                yield from chained_stages(
                    env,
                    self.tracer,
                    event.batch,
                    "ray.scheduler",
                    cal.RAY_NODE_PER_MESSAGE,
                    since=("ray.scheduler_wait", waited),
                    closed=True,
                )
            span = None
            if trace is not None:
                span = self.tracer.stages(trace, env.now, ("ray.score",), (OPEN,))
            result = yield from self.tool.score(event.batch.points, ctx=event.batch)
            if span is not None:
                self.tracer.end(span)
            if result is None:  # shed by the resilience layer
                self.batches_shed += 1
                continue
            yield from self._send(event, downstream)

    def _output_actor(self, upstream: Store) -> typing.Generator:
        while True:
            event, enqueued = yield upstream.get()
            batch = event.batch
            yield from chained_stages(
                self.env,
                self.tracer,
                batch,
                "ray.output_actor",
                cal.RAY_ACTOR_OVERHEAD
                + self.profile.sink_overhead
                + self.encode_cost(batch),
                since=("ray.mailbox_dwell", enqueued),
                closed=True,
            )
            self.emit_and_complete(batch)
