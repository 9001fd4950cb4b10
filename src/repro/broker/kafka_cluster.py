"""The broker-internal cluster: topics plus broker-side service costs.

The paper deploys 4 Kafka brokers and verifies they are never the
bottleneck (§3.5). Each partition is owned by one broker; appends and
fetches occupy that broker's service resource for a size-dependent time,
so a *mis*-configured cluster would show up as queueing — reproducing the
paper's bottleneck check.

In scale-out simulations (:mod:`repro.cluster`) a broker placement maps
each partition onto a simulated machine: clients then pay the network
link between *their* node and the partition owner's node, so colocated
hops stay local while cross-node hops pay rack/LAN cost. Without a
placement (the default), behaviour is byte-identical to the single-LAN
model of the paper.
"""

from __future__ import annotations

import typing

from repro import calibration as cal
from repro.broker.records import ConsumerRecord
from repro.broker.topic import Topic
from repro.errors import ConfigError, MessageTooLargeError, UnknownTopicError
from repro.metrics.registry import NO_METRICS
from repro.netsim import Link
from repro.simul import Environment, Event, Resource
from repro.tracing.spans import NO_TRACE


class _SpanNames:
    """The broker span names of one topic, built once when it is
    created, so a traced append formats no string."""

    __slots__ = ("send", "granted", "appended", "unavailable", "fetched")

    def __init__(self, topic: str) -> None:
        send = f"broker.send:{topic}"
        self.send = (send,)
        self.granted = (f"broker.append_wait:{topic}", f"broker.append:{topic}")
        self.appended = (send, *self.granted)
        self.unavailable = (f"broker.unavailable:{topic}",)
        self.fetched = (f"broker.dwell:{topic}", f"broker.fetch:{topic}")


class _Append:
    """One record on its way into a partition, stepped by kernel
    callbacks: outage gate -> send transfer -> broker append service
    (:meth:`~repro.simul.Resource.serve`) -> log append -> ``then``.

    A traced record's spans are written in few visits: each
    ``unavailable`` gate wait once it ends, then, from the traced hold at
    the grant, the ``append_wait`` and the ``append`` (ahead of the
    clock), with the ``send`` when a free broker grants as it ends.
    Behind a busy broker the ``send`` is written alone, at its end.
    """

    __slots__ = (
        "cluster", "route", "timestamp", "value", "nbytes", "then", "trace",
        "since", "sent",
    )

    def __init__(
        self,
        cluster: "BrokerCluster",
        route: tuple,
        timestamp: float,
        value: typing.Any,
        nbytes: float,
        then: typing.Callable[[ConsumerRecord], None],
    ) -> None:
        self.cluster = cluster
        self.route = route
        self.timestamp = timestamp
        self.value = value
        self.nbytes = nbytes
        self.then = then
        self.trace = getattr(value, "trace", None)
        #: When the current stage began, and when the send ended while
        #: its row is unwritten (traced records only).
        self.since = 0.0
        self.sent: float | None = None

    def admit(self, gate: Event | None = None) -> None:
        """Start the send, or park on the partition's outage gate: a
        partition with no leader accepts no write until the outage ends
        (librdkafka-style internal retries, collapsed into one wait)."""
        env = self.cluster.env
        if self.trace is not None:
            if gate is not None:
                self.cluster.tracer.stages(
                    self.trace, self.since, self.route[3].unavailable, (env.now,)
                )
            self.since = env.now
        gate = self.cluster._outages.get(self.route[4])
        if gate is not None:
            gate.callbacks.append(self.admit)
            return
        sent = env.service_timeout(self.route[2].transfer_time(self.nbytes))
        sent.callbacks.append(self._sent)

    def _sent(self, event: Event) -> None:
        broker = self.route[1]
        if self.trace is None:
            appended = broker.serve(self._service())
        else:
            self.sent = event.env.now
            appended = broker.serve(self._granted)
            if self.sent is not None:
                # Queued behind a busy broker: the send row closes now.
                self._write(self.route[3].send, (self.sent,))
                self.since, self.sent = self.sent, None
        appended.callbacks.append(self._appended)

    def _service(self) -> float:
        return cal.BROKER_APPEND_OVERHEAD + self.nbytes / cal.BROKER_IO_BANDWIDTH

    def _granted(self, now: float) -> float:
        """The traced hold: the wait for the broker ends at the grant, and
        the append is written ahead to its end (after the send, if a free
        broker granted as the send ended)."""
        hold = self._service()
        if self.sent is None:
            self._write(self.route[3].granted, (now, now + hold))
        else:
            self._write(self.route[3].appended, (self.sent, now, now + hold))
            self.sent = None
        return hold

    def _write(self, names: tuple[str, ...], ends: tuple[float, ...]) -> None:
        """One visit of the record's broker spans, from ``since``."""
        attrs = self.route[5]
        self.cluster.tracer.stages(
            self.trace, self.since, names, ends,
            None if attrs is None else dict.fromkeys(range(len(names)), attrs),
        )

    def _appended(self, event: Event) -> None:
        self.then(self.route[0].append(self.timestamp, self.value, self.nbytes))


class BrokerCluster:
    """A cluster of ``broker_count`` brokers sharing topic partitions."""

    def __init__(
        self,
        env: Environment,
        broker_count: int = cal.BROKER_COUNT,
        max_request_bytes: float = cal.BROKER_MAX_REQUEST_BYTES,
        link: Link | None = None,
        tracer: typing.Any = NO_TRACE,
        metrics: typing.Any = NO_METRICS,
        placement: typing.Any = None,
    ) -> None:
        """``placement`` (a :class:`repro.cluster.placement.PlacementPlan`)
        makes the cluster node-aware: one broker per cluster node, each
        partition owned by its placed node, and every data-path link
        resolved between the client's node and the owner's node. ``None``
        keeps the paper's single shared-LAN model."""
        if placement is not None:
            broker_count = placement.broker_count
        if broker_count < 1:
            raise ConfigError(f"need >= 1 broker, got {broker_count}")
        self.env = env
        self.broker_count = broker_count
        self.max_request_bytes = max_request_bytes
        self.link = link if link is not None else Link()
        self.placement = placement
        self.tracer = tracer
        self.metrics = metrics
        self._topics: dict[str, Topic] = {}
        self._span_names: dict[str, _SpanNames] = {}
        # (topic, partition, client node) -> its append path, see _route.
        self._routes: dict[tuple[str, int, str | None], tuple] = {}
        # Active partition outages: producers block on the gate event
        # until the partition's leadership is restored.
        self._outages: dict[tuple[str, int], Event] = {}
        # Consumers register themselves so group lag is observable.
        self._consumers: list[typing.Any] = []
        # One service unit per broker: appends/fetches to its partitions
        # queue here.
        self._brokers = [Resource(env, capacity=1) for __ in range(broker_count)]
        metrics.gauge(
            "broker_utilization",
            help="fraction of brokers busy serving an append or fetch",
            fn=lambda: sum(b.count for b in self._brokers) / self.broker_count,
        )
        metrics.gauge(
            "broker_service_queue",
            help="append/fetch requests waiting for a broker",
            fn=lambda: sum(len(b.queue) for b in self._brokers),
        )

    # -- admin ---------------------------------------------------------

    def create_topic(self, name: str, partitions: int) -> Topic:
        if name in self._topics:
            raise ConfigError(f"topic {name!r} already exists")
        topic = Topic(self.env, name, partitions)
        self._topics[name] = topic
        self._span_names[name] = _SpanNames(name)
        self.metrics.gauge(
            "broker_partition_depth",
            help="records appended across the topic's partitions",
            labels={"topic": name},
            fn=lambda t=topic: sum(
                t.partition(p).end_offset for p in range(t.partition_count)
            ),
        )
        return topic

    def register_consumer(self, consumer: typing.Any) -> None:
        """Track a consumer-group member so its topic's lag is scrapable."""
        self._consumers.append(consumer)
        self.metrics.gauge(
            "broker_consumer_lag",
            help="records appended but not yet consumed by the group",
            labels={"topic": consumer.topic},
            fn=lambda topic=consumer.topic: sum(
                c.lag() for c in self._consumers if c.topic == topic
            ),
        )

    def topic(self, name: str) -> Topic:
        try:
            return self._topics[name]
        except KeyError:
            raise UnknownTopicError(name) from None

    def broker_for(self, topic: str, partition: int) -> Resource:
        """The broker resource owning a partition (round-robin layout)."""
        __ = self.topic(topic)  # validate
        if self.placement is not None:
            return self._brokers[self.placement.broker_index(partition)]
        return self._brokers[partition % self.broker_count]

    def _link_for(self, partition: int, client_node: str | None) -> Link:
        """The network link one data-path hop pays.

        Placed clusters resolve the hop between the client's node and the
        partition owner's node (loopback when colocated); unplaced runs
        keep the single shared LAN link."""
        if self.placement is None:
            return self.link
        return self.placement.link_to_partition(client_node, partition)

    def _node_attrs(self, partition: int) -> dict | None:
        """Span attribution for the broker owning ``partition`` (None
        when unplaced, or untraced)."""
        if self.placement is None or not self.tracer.enabled:
            return None
        return {"node": self.placement.node_of_partition(partition)}

    def _route(self, topic: str, partition: int, client_node: str | None) -> tuple:
        """The append path one client takes to one partition, resolved on
        its first append (none of it changes during a run): the partition
        log, the owning broker, the link, the span names, the outage key
        and the node span attrs."""
        return (
            self.topic(topic).partition(partition),
            self.broker_for(topic, partition),
            self._link_for(partition, client_node),
            self._span_names[topic],
            (topic, partition),
            self._node_attrs(partition),
        )

    # -- data path -----------------------------------------------------

    def append(
        self,
        topic: str,
        partition: int,
        timestamp: float,
        value: typing.Any,
        nbytes: float,
        client_node: str | None = None,
        *,
        then: typing.Callable[[ConsumerRecord], None],
    ) -> None:
        """Write one record: network transfer, then the owning broker's
        append service. Kernel callbacks drive it, not a process, and
        ``then(record)`` gets the appended :class:`ConsumerRecord`; its
        ``log_append_time`` is the broker clock when the append
        completes (§3.3 step 5).
        """
        if nbytes > self.max_request_bytes:
            raise MessageTooLargeError(
                f"{nbytes:.0f} B exceeds max.request.size "
                f"{self.max_request_bytes:.0f} B"
            )
        key = (topic, partition, client_node)
        route = self._routes.get(key)
        if route is None:
            route = self._routes[key] = self._route(topic, partition, client_node)
        _Append(self, route, timestamp, value, nbytes, then).admit()

    def fetch(
        self,
        topic: str,
        partition: int,
        offset: int,
        max_records: int,
        client_node: str | None = None,
    ) -> typing.Generator:
        """Coroutine: broker fetch service + network transfer back.

        Returns the (possibly empty) list of records available now.
        """
        log = self.topic(topic).partition(partition)
        records = log.fetch(offset, max_records)
        fetch_start = self.env.now
        nbytes = sum(r.nbytes for r in records)
        yield self.broker_for(topic, partition).serve(
            cal.BROKER_FETCH_OVERHEAD + nbytes / cal.BROKER_IO_BANDWIDTH
        )
        if records:
            yield self.env.service_timeout(
                self._link_for(partition, client_node).transfer_time(nbytes)
            )
        self._trace_fetched(topic, records, fetch_start)
        return list(records)

    def fetch_many(
        self,
        topic: str,
        offsets: dict[int, int],
        max_records: int,
        data_transfer: bool = True,
        client_node: str | None = None,
    ) -> typing.Generator:
        """Coroutine: one fetch request spanning several partitions.

        Mirrors Kafka's batched fetch: a single request/response pays one
        fixed overhead plus size-proportional service and transfer costs.
        ``data_transfer=False`` fetches only offsets/metadata — Spark's
        driver plans micro-batches this way while executors pull the
        record data directly from the brokers in parallel.
        Returns ``(records, new_offsets)``.
        """
        topic_obj = self.topic(topic)
        fetch_start = self.env.now
        records: list[ConsumerRecord] = []
        new_offsets = dict(offsets)
        byte_budget = self.max_request_bytes  # Kafka's fetch.max.bytes
        for partition, offset in offsets.items():
            budget = max_records - len(records)
            if budget <= 0 or byte_budget <= 0:
                break
            chunk = topic_obj.partition(partition).fetch(offset, budget)
            taken = []
            for record in chunk:
                # Always make progress: accept at least one record even if
                # it alone exceeds the byte budget (Kafka does the same).
                if taken and record.nbytes > byte_budget:
                    break
                taken.append(record)
                byte_budget -= record.nbytes
            if taken:
                records.extend(taken)
                new_offsets[partition] = taken[-1].offset + 1
        # The fetch response is served by the broker owning the first
        # requested partition; size-based costs dominate anyway.
        first = next(iter(offsets))
        nbytes = sum(r.nbytes for r in records) if data_transfer else 0.0
        yield self.broker_for(topic, first).serve(
            cal.BROKER_FETCH_OVERHEAD + nbytes / cal.BROKER_IO_BANDWIDTH
        )
        if records and data_transfer:
            yield self.env.service_timeout(
                self._link_for(first, client_node).transfer_time(nbytes)
            )
        self._trace_fetched(topic, records, fetch_start)
        return records, new_offsets

    def _trace_fetched(
        self,
        topic: str,
        records: typing.Sequence[ConsumerRecord],
        fetch_start: float,
    ) -> None:
        """Attribute topic dwell and fetch time to each sampled record.

        *Dwell* runs from the record's LogAppendTime to the moment the
        consumer's fetch found it — the backlog wait when the SUT cannot
        keep up. *Fetch* covers broker service + transfer back.
        """
        if not self.tracer.enabled:
            return
        names = self._span_names[topic].fetched
        ends = (fetch_start, self.env.now)
        for record in records:
            trace = getattr(record.value, "trace", None)
            if trace is not None:
                self.tracer.stages(trace, record.log_append_time, names, ends)

    def wait_for_data(self, topic: str, partition: int, offset: int):
        """Event firing once the partition has records past ``offset``."""
        return self.topic(topic).partition(partition).data_available(offset)

    def cancel_wait(self, topic: str, partition: int, event) -> None:
        """Deregister a stale :meth:`wait_for_data` event (an ``any_of``
        loser) so partitions that never grow don't leak waiters."""
        self.topic(topic).partition(partition).cancel_wait(event)

    def fetchable(self, topic: str, partition: int, offset: int) -> bool:
        """Would a fetch at ``offset`` return records right now?"""
        return self.topic(topic).partition(partition).fetchable_past(offset)

    # -- fault injection -----------------------------------------------

    def begin_partition_outage(
        self, topic: str, partitions: typing.Sequence[int]
    ) -> None:
        """Take the partitions offline: appends park on a gate event and
        fetches return nothing until :meth:`end_partition_outage`."""
        for partition in partitions:
            self.topic(topic).partition(partition).block()
            key = (topic, partition)
            if key not in self._outages:
                self._outages[key] = Event(self.env)

    def end_partition_outage(
        self, topic: str, partitions: typing.Sequence[int]
    ) -> None:
        """Restore leadership: wake parked producers and consumers."""
        for partition in partitions:
            self.topic(topic).partition(partition).unblock()
            gate = self._outages.pop((topic, partition), None)
            if gate is not None and not gate.triggered:
                gate.succeed()
