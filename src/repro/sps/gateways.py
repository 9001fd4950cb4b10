"""Input/output gateways: how engines reach the outside world.

Crayfish's default pipeline flows through Kafka (:class:`BrokerInput` /
:class:`BrokerOutput`). The standalone variant of §6.2 (Fig. 13) swaps in
:class:`DirectInput` / :class:`DirectOutput`: an in-process queue with no
serialization and no broker hops, leaving the SPS untouched.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.broker import BrokerCluster, Consumer, Producer
from repro.core.batch import CrayfishDataBatch
from repro.simul import Environment, Store


# Built per record: slotted, not frozen (cheaper __init__); treat as immutable.
@dataclasses.dataclass(slots=True)
class InputEvent:
    """One event as handed to an engine's source operator."""

    batch: CrayfishDataBatch
    #: Wire size; drives decode and Flink buffer costs. 0 in direct mode.
    nbytes: float


class InputGateway:
    """Where source operators read events from."""

    #: Whether events carry serialized payloads (decode must be charged).
    charges_serde: bool = True

    def make_source(self, member: int, members: int) -> "SourceHandle":
        raise NotImplementedError


class SourceHandle:
    """Per-task handle with Kafka-poll semantics."""

    def poll(
        self, max_records: int = 500, data_transfer: bool = True
    ) -> typing.Generator:
        """Coroutine: block until data; return list[InputEvent].

        ``data_transfer=False`` is a metadata-only planning fetch (record
        payloads are pulled later, by whoever processes them)."""
        raise NotImplementedError

    def lag(self) -> int:
        raise NotImplementedError

    def position(self) -> dict[int, int]:
        """Checkpointable read position (empty when not applicable)."""
        return {}

    def seek(self, offsets: dict[int, int]) -> None:
        """Restore a checkpointed read position (no-op by default)."""


#: Called with (batch, end_timestamp) once an output record is delivered.
EmitCallback = typing.Callable[[CrayfishDataBatch, float], None]


class OutputGateway:
    """Where sink operators write scored events to."""

    charges_serde: bool = True

    def emit(self, batch: CrayfishDataBatch, nbytes: float, then: EmitCallback) -> None:
        """Deliver one output record, then call ``then`` with the end
        timestamp (broker LogAppendTime, or local time in direct mode)."""
        raise NotImplementedError


# -- Kafka-backed (the Crayfish default) ------------------------------------


class _BrokerSource(SourceHandle):
    def __init__(self, consumer: Consumer) -> None:
        self._consumer = consumer

    def poll(
        self, max_records: int = 500, data_transfer: bool = True
    ) -> typing.Generator:
        records = yield from self._consumer.poll(max_records, data_transfer)
        return [InputEvent(batch=r.value, nbytes=r.nbytes) for r in records]

    def lag(self) -> int:
        return self._consumer.lag()

    def position(self) -> dict[int, int]:
        return self._consumer.position()

    def seek(self, offsets: dict[int, int]) -> None:
        self._consumer.seek(offsets)


class BrokerInput(InputGateway):
    def __init__(
        self,
        env: Environment,
        cluster: BrokerCluster,
        topic: str,
        node_of_member: typing.Callable[[int], str] | None = None,
    ) -> None:
        self.env = env
        self.cluster = cluster
        self.topic = topic
        #: Scale-out placement: maps a source-task index to the cluster
        #: node it runs on, so its fetches pay that node's links. None
        #: (the default) keeps the single shared-LAN cost model.
        self.node_of_member = node_of_member

    def make_source(self, member: int, members: int) -> SourceHandle:
        node = None if self.node_of_member is None else self.node_of_member(member)
        return _BrokerSource(
            Consumer(self.env, self.cluster, self.topic, member, members, node=node)
        )


class BrokerOutput(OutputGateway):
    def __init__(
        self,
        env: Environment,
        cluster: BrokerCluster,
        topic: str,
        node: str | None = None,
    ) -> None:
        self.env = env
        self.producer = Producer(env, cluster, node=node)
        self.topic = topic

    def emit(self, batch: CrayfishDataBatch, nbytes: float, then: EmitCallback) -> None:
        self.producer.send(
            self.topic,
            value=batch,
            nbytes=nbytes,
            timestamp=batch.created_at,
            then=lambda record: then(batch, record.log_append_time),
        )


# -- Direct (standalone, Fig. 13) --------------------------------------------


class _DirectSource(SourceHandle):
    def __init__(self, store: Store) -> None:
        self._store = store

    def poll(
        self, max_records: int = 500, data_transfer: bool = True
    ) -> typing.Generator:
        first = yield self._store.get()
        events = [first]
        while len(events) < max_records:
            ok, item = self._store.try_get()
            if not ok:
                break
            events.append(item)
        return events

    def lag(self) -> int:
        return self._store.level


class DirectInput(InputGateway):
    """In-process handoff: no serialization, no broker, no network."""

    charges_serde = False

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._stores: dict[int, Store] = {}
        self._members = 1

    def make_source(self, member: int, members: int) -> SourceHandle:
        self._members = members
        store = self._stores.setdefault(member, Store(self.env))
        return _DirectSource(store)

    def push(self, batch: CrayfishDataBatch) -> None:
        """Called by the in-process generator (round-robin over tasks)."""
        member = batch.batch_id % self._members
        store = self._stores.setdefault(member, Store(self.env))
        store.try_put(InputEvent(batch=batch, nbytes=0.0))


class DirectOutput(OutputGateway):
    charges_serde = False

    def __init__(self, env: Environment) -> None:
        self.env = env

    def emit(self, batch: CrayfishDataBatch, nbytes: float, then: EmitCallback) -> None:
        then(batch, self.env.now)
