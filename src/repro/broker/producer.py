"""Producer client: writes records to topic partitions."""

from __future__ import annotations

import typing

from repro.broker.kafka_cluster import BrokerCluster
from repro.broker.records import ConsumerRecord, RecordMetadata
from repro.simul import Environment, Event


class Producer:
    """Sticky round-robin producer.

    Serialization cost is *not* charged here: callers encode on their own
    CPU budget (the input-producer VM or an SPS sink task) and hand the
    resulting size to :meth:`send`.
    """

    def __init__(
        self,
        env: Environment,
        cluster: BrokerCluster,
        node: str | None = None,
    ) -> None:
        #: Cluster node this producer runs on (scale-out simulations);
        #: None keeps the single shared-LAN cost model.
        self.node = node
        self.env = env
        self.cluster = cluster
        self._next_partition: dict[str, int] = {}
        self._partition_counts: dict[str, int] = {}

    def _pick_partition(self, topic: str, key: int | None) -> int:
        count = self._partition_counts.get(topic)
        if count is None:
            count = self.cluster.topic(topic).partition_count
            self._partition_counts[topic] = count
        if key is not None:
            return key % count
        index = self._next_partition.get(topic, 0)
        self._next_partition[topic] = (index + 1) % count
        return index

    def send(
        self,
        topic: str,
        value: typing.Any,
        nbytes: float,
        timestamp: float | None = None,
        key: int | None = None,
        *,
        then: typing.Callable[[ConsumerRecord], None] | None = None,
    ) -> typing.Generator | None:
        """Write one record; ``then(record)`` gets the appended
        :class:`ConsumerRecord`. Kernel callbacks drive the delivery
        (:meth:`BrokerCluster.append`), so it starts no process.

        Without ``then``, returns a coroutine that waits for the append
        (one more kernel event) and returns :class:`RecordMetadata`."""
        if then is None:
            return self._send_and_wait(topic, value, nbytes, timestamp, key)
        if timestamp is None:
            timestamp = self.env.now
        partition = self._pick_partition(topic, key)
        self.cluster.append(
            topic, partition, timestamp, value, nbytes, client_node=self.node, then=then
        )
        return None

    def _send_and_wait(
        self,
        topic: str,
        value: typing.Any,
        nbytes: float,
        timestamp: float | None,
        key: int | None,
    ) -> typing.Generator:
        appended = Event(self.env)
        self.send(topic, value, nbytes, timestamp, key, then=appended.succeed)
        record = yield appended
        return RecordMetadata(
            topic=record.topic,
            partition=record.partition,
            offset=record.offset,
            log_append_time=record.log_append_time,
        )
