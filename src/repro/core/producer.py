"""The input workload producer component (§3.1, Fig. 3 step 1).

Two drive modes:

- :class:`PacedProducer` emits batches on a :class:`RateSchedule`; the
  *start* timestamp is taken before the record is written to the Kafka
  input topic, exactly as in the paper.
- :class:`SaturatingProducer` keeps a bounded backlog ahead of the SUT so
  the pipeline is never input-starved — the steady state of the paper's
  open-loop runs at above-sustainable rates, without simulating millions
  of discarded sends (see EXPERIMENTS.md on time scaling).
"""

from __future__ import annotations

import typing

from repro import calibration as cal
from repro.broker import BrokerCluster, ConsumerRecord, Producer
from repro.core.batch import CrayfishDataBatch
from repro.core.generator import BatchFactory, RateSchedule
from repro.netsim import json_payload
from repro.simul import Environment, Event
from repro.sps.gateways import DirectInput
from repro.tracing.spans import NO_TRACE


#: The producer visit of a paced batch.
_GENERATE_SERIALIZE = ("producer.generate", "producer.serialize")


class InputProducerBase:
    """Shared plumbing: encode + deliver one batch."""

    def __init__(
        self,
        env: Environment,
        factory: BatchFactory,
        cluster: BrokerCluster | None = None,
        topic: str = "crayfish-input",
        direct: DirectInput | None = None,
        tracer: typing.Any = NO_TRACE,
        node: str | None = None,
    ) -> None:
        if (cluster is None) == (direct is None):
            raise ValueError("provide exactly one of cluster/direct")
        self.env = env
        self.factory = factory
        self.topic = topic
        self.direct = direct
        self.tracer = tracer
        # ``node`` places the producer on a (simulated) machine in
        # scale-out runs — the external driver host by default there.
        self._producer = (
            Producer(env, cluster, node=node) if cluster is not None else None
        )
        self.batches_produced = 0

    def start(self) -> None:
        self.env.process(self._run())

    def _run(self) -> typing.Generator:
        raise NotImplementedError

    def _generation_cost(self, batch: CrayfishDataBatch) -> float:
        return batch.input_values * cal.GENERATOR_PER_VALUE

    def _deliver(
        self, batch: CrayfishDataBatch, generated_at: float | None = None
    ) -> None:
        """Encode on the producer VM, then write to the topic. Kernel
        callbacks step the delivery, so it starts no process; the
        partition-outage gate is read when the encoding ends.

        A traced batch's producer visit is written here, once: the
        generation that ran since ``generated_at`` (when given), then
        the serialization, ahead of the clock."""
        trace = batch.trace
        if self.direct is not None:
            if trace is not None and generated_at is not None:
                self.tracer.stages(
                    trace, generated_at, ("producer.generate",), (self.env.now,)
                )
            self.direct.push(batch)
            self.batches_produced += 1
            return
        payload = json_payload(batch.input_values)
        if trace is not None:
            now = self.env.now
            serialized = now + payload.encode_cost
            if generated_at is None:
                self.tracer.stages(trace, now, ("producer.serialize",), (serialized,))
            else:
                self.tracer.stages(
                    trace, generated_at, _GENERATE_SERIALIZE, (now, serialized)
                )
        encoded = self.env.service_timeout(
            payload.encode_cost, value=(batch, payload.nbytes)
        )
        encoded.callbacks.append(self._encoded)

    def _encoded(self, event: Event) -> None:
        batch, nbytes = event.value
        self._producer.send(
            self.topic,
            value=batch,
            nbytes=nbytes,
            timestamp=batch.created_at,
            then=self._delivered,
        )

    def _delivered(self, record: ConsumerRecord) -> None:
        self.batches_produced += 1


class PacedProducer(InputProducerBase):
    """Emits one batch per ``1/rate`` tick; sends are asynchronous so a
    slow broker path never distorts the offered rate."""

    def __init__(self, *args: typing.Any, schedule: RateSchedule, **kwargs: typing.Any) -> None:
        super().__init__(*args, **kwargs)
        self.schedule = schedule

    def _run(self) -> typing.Generator:
        while True:
            now = self.env.now
            rate = self.schedule.rate_at(now)
            batch = self.factory.make(created_at=now)
            yield self.env.service_timeout(self._generation_cost(batch))
            self._deliver(batch, generated_at=now)
            interval = 1.0 / rate
            elapsed = self.env.now - now
            if interval > elapsed:
                yield self.env.service_timeout(interval - elapsed)


class SaturatingProducer(InputProducerBase):
    """Keeps ``backlog_target`` unconsumed batches ahead of the SUT.

    ``completed`` is a callable returning how many batches the SUT has
    finished; the producer tops the difference up every ``poll_interval``.
    """

    def __init__(
        self,
        *args: typing.Any,
        completed: typing.Callable[[], int],
        backlog_target: int = 512,
        poll_interval: float = 0.002,
        **kwargs: typing.Any,
    ) -> None:
        super().__init__(*args, **kwargs)
        if backlog_target < 1:
            raise ValueError("backlog_target must be >= 1")
        self.completed = completed
        self.backlog_target = backlog_target
        self.poll_interval = poll_interval
        self.batches_spawned = 0

    def _run(self) -> typing.Generator:
        while True:
            deficit = self.backlog_target - (
                self.batches_spawned - self.completed()
            )
            for __ in range(max(deficit, 0)):
                batch = self.factory.make(created_at=self.env.now)
                self.batches_spawned += 1
                # Deliveries run concurrently: the 4-vCPU producer VM and
                # the broker cluster are sized so generation is never the
                # bottleneck (§3.5's Kafka check).
                self._deliver(batch)
            yield self.env.service_timeout(self.poll_interval)
