"""Apache Flink (§3.4.1): push-based pipelined dataflow.

Two deployment shapes, matching §6.1:

- **Default parallelism** ``flink[N-N-N]``: operator chaining is on, so
  each of the N task slots runs source -> scoring -> sink serially for
  every event (one JVM thread, no handoffs). This is the configuration of
  all headline experiments.
- **Operator-level parallelism** ``flink[S-P-K]`` (chaining disabled):
  S source tasks, P scoring tasks, and K sink tasks connected by bounded
  exchange queues — Flink's network buffer pools — so stages pipeline and
  backpressure propagates through full buffers (Fig. 12).

Large records that exceed Flink's 32 KB network-buffer quota pay a
per-buffer handling cost in the source, which is why Flink loses its
latency edge to Kafka Streams at bsz=512 (Fig. 10, §5.3.2).
"""

from __future__ import annotations

import math
import typing

from repro import calibration as cal
from repro.sps.api import DataProcessor
from repro.sps.gateways import InputEvent
from repro.simul import Resource, Store
from repro.tracing.spans import OPEN, chained_stages

#: Capacity of each inter-stage exchange queue (buffer pool slots).
EXCHANGE_CAPACITY = 64


class FlinkProcessor(DataProcessor):
    """The Flink data-processor adapter."""

    name = "flink"
    profile = cal.FLINK_PROFILE

    def __init__(
        self,
        *args: typing.Any,
        operator_parallelism: tuple[int, int, int] | None = None,
        async_io: int = 0,
        scoring_window: int = 0,
        **kwargs: typing.Any,
    ) -> None:
        super().__init__(*args, **kwargs)
        self.operator_parallelism = operator_parallelism
        # Flink's Async I/O operator (§4.3 disabled it for fairness; we
        # implement it as an ablation): each scoring task may keep up to
        # ``async_io`` external requests in flight instead of blocking.
        # ExperimentConfig has already checked both knobs' domains and
        # that they do not combine.
        self.async_io = async_io
        # §7.1 "Micro-batching Support for External Servers": a count
        # window in front of the scoring operator groups up to
        # ``scoring_window`` events into one inference call, flushing
        # early when the stream idles (so low rates keep low latency).
        # A window of one is the default path.
        self.scoring_window = 0 if scoring_window == 1 else scoring_window

    def _spawn_tasks(self) -> None:
        if self.operator_parallelism is None:
            for task in range(self.mp):
                self._spawn(self._chained_task(task, self.mp))
        else:
            sources, scorers, sinks = self.operator_parallelism
            score_queue = Store(self.env, capacity=EXCHANGE_CAPACITY)
            sink_queue = Store(self.env, capacity=EXCHANGE_CAPACITY)
            for stage, queue in (("score", score_queue), ("sink", sink_queue)):
                self.metrics.gauge(
                    "flink_exchange_queue",
                    help="records buffered in the inter-stage exchange",
                    labels={"stage": stage},
                    fn=lambda q=queue: q.level,
                )
                self.metrics.gauge(
                    "flink_backpressure",
                    help="tasks blocked on a full network-buffer pool",
                    labels={"stage": stage},
                    fn=lambda q=queue: len(q._putters),
                )
            for task in range(sources):
                self._spawn(self._source_task(task, sources, score_queue))
            for __ in range(scorers):
                self._spawn(self._scoring_task(score_queue, sink_queue))
            for __ in range(sinks):
                self._spawn(self._sink_task(sink_queue))

    # -- operator bodies ---------------------------------------------------

    def _buffer_penalty(self, nbytes: float) -> float:
        """Per-buffer handling for records spanning many network buffers."""
        if nbytes <= cal.FLINK_BUFFER_BYTES:
            return 0.0
        extra_buffers = math.ceil(nbytes / cal.FLINK_BUFFER_BYTES) - 1
        return extra_buffers * cal.FLINK_PER_BUFFER_COST

    def _source_cost(self, event: InputEvent) -> float:
        return (
            self.profile.source_overhead
            + self.decode_cost(event.batch)
            + self._buffer_penalty(event.nbytes)
        ) * self.slowdown

    def _score(
        self,
        event: InputEvent,
        source: float | None = None,
        since: tuple[str, float] | None = None,
    ) -> typing.Generator:
        """Returns the scoring result and the record's ``flink.score``
        span, still open for the next visit to close (None when
        untraced). A ``None`` result means the resilience layer shed the
        request and the event must not reach the sink.

        ``source`` is the chained source's cost, paid here in the same
        kernel event as the score overhead. ``since`` is the record's
        wait that ends now (``(name, start)``), written with its visit.
        """
        batch = event.batch
        scored = ("flink.score", self.profile.score_overhead * self.slowdown)
        if source is not None:
            scored = ("flink.source", source, *scored)
        span = yield from chained_stages(
            self.env, self.tracer, batch, *scored, since=since
        )
        result = yield from self.tool.score(batch.points, ctx=batch)
        if result is None and span is not None:
            self.tracer.end(span)
            span = None
        return result, span

    def _sink(
        self,
        event: InputEvent,
        since: tuple[str, float] | None = None,
        scored: int | None = None,
    ) -> typing.Generator:
        """The sink operator; its visit closes the ``scored`` span."""
        batch = event.batch
        yield from chained_stages(
            self.env,
            self.tracer,
            batch,
            "flink.sink",
            (self.profile.sink_overhead + self.encode_cost(batch)) * self.slowdown,
            since=since,
            closed=True,
            close=scored,
        )
        self.emit_and_complete(batch)

    def _source(self, event: InputEvent, polled_at: float) -> typing.Generator:
        """The unchained source operator: queue wait since the poll,
        then the source's cost."""
        yield from chained_stages(
            self.env,
            self.tracer,
            event.batch,
            "flink.source",
            self._source_cost(event),
            since=("flink.task_queue", polled_at),
            closed=True,
        )

    # -- task loops ----------------------------------------------------------

    def _chained_task(self, member: int, members: int) -> typing.Generator:
        """source -> scoring -> sink fused into one task thread."""
        if self.scoring_window:
            yield from self._windowed_task(member, members)
            return
        source = self._new_source(member, members)
        inflight = Resource(self.env, capacity=self.async_io) if self.async_io else None
        while True:
            events = yield from source.poll()
            polled_at = self.env.now
            for event in events:
                if inflight is None:
                    result, scored = yield from self._score(
                        event,
                        self._source_cost(event),
                        since=("flink.task_queue", polled_at),
                    )
                    if result is None:
                        self.batches_shed += 1
                        continue
                    yield from self._sink(event, scored=scored)
                else:
                    yield from self._source(event, polled_at)
                    # Async I/O: park the request with a capacity-bounded
                    # in-flight window; the task moves on to the next event.
                    waited = self.env.now
                    slot = inflight.request()
                    yield slot
                    if event.batch.trace is not None:
                        self.tracer.stages(
                            event.batch.trace,
                            waited,
                            ("flink.async_wait",),
                            (self.env.now,),
                        )
                    self.env.process(self._async_round_trip(event, inflight, slot))

    def _windowed_task(self, member: int, members: int) -> typing.Generator:
        """Chained task with a count window before the scoring operator.

        Events group into one inference call of up to ``scoring_window``
        events; a partial window flushes as soon as the source has no
        more data ready, so idle streams never wait on a timer.
        """
        source = self._new_source(member, members)
        window: list[InputEvent] = []
        # When each window member entered the window.
        entered: list[float] = []
        while True:
            events = yield from source.poll()
            polled_at = self.env.now
            for event in events:
                yield from self._source(event, polled_at)
                window.append(event)
                entered.append(self.env.now)
                if len(window) >= self.scoring_window:
                    yield from self._flush_window(window, entered)
                    window, entered = [], []
            if window and source.lag() == 0:
                yield from self._flush_window(window, entered)
                window, entered = [], []

    def _flush_window(
        self, window: list[InputEvent], entered: list[float]
    ) -> typing.Generator:
        names = ("flink.window_wait", "flink.score")
        ends = (self.env.now, OPEN)
        attrs = {1: {"window": len(window)}}
        spans = [
            self.tracer.stages(event.batch.trace, start, names, ends, attrs) + 1
            for event, start in zip(window, entered)
            if event.batch.trace is not None
        ]
        yield self.env.service_timeout(self.profile.score_overhead * self.slowdown)
        total_points = sum(event.batch.points for event in window)
        # ctx = oldest window member, for span attribution and a
        # schedule-independent (content-keyed) noise draw.
        result = yield from self.tool.score(total_points, ctx=window[0].batch)
        for span in spans:
            self.tracer.end(span)
        if result is None:
            self.batches_shed += len(window)
            return
        for event in window:
            yield from self._sink(event)

    def _async_round_trip(self, event: InputEvent, inflight: Resource, slot) -> typing.Generator:
        result, scored = yield from self._score(event)
        inflight.release(slot)
        if result is None:
            self.batches_shed += 1
            return
        yield from self._sink(event, scored=scored)

    def _source_task(self, member: int, members: int, downstream: Store) -> typing.Generator:
        source = self._new_source(member, members)
        while True:
            events = yield from source.poll()
            polled_at = self.env.now
            for event in events:
                yield from self._source(event, polled_at)
                yield from self._hand_off(event, downstream)

    def _hand_off(
        self, event: InputEvent, downstream: Store, scored: int | None = None
    ) -> typing.Generator:
        """Put the event into an exchange queue (blocks when its buffers
        are full), stamped with the enqueue time for the downstream
        task's exchange-wait span; the visit closes the ``scored`` span."""
        now = self.env.now
        span = None
        if event.batch.trace is not None:
            span = self.tracer.stages(
                event.batch.trace, now, ("flink.buffer_wait",), (OPEN,), close=scored
            )
        yield downstream.put((event, now))
        if span is not None:
            self.tracer.end(span)

    def _scoring_task(self, upstream: Store, downstream: Store) -> typing.Generator:
        while True:
            event, enqueued = yield upstream.get()
            result, scored = yield from self._score(
                event, since=("flink.exchange_wait", enqueued)
            )
            if result is None:
                self.batches_shed += 1
                continue
            yield from self._hand_off(event, downstream, scored)

    def _sink_task(self, upstream: Store) -> typing.Generator:
        while True:
            event, enqueued = yield upstream.get()
            yield from self._sink(event, since=("flink.exchange_wait", enqueued))
