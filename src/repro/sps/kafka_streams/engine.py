"""Kafka Streams (§3.4.1): pull-based per-event DAG traversal.

Each stream thread owns a share of the input topic's partitions and walks
every polled record through the whole topology — consume, transform
(score), produce — before the next record (Fig. 4). The tight broker
integration gives it lower fixed per-event overheads than Flink
(Table 5: 2054 vs 1373 ev/s with ONNX), but each poll cycle pays a fixed
bookkeeping interval (commit/rebalance checks), which shows up as a
latency floor at very low input rates (Fig. 10, small batches).
"""

from __future__ import annotations

import typing

from repro import calibration as cal
from repro.sps.api import DataProcessor
from repro.sps.gateways import InputEvent
from repro.tracing.spans import chained_stages


class KafkaStreamsProcessor(DataProcessor):
    """The Kafka Streams data-processor adapter."""

    name = "kafka_streams"
    profile = cal.KAFKA_STREAMS_PROFILE

    def __init__(self, *args: typing.Any, **kwargs: typing.Any) -> None:
        super().__init__(*args, **kwargs)
        # Lives across restarts: _spawn_tasks runs again after recovery
        # and must not reset the cumulative counter.
        self.poll_cycles = 0

    @property
    def slowdown(self) -> float:
        """Kafka Streams' pull model fetches straight from partitions per
        thread, distributing work with less cross-thread friction than
        Flink's push/buffer machinery — the paper's explanation for its
        better embedded scaling (§5.3.3). Engine-internal contention is
        still charged inside the serving tool itself."""
        if self.tool.kind == "embedded":
            return 1.0 + cal.KAFKA_STREAMS_ALPHA * (self.mp - 1)
        return 1.0

    def _spawn_tasks(self) -> None:
        self.metrics.counter(
            "kafka_streams_poll_cycles",
            help="poll cycles executed across all stream threads",
            fn=lambda: self.poll_cycles,
        )
        for thread in range(self.mp):
            self._spawn(self._stream_thread(thread, self.mp))

    def _stream_thread(self, member: int, members: int) -> typing.Generator:
        source = self._new_source(member, members)
        while True:
            events = yield from source.poll()
            self.poll_cycles += 1
            polled_at = self.env.now
            # Poll-cycle bookkeeping (offset commits, rebalance liveness):
            # a fixed cost per cycle, amortized across the cycle's records.
            yield self.env.service_timeout(cal.KAFKA_STREAMS_POLL_INTERVAL)
            for event in events:
                yield from self._process_one(event, polled_at)

    def _process_one(self, event: InputEvent, polled_at: float) -> typing.Generator:
        batch = event.batch
        consume = (self.profile.source_overhead + self.decode_cost(batch)) * self.slowdown
        # Consume, then the score operator's overhead: one kernel event.
        span = yield from chained_stages(
            self.env,
            self.tracer,
            batch,
            "kafka_streams.consume",
            consume,
            "kafka_streams.score",
            self.profile.score_overhead * self.slowdown,
            since=("kafka_streams.poll", polled_at),
        )
        result = yield from self.tool.score(batch.points, ctx=batch)
        if span is not None:
            self.tracer.end(span)
        if result is None:  # shed by the resilience layer
            self.batches_shed += 1
            return
        yield from chained_stages(
            self.env,
            self.tracer,
            batch,
            "kafka_streams.produce",
            (self.profile.sink_overhead + self.encode_cost(batch)) * self.slowdown,
            closed=True,
        )
        self.emit_and_complete(batch)
