"""Spark Structured Streaming (§3.4.1): micro-batch execution.

A serialized driver loop drains whatever arrived since the last trigger,
pays a fixed planning/commit overhead plus per-event bookkeeping, splits
the micro-batch into ``mp`` chunks, and runs the chunks in parallel on
executor cores. Within a chunk, Tungsten's columnar decode is cheaper
than row-at-a-time JSON parsing, and inference is issued as *one* batched
call per chunk — which is exactly why Spark saturates external servers
(§5.3, Fig. 11) and posts the highest throughput of the studied SPSs
(Table 5) while paying the worst latency (trigger waits, Fig. 10).

The driver's serialized per-event work caps throughput at a flat ceiling
regardless of ``mp`` (Fig. 11: ~23k ev/s at every parallelism).
"""

from __future__ import annotations

import typing

from repro import calibration as cal
from repro.netsim.link import LAN
from repro.sps.api import DataProcessor
from repro.sps.gateways import InputEvent
from repro.simul import Interrupt, Resource
from repro.tracing.spans import OPEN, chained_stages


class SparkProcessor(DataProcessor):
    """The Spark Structured Streaming data-processor adapter."""

    name = "spark_ss"
    profile = cal.SPARK_PROFILE

    def __init__(self, *args: typing.Any, **kwargs: typing.Any) -> None:
        super().__init__(*args, **kwargs)
        self.triggers_fired = 0

    def _spawn_tasks(self) -> None:
        self._inflight = Resource(self.env, capacity=cal.SPARK_INFLIGHT_TRIGGERS)
        self.metrics.gauge(
            "spark_trigger_backlog",
            help="records arrived but not yet planned into a micro-batch",
            fn=lambda: sum(s.lag() for s in self._sources),
        )
        self.metrics.gauge(
            "spark_inflight_triggers",
            help="micro-batches currently executing on the cluster",
            fn=lambda: self._inflight.count,
        )
        self.metrics.counter(
            "spark_triggers",
            help="micro-batch triggers completed",
            fn=lambda: self.triggers_fired,
        )
        self._spawn(self._driver_loop())

    def _driver_loop(self) -> typing.Generator:
        source = self._new_source(0, 1)
        while True:
            # The driver only *plans* the micro-batch (offset ranges);
            # executors pull the record data from the brokers themselves.
            events = yield from source.poll(
                max_records=cal.SPARK_MAX_BATCH_EVENTS, data_transfer=False
            )
            polled_at = self.env.now
            # Trigger: planning + commit, plus serialized per-event driver
            # bookkeeping (collect, offsets, progress reporting).
            yield self.env.service_timeout(
                cal.SPARK_TRIGGER_OVERHEAD
                + len(events) * cal.SPARK_DRIVER_PER_EVENT
            )
            now = self.env.now
            waits = [
                self.tracer.stages(
                    event.batch.trace,
                    polled_at,
                    ("spark.driver", "spark.schedule_wait"),
                    (now, OPEN),
                ) + 1
                for event in events
                if event.batch.trace is not None
            ]
            # Spark overlaps fetching/planning the next micro-batch with
            # executing the current one, bounded by the in-flight cap.
            slot = self._inflight.request()
            yield slot
            for wait in waits:
                self.tracer.end(wait)
            self._spawn(self._execute_trigger(events, slot))

    def _execute_trigger(self, events: list[InputEvent], slot) -> typing.Generator:
        chunks = self._split(events, self.mp)
        tasks = [self._spawn(self._chunk_task(chunk)) for chunk in chunks]
        yield self.env.all_of(tasks)
        self._inflight.release(slot)
        self.triggers_fired += 1

    @staticmethod
    def _split(events: list, parts: int) -> list[list]:
        chunks = [events[i::parts] for i in range(parts)]
        return [chunk for chunk in chunks if chunk]

    def _chunk_task(self, events: list[InputEvent]) -> typing.Generator:
        env = self.env
        # Executor-side Kafka read of this chunk's record data, the
        # chunk's CPU, then one batched, vectorized inference call: each
        # traced record's visit is written ahead, with its score open.
        chunk_bytes = sum(e.nbytes for e in events)
        fetch = LAN.transfer_time(chunk_bytes) if chunk_bytes else None
        decode = sum(self.decode_cost(e.batch) for e in events)
        overheads = len(events) * (
            self.profile.source_overhead + self.profile.score_overhead
        )
        cpu = (decode + overheads) * self.slowdown
        now = env.now
        if fetch is None:
            names: tuple = ("spark.chunk_cpu", "spark.score")
            ends: tuple = (now + cpu, OPEN)
        else:
            names = ("spark.executor_fetch", "spark.chunk_cpu", "spark.score")
            ends = (now + fetch, (now + fetch) + cpu, OPEN)
        attrs = {len(names) - 1: {"chunk": len(events)}}
        visits = [
            self.tracer.stages(e.batch.trace, now, names, ends, attrs)
            for e in events
            if e.batch.trace is not None
        ]
        done = 0  # stages the chunk has finished
        try:
            if fetch is not None:
                yield env.service_timeout(fetch)
                done += 1
            yield env.service_timeout(cpu)
        except Interrupt:
            for first in visits:
                self.tracer.cut(first + done, first + len(names) - 1)
            raise
        # ctx carries the chunk's oldest batch: serving attributes its
        # spans (and, crucially, its content-keyed noise draw) to a
        # stable member instead of drawing in schedule order.
        total_points = sum(e.batch.points for e in events)
        result = yield from self.tool.score(
            total_points, vectorized=True, ctx=events[0].batch
        )
        for first in visits:
            self.tracer.end(first + len(names) - 1)
        if result is None:  # shed by the resilience layer
            self.batches_shed += len(events)
            return
        for event in events:
            batch = event.batch
            yield from chained_stages(
                env,
                self.tracer,
                batch,
                "spark.sink",
                (self.profile.sink_overhead + self.encode_cost(batch)) * self.slowdown,
                closed=True,
            )
            self.emit_and_complete(batch)
