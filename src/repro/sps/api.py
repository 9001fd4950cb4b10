"""The data-processor adapter interface (§3.2).

Every engine consumes :class:`~repro.sps.gateways.InputEvent` objects from
an input gateway, runs the scoring operator (an embedded library call or a
blocking RPC to an external server), and emits results through an output
gateway. Engines report each completed batch to a completion callback —
the hook the metrics collector attaches to.
"""

from __future__ import annotations

import typing

from repro import calibration as cal
from repro.core.batch import CrayfishDataBatch
from repro.metrics.registry import NO_METRICS
from repro.netsim import json_payload
from repro.serving.base import ServingTool
from repro.simul import Environment, Interrupt, Process
from repro.sps.gateways import EmitCallback, InputGateway, OutputGateway, SourceHandle
from repro.tracing.spans import NO_TRACE

#: Called with (batch, end_timestamp) when a batch leaves the pipeline.
CompletionCallback = typing.Callable[[CrayfishDataBatch, float], None]


class DataProcessor:
    """Base class for SPS adapters."""

    name: str = ""
    profile: cal.SpsProfile

    def __init__(
        self,
        env: Environment,
        tool: ServingTool,
        input_gateway: InputGateway,
        output_gateway: OutputGateway,
        mp: int = 1,
        on_complete: CompletionCallback | None = None,
        output_values_per_point: int = 1,
        tracer: typing.Any = NO_TRACE,
        metrics: typing.Any = NO_METRICS,
    ) -> None:
        self.env = env
        self.tool = tool
        self.input = input_gateway
        self.output = output_gateway
        self.mp = mp
        self.on_complete = on_complete
        self.output_values_per_point = output_values_per_point
        self.tracer = tracer
        self.metrics = metrics
        self.batches_completed = 0
        #: Batches dropped by graceful degradation (resilience "shed").
        self.batches_shed = 0
        self._sources: list[SourceHandle] = []
        #: Live task processes, so fault injection can crash the engine.
        self._task_processes: list[Process] = []
        #: Per-source offset maps to restore on the next (re)spawn, in
        #: source-creation order (checkpoint recovery).
        self._pending_restore: list[dict[int, int]] = []
        #: Output records buffered in asynchronous emit (fire-and-forget
        #: Kafka produces in flight). Maintained unconditionally — two
        #: integer ops per batch — so metrics-on/off runs stay identical.
        self._emits_inflight = 0
        #: Exactly-once sink: output batches held in the open Kafka
        #: transaction until the next checkpoint commits it. None — the
        #: default, at-least-once — emits each batch at once.
        self.transaction: list[CrayfishDataBatch] | None = None
        metrics.gauge(
            "engine_input_queue",
            help="records fetched-able but not yet polled by source tasks",
            labels={"engine": self.name},
            fn=lambda: sum(s.lag() for s in self._sources),
        )
        metrics.gauge(
            "engine_output_queue",
            help="scored records in asynchronous sink emission",
            labels={"engine": self.name},
            fn=lambda: self._emits_inflight,
        )
        metrics.counter(
            "engine_batches_completed",
            help="batches the engine has reported complete",
            labels={"engine": self.name},
            fn=lambda: self.batches_completed,
        )
        metrics.counter(
            "engine_batches_shed",
            help="batches dropped by resilience load shedding",
            labels={"engine": self.name},
            fn=lambda: self.batches_shed,
        )

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Load the model, then spawn the engine's task processes."""
        self.env.process(self._bootstrap())

    def _bootstrap(self) -> typing.Generator:
        yield from self.tool.load()
        self._spawn_tasks()

    def _spawn_tasks(self) -> None:
        raise NotImplementedError

    def _spawn(self, generator: typing.Generator) -> Process:
        """Spawn a crashable task process and track it for fault
        injection; an injected interrupt terminates the task quietly."""
        self._task_processes = [p for p in self._task_processes if p.is_alive]
        process = self.env.process(self._crashable(generator))
        self._task_processes.append(process)
        return process

    @staticmethod
    def _crashable(generator: typing.Generator) -> typing.Generator:
        try:
            yield from generator
        except Interrupt:
            return

    @property
    def tasks_alive(self) -> bool:
        """Is any engine task still running? (False after a crash.)"""
        return any(p.is_alive for p in self._task_processes)

    def crash(self) -> None:
        """Fail the engine job: every task dies, source handles are
        discarded (their offsets are lost with the process state), and
        the open transaction aborts: its output is never seen downstream."""
        tasks, self._task_processes = self._task_processes, []
        self._sources = []
        if self.transaction is not None:
            self.transaction = []
        for task in tasks:
            if task.is_alive:
                task.interrupt("engine crashed")

    def commit(self) -> None:
        """Commit the open transaction with a completed checkpoint.

        The held batches are emitted one at a time in batch-id order, so
        the output log's order does not depend on which task's sink
        reached the transaction first within a tie."""
        if not self.transaction:
            return
        held, self.transaction = self.transaction, []
        held.sort(key=lambda batch: batch.batch_id)
        batches = iter(held)
        in_emit = landed_in_emit = False

        def landed(batch: CrayfishDataBatch, end_time: float) -> None:
            nonlocal landed_in_emit
            self._emitted(batch, end_time)
            if in_emit:
                landed_in_emit = True
            else:
                emit_rest()

        def emit_rest() -> None:
            # Each emit starts once the previous one has landed. A direct
            # sink lands inside _emit: the loop goes on then, so a long
            # commit does not recurse.
            nonlocal in_emit, landed_in_emit
            for batch in batches:
                in_emit, landed_in_emit = True, False
                self._emit(batch, landed)
                in_emit = False
                if not landed_in_emit:
                    return

        emit_rest()

    def checkpoint_positions(self) -> list[dict[int, int]]:
        """Source offsets per handle, in creation order (a checkpoint)."""
        return [source.position() for source in self._sources]

    def restart(self, positions: list[dict[int, int]] | None = None) -> None:
        """Re-run the tasks, optionally rewinding sources to a checkpoint.

        ``positions`` must come from :meth:`checkpoint_positions`; tasks
        recreate their sources in the same order, so offsets are restored
        positionally as each source is opened.
        """
        self._pending_restore = [dict(p) for p in positions or []]
        self._spawn_tasks()

    def _new_source(self, member: int, members: int) -> SourceHandle:
        """Open a source handle and keep it observable for telemetry."""
        source = self.input.make_source(member, members)
        if self._pending_restore:
            source.seek(self._pending_restore.pop(0))
        self._sources.append(source)
        return source

    # -- shared cost helpers -------------------------------------------------

    @property
    def slowdown(self) -> float:
        """Process-wide slowdown when inference shares the SPS process.

        Embedded serving contends with the engine for the host (JVM heap,
        GC, memory bandwidth): the paper's Fig. 6 shows embedded tools
        scaling sublinearly while external tools scale linearly. External
        serving leaves the SPS at factor 1.
        """
        if self.tool.kind == "embedded":
            return self.tool.costs.contention_factor
        return 1.0

    def decode_cost(self, batch: CrayfishDataBatch) -> float:
        """Deserialization CPU for one input event."""
        if not self.input.charges_serde:
            return 0.0
        return json_payload(batch.input_values).decode_cost

    def output_payload(self, batch: CrayfishDataBatch):
        """JSON payload of the scored result (predictions only)."""
        values = batch.points * self.output_values_per_point
        return json_payload(values)

    def encode_cost(self, batch: CrayfishDataBatch) -> float:
        if not self.output.charges_serde:
            return 0.0
        return self.output_payload(batch).encode_cost

    def output_nbytes(self, batch: CrayfishDataBatch) -> float:
        if not self.output.charges_serde:
            return 0.0
        return self.output_payload(batch).nbytes

    def _complete(self, batch: CrayfishDataBatch, end_time: float) -> None:
        self.batches_completed += 1
        # The root span closes at the same end timestamp the metrics
        # collector records, so root duration == measured e2e latency.
        if batch.trace is not None:
            self.tracer.close_root(batch, end_time)
        if self.on_complete is not None:
            self.on_complete(batch, end_time)

    def emit_and_complete(self, batch: CrayfishDataBatch) -> None:
        """Fire-and-forget produce: Kafka producers buffer and send
        asynchronously, so the sink task never blocks on the broker round
        trip. Completion is reported at append time (LogAppendTime).
        Under exactly-once the batch joins the open transaction instead."""
        if self.transaction is not None:
            self.transaction.append(batch)
            return
        self._emit(batch, self._emitted)

    def _emit(self, batch: CrayfishDataBatch, then: EmitCallback) -> None:
        """Sink-side delivery, stepped by kernel callbacks (no process):
        ``then(batch, end_time)`` runs once the output record lands."""
        self._emits_inflight += 1
        self.output.emit(batch, self.output_nbytes(batch), then)

    def _emitted(self, batch: CrayfishDataBatch, end_time: float) -> None:
        self._emits_inflight -= 1
        self._complete(batch, end_time)
