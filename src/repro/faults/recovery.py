"""Checkpoint/replay recovery and delivery guarantees for every engine (§7.2).

The paper's §7.2 argues that processing guarantees — fault tolerance,
exactly-once — are where embedded serving retains an edge, because
external inference calls are side effects the SPS cannot roll back.
:class:`EngineRecovery` makes that claim measurable on Flink, Kafka
Streams, Spark Structured Streaming, and Ray alike, through the generic
crash/restart/commit hooks on :class:`~repro.sps.api.DataProcessor` and
the consumer ``position()``/``seek()`` machinery:

- a coordinator snapshots every source's offsets each
  ``checkpoint_interval`` (Flink's aligned-checkpoint charge);
- a failure injector per configured time kills all engine tasks, waits
  ``recovery_time`` (process restart + model reload), and restarts the
  job seeked back to the last committed offsets, replaying everything
  after the checkpoint;
- the delivery guarantee decides what the replay does downstream:
  - ``at_least_once``: sinks emit immediately, so replayed events
    appear twice downstream and external servers see duplicate
    inference requests (the paper's "weaker fault-tolerance
    guarantees" for external serving);
  - ``exactly_once`` (Flink only, see ``ExperimentConfig``): sinks write
    into a Kafka transaction that commits with the next checkpoint; a
    crash aborts it, so downstream sees each batch once, at the cost of
    commit-quantized latency.
"""

from __future__ import annotations

import typing

# Type-only imports: repro.config takes the guarantee names from this
# module and must stay a leaf.
if typing.TYPE_CHECKING:
    from repro.config import ExperimentConfig
    from repro.simul import Environment

AT_LEAST_ONCE = "at_least_once"
EXACTLY_ONCE = "exactly_once"
GUARANTEES = (AT_LEAST_ONCE, EXACTLY_ONCE)

#: Task pause while taking an (asynchronous) state snapshot.
SNAPSHOT_PAUSE = 0.002
#: Fixed coordinator cost to finalize a checkpoint.
CHECKPOINT_COMMIT_COST = 0.005


class EngineRecovery:
    """Checkpoint coordinator + failure injector for one engine."""

    def __init__(
        self, env: Environment, engine: typing.Any, config: ExperimentConfig
    ) -> None:
        self.env = env
        self.engine = engine
        self.config = config
        self.checkpoints_completed = 0
        self.failures_injected = 0
        self.restarts = 0
        #: Source offsets of the last *completed* checkpoint, in source
        #: creation order (matches the engine's restore order).
        self._committed: list[dict[int, int]] = []
        self._epoch = 0

    def start(self) -> None:
        if self.config.delivery_guarantee == EXACTLY_ONCE:
            self.engine.transaction = []
        self.env.process(self._coordinator())
        for failure_time in sorted(self.config.failure_times):
            self.env.process(self._failure_injector(failure_time))

    def _coordinator(self) -> typing.Generator:
        while True:
            yield self.env.timeout(self.config.checkpoint_interval)
            if not self.engine.tasks_alive:
                continue  # job is down; skip this checkpoint
            epoch = self._epoch
            yield self.env.timeout(SNAPSHOT_PAUSE + CHECKPOINT_COMMIT_COST)
            if epoch != self._epoch:
                continue  # a failure raced the checkpoint: never completes
            self._committed = self.engine.checkpoint_positions()
            self.engine.commit()
            self.checkpoints_completed += 1

    def _failure_injector(self, failure_time: float) -> typing.Generator:
        yield self.env.timeout(failure_time)
        if not self.engine.tasks_alive:
            return
        self.failures_injected += 1
        self._epoch += 1
        self.engine.crash()
        yield self.env.timeout(self.config.recovery_time)
        yield from self.engine.tool.load()  # model reloads on restart
        self.restarts += 1
        self.engine.restart(self._committed)
