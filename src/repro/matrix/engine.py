"""The parallel experiment-matrix engine.

Fans a grid of configurations × seeds out across worker processes and
merges the outcomes deterministically: results are slotted by task index
(point-major, seed-minor, grid points in sorted-key cartesian order), so
output ordering, aggregates, and exports are byte-identical no matter
how many workers raced to produce them — ``jobs=16`` must not be
distinguishable from ``jobs=1`` by anything but wall-clock.

Every task funnels through one serialization round-trip
(:func:`repro.core.results_io.result_record` /
:func:`~repro.core.results_io.result_from_record`), whether it executed
in-process, crossed a process boundary, or replayed from the results
store — so all three paths yield identical results by construction.

The store (:class:`repro.store.ResultStore`) is the result cache: a
task whose (config, seed) slot already holds a live row recorded under
the current code fingerprint replays that row instead of running, and
every task that does run is recorded the moment it finishes.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import itertools
import typing

from repro.config import ExperimentConfig
from repro.core.report import format_ms, format_rate, format_table
from repro.core.results_io import result_from_record, result_record
from repro.core.runner import ExperimentRunner
from repro.core.sweep import SweepPoint, validate_override_fields
from repro.errors import ConfigError, ReproError

#: Progress/result hook: called once per grid point, in grid order.
PointHook = typing.Callable[
    [dict, typing.Sequence[typing.Any]], None
]


def execute_task(config: ExperimentConfig, seed: int) -> dict:
    """Run one (config, seed) task and return its full result record.

    Module-level so :class:`concurrent.futures.ProcessPoolExecutor` can
    ship it to workers by reference; returns the serialized record (not
    the live result) so every execution path shares the same round-trip.
    """
    result = ExperimentRunner(config).run(seed=seed)
    return result_record(result, seed=seed)


@dataclasses.dataclass
class MatrixReport:
    """Everything one matrix run produced, in deterministic task order."""

    #: Aggregated grid points, in grid order.
    points: list[SweepPoint]
    #: Full result records, task order (point-major, seed-minor).
    records: list[dict]
    #: Seeds each point was replicated over.
    seeds: tuple[int, ...]
    #: Tasks that actually executed (the rest replayed from the store).
    executed: int
    #: Worker processes used for the executed tasks.
    jobs: int

    @property
    def results(self) -> list:
        """Flat results in task order (matches :attr:`records`)."""
        return [result for point in self.points for result in point.results]

    @property
    def tasks(self) -> int:
        return len(self.records)


def grid_points(
    grid: dict[str, typing.Sequence],
) -> list[dict]:
    """Override dicts for the cartesian product, in deterministic order.

    Keys are sorted; values keep their given order. An empty grid is the
    single empty override — one point, the base config itself.
    """
    if not grid:
        return [{}]
    keys = sorted(grid)
    return [
        dict(zip(keys, values))
        for values in itertools.product(*(grid[key] for key in keys))
    ]


def run_matrix(
    base: ExperimentConfig,
    grid: dict[str, typing.Sequence],
    seeds: typing.Sequence[int] = (0, 1),
    jobs: int = 1,
    hook: PointHook | None = None,
    store: typing.Any = None,
    store_kind: str = "matrix",
    sweep_id: int | None = None,
) -> MatrixReport:
    """Run ``grid`` × ``seeds`` over ``base``, in parallel and cached.

    ``jobs`` worker processes execute the tasks the store cannot serve
    (``jobs=1`` stays in-process). ``hook`` fires once per grid point —
    always in grid order, as soon as every earlier point is complete —
    so progress output is deterministic too.

    ``store`` (a :class:`repro.store.ResultStore`) is the result cache.
    Each task first looks up its slot (:meth:`ResultStore.lookup`) and
    replays the stored record on a hit. Each task that runs is recorded
    as a ``store_kind`` run the moment it finishes, under sweep
    ``sweep_id`` — or, when that is None, under one new sweep row for
    this call. An interrupted run therefore resumes: only the tasks it
    never finished execute again. Replayed tasks are not recorded twice.
    With no store nothing is looked up or recorded.
    """
    seeds = tuple(seeds)
    if not seeds:
        raise ConfigError("need at least one seed")
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    validate_override_fields(grid)
    overrides = grid_points(grid)
    configs = [base.replace(**point) for point in overrides]

    width = len(seeds)
    records: list[dict | None] = [None] * (len(configs) * width)
    pending: list[tuple[int, ExperimentConfig, int]] = []
    for point_index, config in enumerate(configs):
        for seed_index, seed in enumerate(seeds):
            index = point_index * width + seed_index
            if store is not None:
                records[index] = store.lookup(config.canonical_dict(), seed)
            if records[index] is None:
                pending.append((index, config, seed))

    if store is not None and sweep_id is None:
        sweep_id = store.record_sweep(
            store_kind,
            base.label(),
            {
                "points": [
                    {
                        key: value
                        for key, value in config.canonical_dict().items()
                        if key in point
                    }
                    for point, config in zip(overrides, configs)
                ],
                "seeds": list(seeds),
                "tasks": len(records),
                "executed": len(pending),
                "jobs": jobs,
            },
        )

    emit = _OrderedEmitter(overrides, records, width, hook)
    emit.drain()

    def finish(index: int, record: dict) -> None:
        records[index] = record
        if store is not None:
            store.record_run(record, kind=store_kind, sweep_id=sweep_id)
        emit.drain()

    if jobs == 1 or len(pending) <= 1:
        for index, config, seed in pending:
            try:
                record = execute_task(config, seed)
            except Exception as error:
                _reraise_named(error, config, seed)
            finish(index, record)
    else:
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=min(jobs, len(pending))
        ) as pool:
            futures = {
                pool.submit(execute_task, config, seed): (index, config, seed)
                for index, config, seed in pending
            }
            for future in concurrent.futures.as_completed(futures):
                index, config, seed = futures[future]
                try:
                    record = future.result()
                except Exception as error:
                    _reraise_named(error, config, seed)
                finish(index, record)

    return MatrixReport(
        points=emit.points,
        records=typing.cast("list[dict]", records),
        seeds=seeds,
        executed=len(pending),
        jobs=jobs,
    )


def _reraise_named(
    error: Exception, config: ExperimentConfig, seed: int
) -> typing.NoReturn:
    """Re-raise a task's ``error`` naming the config and seed that broke.

    A library error (:class:`~repro.errors.ReproError`) is re-raised as
    the same class with the task in its message, chained from the
    original, so a ConfigError stays a ConfigError and the CLI still
    exits 2 on it. Any other exception keeps its identity, so callers
    that catch it by type still can; it carries the task as a note
    where Python supports notes (3.11+).
    """
    where = f"{config.label()} seed {seed}"
    if isinstance(error, ReproError):
        raise type(error)(f"{where} failed: {error}") from error
    if hasattr(error, "add_note"):
        error.add_note(f"raised by matrix task {where}")
    raise error


class _OrderedEmitter:
    """Builds SweepPoints — and fires the hook — strictly in grid order.

    Workers complete out of order; points materialize only once every
    earlier point is whole, so hook-driven progress output is identical
    for any job count while still streaming as the frontier advances.
    """

    def __init__(
        self,
        overrides: list[dict],
        records: list[dict | None],
        width: int,
        hook: PointHook | None,
    ) -> None:
        self._overrides = overrides
        self._records = records
        self._width = width
        self._hook = hook
        self.points: list[SweepPoint] = []

    def drain(self) -> None:
        while len(self.points) < len(self._overrides):
            start = len(self.points) * self._width
            chunk = self._records[start : start + self._width]
            if any(record is None for record in chunk):
                return
            results = tuple(
                result_from_record(record)
                for record in typing.cast("list[dict]", chunk)
            )
            point = SweepPoint(
                overrides=self._overrides[len(self.points)], results=results
            )
            self.points.append(point)
            if self._hook is not None:
                self._hook(point.overrides, point.results)


def format_matrix_table(
    report: MatrixReport, grid: dict[str, typing.Sequence], title: str
) -> str:
    """Summary table: one row per point, mean±std aggregates."""
    keys = sorted(grid) if grid else []
    headers = keys + ["events/s", "±std", "mean latency (ms)", "±std (ms)"]
    rows = []
    for point in report.points:
        throughput = point.throughput
        latency = point.mean_latency
        rows.append(
            [str(point.overrides[key]) for key in keys]
            + [
                format_rate(throughput.mean),
                format_rate(throughput.std),
                format_ms(latency.mean),
                format_ms(latency.std),
            ]
        )
    return format_table(headers, rows, title=title)
