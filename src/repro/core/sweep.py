"""Parameter sweeps: run grids of configurations with replication.

:func:`sweep` is the stable front door; it delegates to the parallel
experiment-matrix engine (:mod:`repro.matrix.engine`), so callers can
opt into worker processes (``jobs``) and the results store as result
cache (``store``) without changing shape: ordering, aggregates, and
hook sequence are byte-identical to a serial, storeless run.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.config import ExperimentConfig
from repro.core.analyzer import Aggregate
from repro.core.runner import ExperimentResult
from repro.errors import ConfigError


@dataclasses.dataclass(frozen=True)
class SweepPoint:
    """One grid point's aggregated outcome."""

    overrides: dict
    results: tuple[ExperimentResult, ...]

    @property
    def throughput(self) -> Aggregate:
        return Aggregate.of([r.throughput for r in self.results])

    @property
    def mean_latency(self) -> Aggregate:
        return Aggregate.of([r.latency.mean for r in self.results])


def validate_override_fields(names: typing.Iterable[str]) -> None:
    """Reject grid/override keys that are not ExperimentConfig fields.

    Catches typos like ``{"batch_size": [...]}`` up front with a message
    naming both the offender and the valid field set — previously an
    unknown key surfaced only deep inside ``dataclasses.replace`` as an
    unexpected-keyword TypeError.
    """
    valid = {field.name for field in dataclasses.fields(ExperimentConfig)}
    unknown = sorted(set(names) - valid)
    if unknown:
        listed = ", ".join(repr(name) for name in unknown)
        raise ConfigError(
            f"unknown sweep field(s) {listed}; valid ExperimentConfig "
            f"fields are: {', '.join(sorted(valid))}"
        )


def sweep(
    base: ExperimentConfig,
    grid: dict[str, typing.Sequence],
    seeds: typing.Sequence[int] = (0, 1),
    hook: typing.Callable[[dict, typing.Sequence[ExperimentResult]], None] | None = None,
    jobs: int = 1,
    store: typing.Any = None,
) -> list[SweepPoint]:
    """Run the cartesian product of ``grid`` over ``base``.

    ``grid`` maps ExperimentConfig field names to value lists (names are
    validated up front). Each point is replicated over ``seeds`` (the
    paper runs everything twice). ``hook`` is called after each point in
    grid order, e.g. for progress printing.

    ``jobs`` > 1 fans the points × seeds out over worker processes;
    ``store`` (a :class:`repro.store.ResultStore`) replays
    already-computed runs instead of re-executing them and records the
    rest as one ``sweep``. Both leave the returned points identical to a
    serial, storeless run.
    """
    if not grid:
        raise ValueError("empty sweep grid")
    from repro.matrix.engine import run_matrix

    report = run_matrix(
        base,
        grid,
        seeds=seeds,
        jobs=jobs,
        hook=hook,
        store=store,
        store_kind="sweep",
    )
    return report.points
