"""Grid points and their field names.

Grids run through one front door, :func:`repro.matrix.run_matrix`; this
module holds what it reports per point (:class:`SweepPoint`) and the
up-front check of a grid's keys (:func:`validate_override_fields`).
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

