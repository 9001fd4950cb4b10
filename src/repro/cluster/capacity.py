"""Sustainable-capacity search: how much load a deployment can take.

Fixed-rate benchmarking answers "how does the system behave at rate X";
scale-out studies need the inverse question — "what is the highest rate
this deployment size sustains within an SLO?" (the methodology of
Theodolite / Henning & Hasselbring, also used by PDSP-Bench). The
driver here binary-searches that rate per configuration: geometric
doubling until the SLO first breaks, then bisection of the bracket to a
relative tolerance. Every probe runs through
:func:`repro.matrix.engine.run_matrix`, so worker processes and the
results store apply — re-searching a configuration the store already
holds replays every probe instead of running it.
"""

from __future__ import annotations

import dataclasses
import math
import typing

from repro.config import ExperimentConfig, WorkloadKind
from repro.core.runner import ExperimentResult
from repro.errors import ConfigError
from repro.matrix.engine import run_matrix


@dataclasses.dataclass(frozen=True)
class SloPolicy:
    """The predicate a probe must satisfy to count as *sustained*.

    Both criteria are evaluated on seed-averaged measurements: the p95
    end-to-end latency must stay under ``p95_latency``, and completed
    throughput must reach ``min_goodput`` of the offered rate (a
    pipeline that falls behind has unbounded queues even if the events
    it does finish are fast).
    """

    p95_latency: float = 1.0
    min_goodput: float = 0.9

    def __post_init__(self) -> None:
        if self.p95_latency <= 0:
            raise ConfigError(
                f"p95_latency must be positive, got {self.p95_latency}"
            )
        if not 0 < self.min_goodput <= 1:
            raise ConfigError(
                f"min_goodput must be in (0, 1], got {self.min_goodput}"
            )

    def satisfied(
        self, offered_rate: float, results: typing.Sequence[ExperimentResult]
    ) -> bool:
        throughput = sum(r.throughput for r in results) / len(results)
        p95s = [r.latency.p95 for r in results]
        if any(math.isnan(p) for p in p95s):
            return False  # no completions in the measured window
        p95 = sum(p95s) / len(p95s)
        return p95 <= self.p95_latency and throughput >= (
            self.min_goodput * offered_rate
        )


@dataclasses.dataclass(frozen=True)
class CapacityPoint:
    """One probe of the search."""

    rate: float
    sustained: bool
    throughput: float
    p95: float


@dataclasses.dataclass(frozen=True)
class CapacityResult:
    """Outcome of one configuration's search."""

    config: ExperimentConfig
    #: Highest probed rate that satisfied the SLO (0.0 when even the
    #: lowest probe failed).
    capacity: float
    probes: tuple[CapacityPoint, ...]
    #: Probe tasks (probe × seed) that ran; the rest replayed from the
    #: results store.
    executed: int = 0

    @property
    def label(self) -> str:
        return self.config.label()


@dataclasses.dataclass(frozen=True)
class CapacityCurve:
    """Sustainable capacity as a function of deployment size."""

    points: tuple[tuple[int, CapacityResult], ...]

    @property
    def monotonic(self) -> bool:
        """Does capacity grow (weakly) with node count?"""
        capacities = [result.capacity for __, result in self.points]
        return all(b >= a for a, b in zip(capacities, capacities[1:]))


def _at_rate(config: ExperimentConfig, rate: float) -> ExperimentConfig:
    """The probe configuration offering ``rate`` events/s."""
    if config.population is not None:
        population = config.population
        scale = population.rate_scale * rate / population.mean_rate
        return config.replace(
            population=dataclasses.replace(population, rate_scale=scale)
        )
    return config.replace(ir=rate, workload=WorkloadKind.OPEN_LOOP)


def search_capacity(
    config: ExperimentConfig,
    slo: SloPolicy | None = None,
    seeds: typing.Sequence[int] = (0, 1),
    start_rate: float = 50.0,
    tolerance: float = 0.1,
    max_probes: int = 24,
    jobs: int = 1,
    hook: typing.Callable[[CapacityPoint], None] | None = None,
    store: typing.Any = None,
) -> CapacityResult:
    """Binary-search the highest offered rate ``config`` sustains.

    Doubles from ``start_rate`` until the SLO breaks (establishing a
    ``[sustained, broken]`` bracket), then bisects the bracket until its
    relative width drops under ``tolerance``. ``hook`` observes each
    probe (progress printing). The returned capacity is the highest
    *actually probed and sustained* rate — a conservative lower bound.

    ``store`` (a :class:`repro.store.ResultStore`) is the probes'
    result cache: each probe task replays from it or runs and is
    recorded under one ``capacity`` sweep, whose metadata carries the
    found capacity and the probe trajectory. Probe configs differ in
    offered rate, so each probe owns its own content-addressed slot.
    """
    if slo is None:
        slo = SloPolicy()
    if start_rate <= 0:
        raise ConfigError(f"start_rate must be positive, got {start_rate}")
    if not 0 < tolerance < 1:
        raise ConfigError(f"tolerance must be in (0, 1), got {tolerance}")
    if max_probes < 2:
        raise ConfigError(f"max_probes must be >= 2, got {max_probes}")

    probes: list[CapacityPoint] = []
    executed = 0
    sweep_id = None
    if store is not None:
        sweep_id = store.record_sweep(
            "capacity", config.label(), {"status": "searching"}
        )

    def probe(rate: float) -> bool:
        nonlocal executed
        report = run_matrix(
            _at_rate(config, rate),
            {},
            seeds=seeds,
            jobs=jobs,
            store=store,
            store_kind="capacity",
            sweep_id=sweep_id,
        )
        executed += report.executed
        results = report.points[0].results
        point = CapacityPoint(
            rate=rate,
            sustained=slo.satisfied(rate, results),
            throughput=sum(r.throughput for r in results) / len(results),
            p95=sum(r.latency.p95 for r in results) / len(results),
        )
        probes.append(point)
        if hook is not None:
            hook(point)
        return point.sustained

    # Phase 1: geometric doubling until the SLO first breaks. A failing
    # first probe still brackets — bisection then searches downward.
    low, high = 0.0, None
    rate = start_rate
    while len(probes) < max_probes and high is None:
        if probe(rate):
            low = rate
            rate *= 2.0
        else:
            high = rate
    # Phase 2: bisect the [sustained, broken] bracket.
    if high is not None:
        while len(probes) < max_probes and (high - low) > tolerance * high:
            mid = (low + high) / 2.0
            if probe(mid):
                low = mid
            else:
                high = mid
    result = CapacityResult(
        config=config, capacity=low, probes=tuple(probes), executed=executed
    )
    if store is not None:
        store.update_sweep_meta(
            sweep_id,
            {
                "capacity": result.capacity,
                "probes": [dataclasses.asdict(p) for p in result.probes],
                "seeds": list(seeds),
                "slo": dataclasses.asdict(slo),
            },
        )
    return result


def capacity_curve(
    config: ExperimentConfig,
    node_counts: typing.Sequence[int],
    slo: SloPolicy | None = None,
    size_hook: typing.Callable[[int, CapacityResult], None] | None = None,
    **kwargs: typing.Any,
) -> CapacityCurve:
    """Run the capacity search across deployment sizes.

    ``config.cluster`` is re-shaped to each entry of ``node_counts``
    (racks clamped so they never exceed the node count); everything else
    is inherited. ``size_hook`` observes each completed size's result
    (progress printing); per-probe ``hook`` — and ``store``, which
    records one ``capacity`` sweep per deployment size — pass through to
    :func:`search_capacity`. The acceptance check of the scale-out
    reproduction is :attr:`CapacityCurve.monotonic` over 1 → 2 → 4 nodes.
    """
    if config.cluster is None:
        raise ConfigError("capacity_curve needs a clustered config")
    if not node_counts:
        raise ConfigError("need at least one node count")
    points = []
    for nodes in node_counts:
        spec = dataclasses.replace(
            config.cluster, nodes=nodes, racks=min(config.cluster.racks, nodes)
        )
        result = search_capacity(
            config.replace(cluster=spec), slo=slo, **kwargs
        )
        if size_hook is not None:
            size_hook(nodes, result)
        points.append((nodes, result))
    return CapacityCurve(points=tuple(points))
