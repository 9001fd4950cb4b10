"""The paper's three pre-configured workload scenarios (§4.1), packaged.

These helpers encode the measurement protocol so benchmarks and examples
don't repeat it:

- :func:`measure_sustainable_throughput` — open loop, input-saturated.
- :func:`measure_closed_loop_latency` — low rate, inference-dominated.
- :func:`run_burst_scenario` — periodic bursts at 110%/70% of sustainable
  throughput, with per-burst recovery analysis (:func:`burst_reports`,
  which ``crayfish run --workload periodic_bursts`` shares).
"""

from __future__ import annotations

import dataclasses
import typing

from repro.config import ExperimentConfig, WorkloadKind
from repro.core.analyzer import Aggregate, RecoveryReport, recovery_time
from repro.core.generator import PeriodicBursts
from repro.core.runner import ExperimentResult, ExperimentRunner


def measure_sustainable_throughput(
    config: ExperimentConfig,
    seeds: typing.Sequence[int] = (0, 1),
) -> Aggregate:
    """Open-loop saturated run: events/s the SUT sustains (mean ± std
    across replicated runs, like the paper's protocol)."""
    open_loop = config.replace(workload=WorkloadKind.OPEN_LOOP, ir=None)
    runner = ExperimentRunner(open_loop)
    return Aggregate.of([runner.run(seed=seed).throughput for seed in seeds])


def measure_closed_loop_latency(
    config: ExperimentConfig,
    seeds: typing.Sequence[int] = (0, 1),
) -> tuple[Aggregate, list[ExperimentResult]]:
    """Closed-loop run: mean end-to-end latency per batch (seconds)."""
    if config.ir is None:
        config = config.replace(ir=1.0)
    closed = config.replace(workload=WorkloadKind.CLOSED_LOOP)
    runner = ExperimentRunner(closed)
    results = [runner.run(seed=seed) for seed in seeds]
    return Aggregate.of([r.latency.mean for r in results]), results


@dataclasses.dataclass(frozen=True)
class BurstScenarioResult:
    """Outcome of one bursty run."""

    result: ExperimentResult
    reports: tuple[RecoveryReport, ...]

    @property
    def recovery_times(self) -> list[float]:
        return [r.recovery_time for r in self.reports if r.recovery_time is not None]


def run_burst_scenario(
    config: ExperimentConfig,
    sustainable_throughput: float,
    bursts: int = 3,
    seed: int = 0,
    threshold_factor: float = 1.5,
) -> BurstScenarioResult:
    """Drive the SUT with periodic bursts and measure recovery per burst.

    The producer runs at 110% of ``sustainable_throughput`` for ``bd``
    seconds out of every ``tbb + bd`` cycle and at 70% otherwise; recovery
    is timed from each burst's start (§5.1.4).
    """
    horizon = (config.tbb + config.bd) * bursts + config.tbb
    bursty = config.replace(
        workload=WorkloadKind.PERIODIC_BURSTS,
        ir=sustainable_throughput,
        duration=horizon,
        warmup_fraction=0.0,
    )
    result = ExperimentRunner(bursty).run(seed=seed)
    return BurstScenarioResult(
        result=result, reports=burst_reports(result, threshold_factor)
    )


def burst_reports(
    result: ExperimentResult, threshold_factor: float = 1.5
) -> tuple[RecoveryReport, ...]:
    """Recovery time and peak latency of each burst in a bursty run.

    ``result`` must come from a ``PERIODIC_BURSTS`` run. Analyses every
    burst that starts at least ``tbb / 2`` before the run ends; each is
    timed from its start over one ``bd + tbb`` cycle (§5.1.4).
    """
    config = result.config
    schedule = PeriodicBursts(
        low_rate=0.7 * config.ir,
        high_rate=1.1 * config.ir,
        burst_duration=config.bd,
        time_between_bursts=config.tbb,
    )
    windows = schedule.burst_windows(config.duration - config.tbb / 2)
    return tuple(
        recovery_time(
            result.series,
            burst_start,
            burst_end,
            horizon=burst_start + config.bd + config.tbb,
            threshold_factor=threshold_factor,
            dwell=min(1.0, config.tbb / 8),
            baseline_window=config.tbb / 3,
        )
        for burst_start, burst_end in windows
    )
