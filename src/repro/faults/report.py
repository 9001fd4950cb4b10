"""Chaos scenarios: paired baseline/faulted runs with recovery analysis.

:func:`run_chaos_scenario` executes one configuration twice — once with
every fault and recovery knob stripped (the baseline) and once as given —
and reports goodput retention plus the post-fault latency recovery time,
reusing the burst-recovery analyzer on the fault window.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.config import ExperimentConfig
from repro.core.analyzer import RecoveryReport, recovery_time
from repro.core.runner import ExperimentResult, ExperimentRunner


@dataclasses.dataclass(frozen=True)
class ChaosOutcome:
    """One chaos scenario: the faulted run against its clean baseline."""

    baseline: ExperimentResult
    faulted: ExperimentResult
    #: Measured-window throughput of the faulted run relative to the
    #: baseline (1.0 = the faults cost nothing downstream).
    goodput_ratio: float
    #: Latency recovery after the first fault window; None when the run
    #: had no fault window or too few samples to analyze.
    recovery: RecoveryReport | None

    @property
    def recovered(self) -> bool:
        """Did latency restabilize within the observation horizon?"""
        return self.recovery is not None and self.recovery.recovery_time is not None


def _fault_windows(config: ExperimentConfig) -> list[tuple[float, float]]:
    """Every injected-fault window: the plan's plus engine failures."""
    windows: list[tuple[float, float]] = []
    if config.fault_plan is not None:
        windows.extend(config.fault_plan.windows())
    for failure_time in config.failure_times:
        windows.append((failure_time, failure_time + config.recovery_time))
    return sorted(windows)


def run_chaos_scenario(
    config: ExperimentConfig,
    seed: int | None = None,
    threshold_factor: float = 2.0,
    dwell: float = 0.5,
    trace: typing.Any = None,
    metrics: typing.Any = None,
) -> ChaosOutcome:
    """Run ``config`` and its fault-free twin; compare.

    The baseline strips the fault plan, the resilience policy, and the
    engine failure times but keeps checkpointing if configured, so the
    comparison isolates the *faults*, not the steady-state overheads.
    ``trace``/``metrics`` instrument the faulted run only, as in
    :meth:`~repro.core.runner.ExperimentRunner.run`.
    """
    baseline_config = config.replace(
        fault_plan=None, resilience=None, failure_times=()
    )
    baseline = ExperimentRunner(baseline_config).run(seed=seed)
    faulted = ExperimentRunner(config).run(
        seed=seed, trace=trace, metrics=metrics
    )
    ratio = (
        faulted.throughput / baseline.throughput
        if baseline.throughput > 0
        else float("nan")
    )
    windows = _fault_windows(config)
    recovery = None
    if windows:
        start = windows[0][0]
        end = max(w[1] for w in windows)
        try:
            recovery = recovery_time(
                faulted.series,
                burst_start=start,
                burst_end=min(end, config.duration),
                horizon=config.duration,
                threshold_factor=threshold_factor,
                dwell=dwell,
            )
        except (ValueError, ZeroDivisionError):
            recovery = None  # degenerate window or too few samples
    return ChaosOutcome(
        baseline=baseline,
        faulted=faulted,
        goodput_ratio=ratio,
        recovery=recovery,
    )
