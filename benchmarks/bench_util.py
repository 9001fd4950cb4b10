"""Helpers shared by the per-table/figure benchmarks."""

from __future__ import annotations

import contextlib
import os
import statistics
import typing

from repro.config import ExperimentConfig
from repro.core.report import format_table
from repro.core.runner import (  # noqa: F401 - ExperimentRunner re-export
    ExperimentRunner,
    run_replicated,
)

#: Seeds for the paper's run-everything-twice protocol.
SEEDS = (0, 1)

#: Opt-in knobs for the benchmark suite: CRAYFISH_STORE names a results
#: store that caches every replica (re-running the paper tables then only
#: executes changed points); CRAYFISH_BENCH_JOBS fans replicas out over
#: worker processes. Defaults reproduce the serial uncached runs.
_BENCH_JOBS = int(os.environ.get("CRAYFISH_BENCH_JOBS", "1"))


def replicated(config: ExperimentConfig, seeds=SEEDS):
    """Replicated results via the matrix engine (parallel/cached aware)."""
    from repro.store import open_store

    with open_store(
        os.environ.get("CRAYFISH_STORE")
    ) or contextlib.nullcontext() as store:
        return run_replicated(config, seeds, jobs=_BENCH_JOBS, store=store)


def mean_std(values: typing.Sequence[float]) -> tuple[float, float]:
    return statistics.fmean(values), statistics.pstdev(values)


def throughput(config: ExperimentConfig, seeds=SEEDS) -> tuple[float, float]:
    """Mean/std sustainable throughput across seeds (open loop, saturated)."""
    results = replicated(config.replace(ir=None), seeds)
    return mean_std([r.throughput for r in results])


def mean_latency(config: ExperimentConfig, seeds=SEEDS) -> tuple[float, float]:
    """Mean/std of mean end-to-end latency across seeds."""
    results = replicated(config, seeds)
    return mean_std([r.latency.mean for r in results])


def table(title: str, headers, rows) -> str:
    return format_table(headers, rows, title=title)
