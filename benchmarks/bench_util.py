"""Helpers shared by the per-table/figure benchmarks."""

from __future__ import annotations

import contextlib
import json
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


#: The compiled-telemetry baseline the metrics benchmark maintains.
BENCH_METRICS_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCH_metrics.json",
)


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


def telemetry_summary(result) -> dict:
    """Compress one metrics-on run into per-series summary statistics.

    ``result`` must come from ``ExperimentRunner.run(metrics=...)``; each
    scraped series collapses to last/peak/mean/samples, alongside the
    run's headline throughput and latency numbers.
    """
    if result.telemetry is None:
        raise ValueError("run the experiment with metrics on first")
    from repro.metrics.export import series_summaries

    return {
        "throughput": result.throughput,
        "latency_mean": result.latency.mean,
        "latency_p95": result.latency.p95,
        "completed": result.completed,
        "series": series_summaries(result.telemetry.scraper),
    }


def record_bench_metrics(
    entries: dict[str, dict], path: str = BENCH_METRICS_PATH
) -> dict:
    """Merge per-config telemetry summaries into ``BENCH_metrics.json``.

    The file is the perf-regression baseline: re-running the metrics
    benchmark after a change and diffing it surfaces shifted queue peaks,
    lag, or throughput per engine. Existing entries for other configs are
    preserved so engines can be re-profiled independently.
    """
    payload: dict[str, dict] = {}
    if os.path.exists(path):
        with open(path) as handle:
            payload = json.load(handle)
    payload.update(entries)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return payload


def load_bench_baseline(path: str = BENCH_METRICS_PATH) -> dict[str, dict]:
    """The telemetry regression baseline, one entry per config label:
    the committed ``BENCH_metrics.json`` (empty when absent)."""
    if os.path.exists(path):
        with open(path) as handle:
            return json.load(handle)
    return {}
