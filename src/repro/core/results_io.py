"""Persisting experiment results (the metrics-analyzer output, Fig. 1).

JSON for single results and result sets; JSONL for matrix runs; CSV for
spreadsheet-friendly sweep exports. Loading returns plain dictionaries —
results are records, not live objects — except for
:func:`result_from_record`, which rebuilds a live
:class:`~repro.core.runner.ExperimentResult` from its full record (the
matrix engine's replay from the results store depends on this
round-trip being lossless).
"""

from __future__ import annotations

import csv
import dataclasses
import json
import typing

from repro.config import config_from_dict
from repro.core.metrics import LatencyStats
from repro.core.runner import ExperimentResult


def result_to_dict(result: ExperimentResult) -> dict:
    """A JSON-serializable record of one experiment.

    The config block is the *canonical* dict (enums as values, tuples as
    lists, sorted keys), so an in-memory record compares equal to the
    same record after a JSON round-trip — the matrix engine relies on
    records replayed from the store being indistinguishable from fresh
    ones.
    """
    return {
        "config": result.config.canonical_dict(),
        "throughput": result.throughput,
        "latency": dataclasses.asdict(result.latency),
        "completed": result.completed,
        "produced": result.produced,
        "duplicates": result.duplicates,
        "inference_requests": result.inference_requests,
        "measure_start": result.measure_start,
        "measure_end": result.measure_end,
        "faults": (
            dataclasses.asdict(result.faults)
            if result.faults is not None
            else None
        ),
    }


def result_record(
    result: ExperimentResult, seed: int | None = None
) -> dict:
    """The *full* serializable record of one run.

    Unlike :func:`result_to_dict` this keeps the latency/backlog series,
    so a record round-trips back into an equivalent
    :class:`ExperimentResult` via :func:`result_from_record`. ``seed``
    stores the run seed alongside (``runner.run(seed=...)`` overrides
    the config seed without recording it on the result).
    """
    record = result_to_dict(result)
    record["series"] = [[end, latency] for end, latency in result.series]
    record["backlog_series"] = [
        [when, backlog] for when, backlog in result.backlog_series
    ]
    if seed is not None:
        record["seed"] = seed
    return record


def result_from_record(record: dict) -> ExperimentResult:
    """Rebuild a live :class:`ExperimentResult` from its full record.

    Lossless inverse of :func:`result_record` (JSON represents floats by
    shortest round-trip repr, so every statistic survives exactly).
    Trace/telemetry handles are run-scoped live objects and are never
    serialized; replayed results carry None there.
    """
    faults = None
    if record.get("faults") is not None:
        from repro.faults.summary import FaultSummary

        faults = FaultSummary(**record["faults"])
    return ExperimentResult(
        config=config_from_dict(record["config"]),
        throughput=record["throughput"],
        latency=LatencyStats(**record["latency"]),
        completed=record["completed"],
        produced=record["produced"],
        measure_start=record["measure_start"],
        measure_end=record["measure_end"],
        series=tuple(
            (end, latency) for end, latency in record.get("series", [])
        ),
        duplicates=record["duplicates"],
        inference_requests=record["inference_requests"],
        backlog_series=tuple(
            (when, backlog)
            for when, backlog in record.get("backlog_series", [])
        ),
        faults=faults,
    )


def save_results(results: typing.Sequence[ExperimentResult], path: str) -> None:
    """Write results (without the full latency series) as JSON."""
    with open(path, "w") as handle:
        json.dump([result_to_dict(r) for r in results], handle, indent=2)


def load_results(path: str) -> list[dict]:
    with open(path) as handle:
        records = json.load(handle)
    if not isinstance(records, list):
        raise ValueError(f"{path!r} does not contain a result list")
    return records


def save_records_jsonl(records: typing.Sequence[dict], path: str) -> None:
    """Write result records as JSON Lines, one canonical line per record.

    Lines are serialized with sorted keys and compact separators, so the
    bytes depend only on record *content* — a matrix replayed from the
    results store and a cold one export identically, as do ``--jobs 1``
    and ``--jobs N``.
    """
    with open(path, "w") as handle:
        for record in records:
            handle.write(
                json.dumps(record, sort_keys=True, separators=(",", ":"))
            )
            handle.write("\n")


def save_results_csv(
    results: typing.Sequence[ExperimentResult], path: str
) -> None:
    """Flat CSV: one row per result, config columns prefixed ``config.``."""
    if not results:
        raise ValueError("no results to save")
    rows = []
    for result in results:
        record = result_to_dict(result)
        row: dict = {}
        for key, value in record["config"].items():
            row[f"config.{key}"] = value
        row["throughput"] = record["throughput"]
        for key, value in record["latency"].items():
            row[f"latency.{key}"] = value
        for key in ("completed", "produced", "duplicates", "inference_requests"):
            row[key] = record[key]
        rows.append(row)
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
