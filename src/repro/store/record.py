"""Turning run results into database rows (and back).

The store persists the *full* result record (the same dict the matrix
engine round-trips through :mod:`repro.core.results_io`, and replays
from the store on a cache hit) as canonical JSON, plus a denormalized set
of aggregate columns for querying. :func:`run_row_from_record` computes
those columns; :func:`record_from_row` recovers the exact record — the
store→load round-trip is lossless by construction because the columns
are derived and the JSON is authoritative.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import typing

from repro.config import EMBEDDED_TOOLS


def canonical_json(value: typing.Any) -> str:
    """Deterministic JSON: sorted keys, compact separators."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def slot_id_of(config_dict: dict, seed: int | None) -> str:
    """Content address of one (canonical config, run seed) experiment.

    The only place a slot is computed. The run seed substitutes the
    config's own ``seed`` field (``ExperimentRunner.run(seed=...)``
    overrides it), so two configs differing only in that field describe
    the same run and share a slot. The result-cache lookup finds exactly
    the experiment at hand by it.
    """
    canonical = dict(config_dict)
    if seed is not None:
        canonical["seed"] = seed
    return hashlib.sha256(canonical_json(canonical).encode()).hexdigest()


def _nodes_of(config_dict: dict) -> int:
    cluster = config_dict.get("cluster")
    if isinstance(cluster, dict):
        return int(cluster.get("nodes", 1))
    return 1


def _engine_workers(config_dict: dict) -> int:
    """Task slots the engine deploys for this config."""
    cluster = config_dict.get("cluster")
    mp = int(config_dict.get("mp", 1))
    if isinstance(cluster, dict):
        per_node = cluster.get("tasks_per_node") or mp
        return int(per_node) * int(cluster.get("nodes", 1))
    return mp


def _serving_workers(config_dict: dict) -> int:
    """Worker processes on the serving side (0 for embedded tools)."""
    serving = config_dict.get("serving")
    if serving in EMBEDDED_TOOLS:
        return 0
    cluster = config_dict.get("cluster")
    if isinstance(cluster, dict):
        return int(cluster.get("replicas_per_node", 1)) * int(
            cluster.get("nodes", 1)
        )
    workers = config_dict.get("server_workers")
    if workers is None:
        autoscale = config_dict.get("autoscale")
        if autoscale:
            return int(autoscale[1])  # budget for the scaled-out maximum
        workers = config_dict.get("mp", 1)
    return int(workers)


def cost_proxy(config_dict: dict, record: dict) -> float | None:
    """Worker-seconds per 1000 completed events — the cost stand-in.

    A deterministic function of the configuration and the run's
    completion count: (engine task slots + serving workers) x simulated
    duration, normalized per 1000 completed events. It is a *proxy* —
    no dollars, no per-instance pricing — but it orders configurations
    the way "On the Cost of Model-Serving Frameworks" orders real
    deployments: more replicas must buy proportionate throughput or
    their cost per event rises. Stored in the ``runs.cost_proxy``
    column. None when the run completed nothing.
    """
    completed = record.get("completed") or 0
    duration = float(config_dict.get("duration") or 0.0)
    if completed <= 0 or duration <= 0:
        return None
    workers = _engine_workers(config_dict) + _serving_workers(config_dict)
    return workers * duration / completed * 1000.0


def _clean(value: float | None) -> float | None:
    """NaN -> None for numeric columns (SQLite has no NaN)."""
    if value is None:
        return None
    value = float(value)
    return None if math.isnan(value) else value


@dataclasses.dataclass(frozen=True)
class RunRow:
    """One run, denormalized for the ``runs`` table.

    ``record`` is the authoritative full result record; every other
    field is derived from it (plus the recording context) and exists for
    SQL-side filtering and aggregation.
    """

    slot_id: str
    kind: str
    label: str
    sps: str
    serving: str
    model: str
    nodes: int
    seed: int | None
    fingerprint: str
    git_rev: str | None
    recorded_at: float
    throughput: float | None
    latency_mean: float | None
    latency_p50: float | None
    latency_p95: float | None
    latency_p99: float | None
    latency_p999: float | None
    completed: int | None
    produced: int | None
    duplicates: int | None
    inference_requests: int | None
    measure_start: float | None
    measure_end: float | None
    cost_proxy: float | None
    record: dict


def run_row_from_record(
    record: dict,
    kind: str = "run",
    fingerprint: str = "",
    git_rev: str | None = None,
    recorded_at: float = 0.0,
    label: str | None = None,
) -> RunRow:
    """Derive the denormalized row for one full result record.

    ``record`` must carry a canonical ``config`` block (as written by
    :func:`repro.core.results_io.result_record`); ``seed`` is read from
    the record when present, else from the config.
    """
    config = record["config"]
    seed = record.get("seed", config.get("seed"))
    latency = record.get("latency") or {}
    if label is None:
        suffix = "-gpu" if config.get("gpu") else ""
        nodes = _nodes_of(config)
        cluster_suffix = f"@{nodes}n" if config.get("cluster") else ""
        label = (
            f"{config['sps']}/{config['serving']}{suffix}/"
            f"{config['model']}{cluster_suffix}"
        )
    return RunRow(
        slot_id=slot_id_of(config, seed),
        kind=kind,
        label=label,
        sps=config["sps"],
        serving=config["serving"],
        model=config["model"],
        nodes=_nodes_of(config),
        seed=seed,
        fingerprint=fingerprint,
        git_rev=git_rev,
        recorded_at=recorded_at,
        throughput=_clean(record.get("throughput")),
        latency_mean=_clean(latency.get("mean")),
        latency_p50=_clean(latency.get("p50")),
        latency_p95=_clean(latency.get("p95")),
        latency_p99=_clean(latency.get("p99")),
        latency_p999=_clean(latency.get("p999")),
        completed=record.get("completed"),
        produced=record.get("produced"),
        duplicates=record.get("duplicates"),
        inference_requests=record.get("inference_requests"),
        measure_start=_clean(record.get("measure_start")),
        measure_end=_clean(record.get("measure_end")),
        cost_proxy=cost_proxy(config, record),
        record=record,
    )


def record_from_row(row: typing.Mapping) -> dict:
    """The full result record a stored row was built from (lossless)."""
    return json.loads(row["record_json"])

