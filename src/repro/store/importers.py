"""Backfilling the results database from committed artifacts.

``crayfish store import`` seeds history from what the repository already
ships: the BENCH_metrics.json telemetry baseline, the golden matrix and
scale-out regression files, and any result exports under
``benchmarks/results/``. Imports are idempotent — every source file is
registered by (path, sha256) in the ``artifacts`` table and an unchanged
file never imports twice — and imported rows carry ``source`` tags so
live measurements stay distinguishable from backfill.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import typing

from repro.store.db import ResultStore
from repro.store.record import parse_label, run_row_from_record


@dataclasses.dataclass
class ImportReport:
    """What one import pass did."""

    runs: int = 0
    series: int = 0
    artifacts: int = 0
    skipped: list[str] = dataclasses.field(default_factory=list)

    def merge(self, other: "ImportReport") -> None:
        self.runs += other.runs
        self.series += other.series
        self.artifacts += other.artifacts
        self.skipped.extend(other.skipped)

    def summary(self) -> str:
        parts = [
            f"{self.runs} run(s)",
            f"{self.series} series summarie(s)",
            f"{self.artifacts} artifact(s) registered",
        ]
        if self.skipped:
            parts.append(f"{len(self.skipped)} unchanged file(s) skipped")
        return ", ".join(parts)


def _sha256(path: pathlib.Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _claim(
    store: ResultStore, path: pathlib.Path, kind: str, report: ImportReport
) -> bool:
    """Register ``path`` as imported; False when this content already was."""
    if store.record_artifact(str(path), _sha256(path), kind):
        report.artifacts += 1
        return True
    report.skipped.append(str(path))
    return False


def bench_slot(label: str) -> str:
    """Stable pseudo-slot for one bench-telemetry label.

    Bench entries carry no full config, so they cannot be content-
    addressed like live runs; the label-derived slot keeps the imported
    baseline and every later live bench recording of the same engine in
    one longitudinal series for ``crayfish trend``/``regress``.
    """
    return hashlib.sha256(f"bench:{label}".encode()).hexdigest()


def record_bench_entries(
    store: ResultStore,
    entries: dict[str, dict],
    kind: str = "bench",
    source: str = "bench",
    origin: dict | None = None,
) -> ImportReport:
    """Record label → telemetry-summary entries (the BENCH_metrics shape).

    Each entry is one engine's metrics-on profile: headline throughput/
    latency plus per-series summaries, as produced by
    ``benchmarks.bench_util.telemetry_summary``. Shared by the
    BENCH_metrics importer and the live benchmark recorder so both feed
    the same slots.
    """
    report = ImportReport()
    for label in sorted(entries):
        summary = entries[label]
        try:
            sps, serving, model, nodes = parse_label(label)
        except ValueError:
            report.skipped.append(label)
            continue
        series = summary.get("series") or {}
        record = {
            "config": {"sps": sps, "serving": serving, "model": model},
            "throughput": summary.get("throughput"),
            "latency": {
                "mean": summary.get("latency_mean"),
                "p95": summary.get("latency_p95"),
            },
            "completed": summary.get("completed"),
        }
        if origin:
            record["import"] = dict(origin, label=label)
        row = run_row_from_record(
            record,
            kind=kind,
            source=source,
            fingerprint=store.fingerprint,
            git_rev=store.git_rev,
            recorded_at=store.clock(),
            label=label,
        )
        row = dataclasses.replace(row, slot_id=bench_slot(label), nodes=nodes)
        store._insert_row(row, series=series)
        report.runs += 1
        report.series += len(series)
    return report


def import_bench_metrics(
    store: ResultStore, path: str | pathlib.Path
) -> ImportReport:
    """Backfill the BENCH_metrics.json telemetry baseline."""
    report = ImportReport()
    path = pathlib.Path(path)
    if not path.is_file():
        return report
    if not _claim(store, path, "bench_metrics", report):
        return report
    payload = json.loads(path.read_text())
    report.merge(
        record_bench_entries(
            store,
            payload,
            source="import:bench_metrics",
            origin={"source": str(path)},
        )
    )
    return report


def _import_golden(
    store: ResultStore,
    path: pathlib.Path,
    kind: str,
    source: str,
    report: ImportReport,
) -> None:
    """Shared shape of matrix_golden.json / scaleout_golden.json.

    The golden documents store the canonical base config, the grid, and
    per-point per-seed aggregate records. Overrides that are plain
    config fields merge into the base config (giving a true
    content-addressed slot); presentation-only overrides (e.g. the
    scale-out file's ``cluster: "3n"`` shorthand) fold into the label
    and a derived pseudo-slot instead.
    """
    if not _claim(store, path, kind, report):
        return
    payload = json.loads(path.read_text())
    base = payload.get("base") or {}
    # Fields whose golden overrides are display shorthands (the
    # scale-out file writes ``cluster: "3n"``), not mergeable values.
    structured = {"cluster", "population", "fault_plan", "resilience"}
    for point in payload.get("points", ()):
        overrides = point.get("overrides") or {}
        config = dict(base)
        label_bits = []
        mergeable = True
        nodes = None
        for key in sorted(overrides):
            value = overrides[key]
            if key in base and key not in structured:
                config[key] = value
            else:
                mergeable = False
                if (
                    key == "cluster"
                    and isinstance(value, str)
                    and value.endswith("n")
                    and value[:-1].isdigit()
                ):
                    nodes = int(value[:-1])
            label_bits.append(f"{key}={value}")
        for run in point.get("runs", ()):
            record = {
                "config": config,
                "seed": run.get("seed"),
                "throughput": run.get("throughput"),
                "latency": run.get("latency") or {},
                "completed": run.get("completed"),
                "produced": run.get("produced"),
                "duplicates": run.get("duplicates"),
                "inference_requests": run.get("inference_requests"),
                "import": {"source": str(path), "overrides": overrides},
            }
            row = run_row_from_record(
                record,
                kind="golden",
                source=source,
                fingerprint=store.fingerprint,
                git_rev=store.git_rev,
                recorded_at=store.clock(),
            )
            if not mergeable:
                slot = hashlib.sha256(
                    f"import:{kind}:{' '.join(label_bits)}"
                    f":seed={run.get('seed')}".encode()
                ).hexdigest()
                row = dataclasses.replace(
                    row,
                    slot_id=slot,
                    label=f"{row.label} [{' '.join(label_bits)}]",
                    nodes=nodes if nodes is not None else row.nodes,
                )
            store._insert_row(row)
            report.runs += 1


def import_matrix_golden(
    store: ResultStore, path: str | pathlib.Path
) -> ImportReport:
    report = ImportReport()
    path = pathlib.Path(path)
    if path.is_file():
        _import_golden(
            store, path, "matrix_golden", "import:matrix_golden", report
        )
    return report


def import_scaleout_golden(
    store: ResultStore, path: str | pathlib.Path
) -> ImportReport:
    report = ImportReport()
    path = pathlib.Path(path)
    if path.is_file():
        _import_golden(
            store, path, "scaleout_golden", "import:scaleout_golden", report
        )
    return report


def import_results_dir(
    store: ResultStore, root: str | pathlib.Path
) -> ImportReport:
    """Register benchmarks/results artifacts; import any record exports.

    The committed ``.txt`` tables are provenance (formatted for humans,
    registered by digest so history knows they existed); ``.jsonl``
    record exports — e.g. a ``crayfish matrix --jsonl`` dropped there —
    import as full runs.
    """
    report = ImportReport()
    root = pathlib.Path(root)
    if not root.is_dir():
        return report
    for path in sorted(root.iterdir()):
        if path.suffix == ".txt":
            _claim(store, path, "result_table", report)
        elif path.suffix == ".jsonl":
            if not _claim(store, path, "result_records", report):
                continue
            from repro.core.results_io import load_records_jsonl

            for record in load_records_jsonl(str(path)):
                if "config" not in record:
                    continue
                store.record_run(
                    record, kind="matrix", source=f"import:{path.name}"
                )
                report.runs += 1
    return report


def import_all(
    store: ResultStore,
    repo_root: str | pathlib.Path = ".",
    hook: typing.Callable[[str, ImportReport], None] | None = None,
) -> ImportReport:
    """Backfill every known artifact under ``repo_root``."""
    root = pathlib.Path(repo_root)
    report = ImportReport()
    steps: tuple[tuple[str, typing.Callable[[], ImportReport]], ...] = (
        (
            "BENCH_metrics.json",
            lambda: import_bench_metrics(store, root / "BENCH_metrics.json"),
        ),
        (
            "tests/golden/matrix_golden.json",
            lambda: import_matrix_golden(
                store, root / "tests" / "golden" / "matrix_golden.json"
            ),
        ),
        (
            "tests/golden/scaleout_golden.json",
            lambda: import_scaleout_golden(
                store, root / "tests" / "golden" / "scaleout_golden.json"
            ),
        ),
        (
            "benchmarks/results/",
            lambda: import_results_dir(
                store, root / "benchmarks" / "results"
            ),
        ),
    )
    for name, step in steps:
        partial = step()
        if hook is not None:
            hook(name, partial)
        report.merge(partial)
    return report
