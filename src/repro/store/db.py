"""The SQLite-backed results database (``repro.store``).

One file holds the repository's recorded runs and is its result
cache: every run — single ``crayfish run``, matrix or sweep task,
capacity-search probe, chaos scenario — is a row keyed by the content
address of its (canonical config, seed) experiment, stamped with the
code fingerprint, the git revision, and the wall-clock recording time.
The shape follows the suites/benchmarks/results, checksum-keyed layout
of benchy's ``db.py``: ``sweeps`` group runs the way suites group
benchmarks, and ``slot_id`` is the checksum that makes the same
experiment comparable across revisions. A row whose slot and
fingerprint match a pending task is that task's result, so
:meth:`ResultStore.lookup` serves it instead of re-running.

Recording happens *after* a simulation finishes: a store never touches
the event loop, the RNG streams, or any export, so every artifact is
byte-identical with recording on or off (``crayfish verify-order``
holds either way).
"""

from __future__ import annotations

import pathlib
import sqlite3
import subprocess
import time
import typing

from repro.store.migrations import (
    SCHEMA_VERSION,
    apply_migrations,
    schema_version,
)
from repro.store.record import (
    canonical_json,
    record_from_row,
    run_row_from_record,
    slot_id_of,
)

#: Default database location, relative to the working directory.
DEFAULT_STORE_PATH = ".crayfish-store.sqlite"

_git_rev_cache: dict[str, str | None] = {}


def current_git_rev(cwd: str | None = None) -> str | None:
    """The checked-out git revision (short), or None outside a repo.

    Memoized per directory: the revision cannot change under a running
    process that is recording results it just produced.
    """
    key = cwd or "."
    if key not in _git_rev_cache:
        try:
            proc = subprocess.run(
                ["git", "rev-parse", "--short=12", "HEAD"],
                cwd=cwd,
                capture_output=True,
                text=True,
                timeout=10,
            )
            rev = proc.stdout.strip()
            _git_rev_cache[key] = rev if proc.returncode == 0 and rev else None
        except (OSError, subprocess.SubprocessError):
            _git_rev_cache[key] = None
    return _git_rev_cache[key]


class ResultStore:
    """Append-mostly ledger of experiment results under ``path``.

    ``fingerprint`` defaults to the digest of the installed ``repro``
    source tree; ``git_rev`` to the checked-out revision; ``clock`` to
    wall time. All three are injectable so tests can pin them. Writes go
    through SQLite transactions, so a killed process never leaves a torn
    row — at worst the last run is simply absent and re-records on the
    next attempt.
    """

    def __init__(
        self,
        path: str | pathlib.Path,
        fingerprint: str | None = None,
        git_rev: typing.Any = ...,
        clock: typing.Callable[[], float] | None = None,
    ) -> None:
        self.path = pathlib.Path(path)
        if str(self.path) != ":memory:" and str(self.path.parent) not in (
            "",
            ".",
        ):
            self.path.parent.mkdir(parents=True, exist_ok=True)
        if fingerprint is None:
            from repro.matrix.fingerprint import code_fingerprint

            fingerprint = code_fingerprint()
        self.fingerprint = fingerprint
        self.git_rev = current_git_rev() if git_rev is ... else git_rev
        # Boundary module: recording timestamps real results after the
        # simulation has finished is exactly what wall time is for.
        # crayfish: allow[wall-clock]: recorded-at stamps are post-run provenance, never simulation input
        self.clock = time.time if clock is None else clock
        self.conn = sqlite3.connect(str(self.path))
        self.conn.row_factory = sqlite3.Row
        self.conn.execute("PRAGMA foreign_keys = ON")
        apply_migrations(self.conn)

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        self.conn.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info: typing.Any) -> None:
        self.close()

    @property
    def schema_version(self) -> int:
        return schema_version(self.conn)

    # -- recording ---------------------------------------------------------

    def record_sweep(
        self, kind: str, label: str, meta: dict | None = None
    ) -> int:
        """Open a sweep (a group of runs recorded together); returns id."""
        with self.conn:
            cursor = self.conn.execute(
                "INSERT INTO sweeps(kind, label, recorded_at, git_rev,"
                " fingerprint, meta_json) VALUES (?, ?, ?, ?, ?, ?)",
                (
                    kind,
                    label,
                    self.clock(),
                    self.git_rev,
                    self.fingerprint,
                    canonical_json(meta or {}),
                ),
            )
        return int(cursor.lastrowid)

    def update_sweep_meta(self, sweep_id: int, meta: dict) -> None:
        """Replace a sweep's metadata (e.g. a finished search's outcome)."""
        with self.conn:
            self.conn.execute(
                "UPDATE sweeps SET meta_json = ? WHERE id = ?",
                (canonical_json(meta), sweep_id),
            )

    def record_run(
        self,
        record: dict,
        kind: str = "run",
        sweep_id: int | None = None,
        series: dict[str, dict] | None = None,
        label: str | None = None,
    ) -> int:
        """Insert one full result record; returns the new run id.

        ``record`` is the dict from
        :func:`repro.core.results_io.result_record`. ``series`` attaches
        per-metric-series summaries (last/peak/mean/samples, the shape
        of :func:`repro.metrics.export.series_summaries`) when the run
        was telemetry-on.
        """
        row = run_row_from_record(
            record,
            kind=kind,
            fingerprint=self.fingerprint,
            git_rev=self.git_rev,
            recorded_at=self.clock(),
            label=label,
        )
        with self.conn:
            cursor = self.conn.execute(
                "INSERT INTO runs(sweep_id, slot_id, kind, label,"
                " sps, serving, model, nodes, seed, fingerprint, git_rev,"
                " recorded_at, throughput, latency_mean, latency_p50,"
                " latency_p95, latency_p99, latency_p999, completed,"
                " produced, duplicates, inference_requests, measure_start,"
                " measure_end, cost_proxy, record_json) VALUES"
                " (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?,"
                " ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    sweep_id,
                    row.slot_id,
                    row.kind,
                    row.label,
                    row.sps,
                    row.serving,
                    row.model,
                    row.nodes,
                    row.seed,
                    row.fingerprint,
                    row.git_rev,
                    row.recorded_at,
                    row.throughput,
                    row.latency_mean,
                    row.latency_p50,
                    row.latency_p95,
                    row.latency_p99,
                    row.latency_p999,
                    row.completed,
                    row.produced,
                    row.duplicates,
                    row.inference_requests,
                    row.measure_start,
                    row.measure_end,
                    row.cost_proxy,
                    canonical_json(row.record),
                ),
            )
            run_id = int(cursor.lastrowid)
            if series:
                self.conn.executemany(
                    "INSERT OR REPLACE INTO series(run_id, name, last,"
                    " peak, mean, samples) VALUES (?, ?, ?, ?, ?, ?)",
                    [
                        (
                            run_id,
                            name,
                            summary.get("last"),
                            summary.get("peak"),
                            summary.get("mean"),
                            summary.get("samples", 0),
                        )
                        for name, summary in sorted(series.items())
                    ],
                )
        return run_id

    def record_result(
        self,
        result: typing.Any,
        seed: int | None = None,
        kind: str = "run",
        sweep_id: int | None = None,
        label: str | None = None,
    ) -> int:
        """Record a live :class:`~repro.core.runner.ExperimentResult`.

        Serializes through the same
        :func:`~repro.core.results_io.result_record` round-trip the
        matrix engine uses, and — when the run was metrics-on —
        attaches the scraped series summaries.
        """
        from repro.core.results_io import result_record
        from repro.metrics.export import series_summaries

        record = result_record(
            result, seed=result.config.seed if seed is None else seed
        )
        series = None
        if result.telemetry is not None:
            series = series_summaries(result.telemetry.scraper)
        return self.record_run(
            record, kind=kind, sweep_id=sweep_id, series=series, label=label
        )

    # -- reading -----------------------------------------------------------

    def lookup(self, config_dict: dict, seed: int) -> dict | None:
        """The record this code already measured for (config, seed).

        The result-cache lookup: the newest row in the experiment's slot
        that carries the current code fingerprint, or None. Only
        ``source = 'live'`` rows qualify — databases from older builds
        may hold partial rows imported from committed files, which must
        never be served as results.
        """
        row = self.conn.execute(
            "SELECT record_json FROM runs WHERE slot_id = ?"
            " AND fingerprint = ? AND source = 'live'"
            " ORDER BY id DESC LIMIT 1",
            (slot_id_of(config_dict, seed), self.fingerprint),
        ).fetchone()
        return None if row is None else record_from_row(row)

    def run(self, run_id: int) -> sqlite3.Row | None:
        return self.conn.execute(
            "SELECT * FROM runs WHERE id = ?", (run_id,)
        ).fetchone()

    def load_record(self, run_id: int) -> dict:
        """The full result record stored for ``run_id`` (lossless)."""
        row = self.run(run_id)
        if row is None:
            raise KeyError(f"no run with id {run_id}")
        return record_from_row(row)

    def series_of(self, run_id: int) -> dict[str, dict]:
        """Stored metric-series summaries for one run (may be empty)."""
        rows = self.conn.execute(
            "SELECT name, last, peak, mean, samples FROM series"
            " WHERE run_id = ? ORDER BY name",
            (run_id,),
        ).fetchall()
        return {
            row["name"]: {
                "last": row["last"],
                "peak": row["peak"],
                "mean": row["mean"],
                "samples": row["samples"],
            }
            for row in rows
        }

    def counts(self) -> dict[str, int]:
        """Row counts per table — the ``crayfish store info`` summary."""
        return {
            table: int(
                self.conn.execute(
                    f"SELECT COUNT(*) FROM {table}"  # noqa: S608 - fixed names
                ).fetchone()[0]
            )
            for table in ("runs", "sweeps", "series")
        }


def open_store(
    path: str | pathlib.Path | None,
    **kwargs: typing.Any,
) -> ResultStore | None:
    """A :class:`ResultStore` for ``path``, or None when path is falsy.

    ``crayfish run`` with neither ``--store`` nor ``$CRAYFISH_STORE``
    records nothing; its run is bit-for-bit identical either way.
    """
    if not path:
        return None
    return ResultStore(path, **kwargs)


__all__ = [
    "DEFAULT_STORE_PATH",
    "ResultStore",
    "SCHEMA_VERSION",
    "current_git_rev",
    "open_store",
]
