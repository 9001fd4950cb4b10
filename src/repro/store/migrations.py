"""Versioned, idempotent schema migrations for the results database.

The schema version lives in SQLite's ``PRAGMA user_version``. Each
migration is a list of DDL statements that moves the database up exactly
one version; :func:`apply_migrations` replays, inside one transaction
per step, every migration above the database's current version and
stamps the new version atomically with it. Opening a database therefore
always lands on :data:`SCHEMA_VERSION`, opening it again is a no-op, and
a database written by an older build upgrades in place without touching
existing rows.
"""

from __future__ import annotations

import sqlite3

#: Current schema version — the version a freshly opened store has.
SCHEMA_VERSION = 3

#: migration index i upgrades a version-i database to version i+1.
MIGRATIONS: tuple[tuple[str, ...], ...] = (
    # -- v0 -> v1: the core run ledger -----------------------------------
    (
        """
        CREATE TABLE IF NOT EXISTS sweeps(
            id INTEGER PRIMARY KEY AUTOINCREMENT,
            kind TEXT NOT NULL,
            label TEXT NOT NULL,
            recorded_at REAL NOT NULL,
            git_rev TEXT,
            fingerprint TEXT NOT NULL,
            meta_json TEXT NOT NULL
        )
        """,
        """
        CREATE TABLE IF NOT EXISTS runs(
            id INTEGER PRIMARY KEY AUTOINCREMENT,
            sweep_id INTEGER REFERENCES sweeps(id),
            slot_id TEXT NOT NULL,
            kind TEXT NOT NULL,
            source TEXT NOT NULL DEFAULT 'live',
            label TEXT NOT NULL,
            sps TEXT NOT NULL,
            serving TEXT NOT NULL,
            model TEXT NOT NULL,
            nodes INTEGER NOT NULL DEFAULT 1,
            seed INTEGER,
            fingerprint TEXT NOT NULL,
            git_rev TEXT,
            recorded_at REAL NOT NULL,
            throughput REAL,
            latency_mean REAL,
            latency_p50 REAL,
            latency_p95 REAL,
            latency_p99 REAL,
            latency_p999 REAL,
            completed INTEGER,
            produced INTEGER,
            duplicates INTEGER,
            inference_requests INTEGER,
            measure_start REAL,
            measure_end REAL,
            record_json TEXT NOT NULL
        )
        """,
        "CREATE INDEX IF NOT EXISTS runs_by_slot"
        " ON runs(slot_id, recorded_at)",
        "CREATE INDEX IF NOT EXISTS runs_by_label"
        " ON runs(label, recorded_at)",
    ),
    # -- v1 -> v2: cost accounting, series summaries, import provenance --
    (
        "ALTER TABLE runs ADD COLUMN cost_proxy REAL",
        """
        CREATE TABLE IF NOT EXISTS series(
            run_id INTEGER NOT NULL REFERENCES runs(id),
            name TEXT NOT NULL,
            last REAL,
            peak REAL,
            mean REAL,
            samples INTEGER NOT NULL,
            PRIMARY KEY(run_id, name)
        )
        """,
        """
        CREATE TABLE IF NOT EXISTS artifacts(
            id INTEGER PRIMARY KEY AUTOINCREMENT,
            source TEXT NOT NULL,
            sha256 TEXT NOT NULL,
            kind TEXT NOT NULL,
            imported_at REAL NOT NULL,
            UNIQUE(source, sha256)
        )
        """,
    ),
    # -- v2 -> v3: committed files are no longer imported ----------------
    ("DROP TABLE IF EXISTS artifacts",),
)

assert len(MIGRATIONS) == SCHEMA_VERSION


def schema_version(conn: sqlite3.Connection) -> int:
    """The database's stamped schema version (0 = empty/unversioned)."""
    return int(conn.execute("PRAGMA user_version").fetchone()[0])


def apply_migrations(
    conn: sqlite3.Connection, upto: int = SCHEMA_VERSION
) -> int:
    """Bring ``conn`` up to version ``upto``; returns migrations applied.

    Each step runs in its own transaction together with the version
    stamp, so an interrupted upgrade leaves the database at the last
    *completed* version — re-opening simply resumes. Applying to an
    already-current database executes nothing.
    """
    if not 0 <= upto <= SCHEMA_VERSION:
        raise ValueError(
            f"target version must be in [0, {SCHEMA_VERSION}], got {upto}"
        )
    current = schema_version(conn)
    if current > SCHEMA_VERSION:
        raise RuntimeError(
            f"results database is schema v{current}, newer than this "
            f"build's v{SCHEMA_VERSION}; refusing to touch it"
        )
    applied = 0
    for version in range(current, upto):
        with conn:  # one transaction per migration step
            for statement in MIGRATIONS[version]:
                conn.execute(statement)
            # PRAGMA cannot be parameterized; version is a trusted int.
            conn.execute(f"PRAGMA user_version = {version + 1}")
        applied += 1
    return applied
