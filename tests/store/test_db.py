"""Schema lifecycle and recording semantics of the results database."""

import sqlite3

import pytest

from repro.store import ResultStore, SCHEMA_VERSION, apply_migrations, open_store
from repro.store.migrations import schema_version

from tests.store.conftest import FINGERPRINT, GIT_REV, make_record


def test_fresh_store_lands_on_current_schema(store):
    assert store.schema_version == SCHEMA_VERSION
    tables = {
        row[0]
        for row in store.conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'table'"
        )
    }
    assert {"runs", "sweeps", "series"} <= tables
    assert "artifacts" not in tables  # v3 dropped the import registry


def test_reopening_is_a_noop(tmp_path):
    path = tmp_path / "db.sqlite"
    with ResultStore(path, fingerprint=FINGERPRINT, git_rev=None):
        pass
    conn = sqlite3.connect(path)
    assert apply_migrations(conn) == 0  # already current: nothing to apply
    conn.close()


def test_old_version_database_upgrades_in_place(tmp_path):
    """A v1 database (older build) upgrades to current on open, keeping
    rows."""
    path = tmp_path / "old.sqlite"
    conn = sqlite3.connect(path)
    assert apply_migrations(conn, upto=1) == 1
    assert schema_version(conn) == 1
    # v1 had no cost_proxy column and no series/artifacts tables.
    columns = {row[1] for row in conn.execute("PRAGMA table_info(runs)")}
    assert "cost_proxy" not in columns
    conn.execute(
        "INSERT INTO runs(slot_id, kind, label, sps, serving, model,"
        " seed, fingerprint, recorded_at, record_json)"
        " VALUES ('s', 'run', 'l', 'flink', 'onnx', 'ffnn', 0, 'f', 1.0, '{}')"
    )
    conn.commit()
    conn.close()

    with ResultStore(path, fingerprint=FINGERPRINT, git_rev=None) as store:
        assert store.schema_version == SCHEMA_VERSION
        assert store.counts()["runs"] == 1  # pre-upgrade row survived
    # Second open: migration is idempotent, nothing re-applies.
    with ResultStore(path, fingerprint=FINGERPRINT, git_rev=None) as store:
        assert store.schema_version == SCHEMA_VERSION
        assert store.counts()["runs"] == 1


def test_v2_database_drops_the_import_registry(tmp_path):
    """v3 drops the artifacts table; imported run rows stay as history."""
    path = tmp_path / "v2.sqlite"
    conn = sqlite3.connect(path)
    apply_migrations(conn, upto=2)
    conn.execute(
        "INSERT INTO artifacts(source, sha256, kind, imported_at)"
        " VALUES ('BENCH_metrics.json', 'digest', 'bench', 1.0)"
    )
    conn.execute(
        "INSERT INTO runs(slot_id, kind, source, label, sps, serving, model,"
        " seed, fingerprint, recorded_at, record_json) VALUES ('s', 'bench',"
        " 'import:bench_metrics', 'l', 'flink', 'onnx', 'ffnn', 0, 'f', 1.0,"
        " '{}')"
    )
    conn.commit()
    conn.close()

    with ResultStore(path, fingerprint=FINGERPRINT, git_rev=None) as store:
        assert store.schema_version == SCHEMA_VERSION == 3
        assert store.counts() == {"runs": 1, "sweeps": 0, "series": 0}
        tables = {
            row[0]
            for row in store.conn.execute(
                "SELECT name FROM sqlite_master WHERE type = 'table'"
            )
        }
        assert "artifacts" not in tables


def test_newer_database_is_refused(tmp_path):
    path = tmp_path / "future.sqlite"
    conn = sqlite3.connect(path)
    conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION + 1}")
    conn.commit()
    conn.close()
    with pytest.raises(RuntimeError, match="newer"):
        ResultStore(path, fingerprint=FINGERPRINT, git_rev=None)


def test_bad_migration_target_rejected(tmp_path):
    conn = sqlite3.connect(tmp_path / "x.sqlite")
    with pytest.raises(ValueError, match="target version"):
        apply_migrations(conn, upto=SCHEMA_VERSION + 1)


def test_record_and_load_run(store):
    record = make_record()
    run_id = store.record_run(record, kind="run")
    row = store.run(run_id)
    assert row["kind"] == "run"
    assert row["source"] == "live"
    assert row["label"] == "flink/onnx/ffnn"
    assert row["seed"] == 0
    assert row["fingerprint"] == FINGERPRINT
    assert row["git_rev"] == GIT_REV
    assert row["recorded_at"] == 1.0  # first clock tick
    assert row["throughput"] == record["throughput"]
    assert store.load_record(run_id) == record


def test_series_round_trip(store):
    series = {
        "queue": {"last": 1.0, "peak": 9.0, "mean": 3.5, "samples": 40},
        "lag": {"last": 0.0, "peak": 2.0, "mean": 0.5, "samples": 40},
    }
    run_id = store.record_run(make_record(), series=series)
    assert store.series_of(run_id) == series
    assert store.series_of(run_id + 999) == {}


def test_load_record_unknown_id(store):
    with pytest.raises(KeyError):
        store.load_record(1234)


def test_sweep_grouping_and_meta_update(store):
    sweep_id = store.record_sweep("matrix", "smoke", {"jobs": 2})
    store.record_run(make_record(seed=0), kind="matrix", sweep_id=sweep_id)
    store.record_run(make_record(seed=1), kind="matrix", sweep_id=sweep_id)
    store.update_sweep_meta(sweep_id, {"jobs": 2, "cache": {"hits": 1}})
    row = store.conn.execute(
        "SELECT * FROM sweeps WHERE id = ?", (sweep_id,)
    ).fetchone()
    assert row["kind"] == "matrix"
    assert row["meta_json"] == '{"cache":{"hits":1},"jobs":2}'
    members = store.conn.execute(
        "SELECT COUNT(*) FROM runs WHERE sweep_id = ?", (sweep_id,)
    ).fetchone()[0]
    assert members == 2


def test_open_store_none_for_falsy_path(tmp_path):
    assert open_store(None) is None
    assert open_store("") is None
    with open_store(
        tmp_path / "s.sqlite", fingerprint=FINGERPRINT, git_rev=None
    ) as store:
        assert store.schema_version == SCHEMA_VERSION
