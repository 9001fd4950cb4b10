"""End-to-end CLI coverage: recording flags, store info, the result cache."""

import json
import sqlite3

import pytest

from repro.cli import main
from repro.store import ResultStore


@pytest.fixture(autouse=True)
def _no_ambient_store(monkeypatch):
    monkeypatch.delenv("CRAYFISH_STORE", raising=False)


def test_run_store_flag_records_and_history_reads(tmp_path, capsys):
    db = tmp_path / "store.sqlite"
    code = main([
        "run", "--ir", "50", "--duration", "0.5", "--store", str(db),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert f"recorded 1 run into {db}" in out

    with ResultStore(db, fingerprint="-", git_rev=None) as store:
        rows = store.conn.execute("SELECT label, kind FROM runs").fetchall()
    assert [tuple(row) for row in rows] == [("flink/onnx/ffnn", "run")]

    assert main(["store", "info", "--db", str(db)]) == 0
    info = capsys.readouterr().out
    assert "schema version" in info
    assert "results store" in info


def test_run_without_store_prints_no_recording_line(capsys):
    assert main(["run", "--ir", "50", "--duration", "0.5"]) == 0
    assert "recorded" not in capsys.readouterr().out


def test_store_env_var_enables_recording(tmp_path, monkeypatch, capsys):
    db = tmp_path / "env.sqlite"
    monkeypatch.setenv("CRAYFISH_STORE", str(db))
    assert main(["run", "--ir", "50", "--duration", "0.5"]) == 0
    assert "recorded 1 run into" in capsys.readouterr().out
    assert db.exists()


def test_query_commands_require_an_existing_db(tmp_path, capsys):
    missing = tmp_path / "absent.sqlite"
    assert main(["store", "info", "--db", str(missing)]) == 2
    assert "no results database" in capsys.readouterr().err
    assert not missing.exists()


def test_matrix_store_records_sweep_meta(tmp_path, capsys):
    db = tmp_path / "matrix.sqlite"
    jsonl = tmp_path / "matrix.jsonl"
    argv = [
        "matrix", "--preset", "smoke", "--duration", "0.25", "--seeds", "0",
        "--store", str(db), "--jsonl", str(jsonl),
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert f"recorded 2 new run(s) into {db}" in out
    assert main(argv) == 0
    assert f"recorded 0 new run(s) into {db}" in capsys.readouterr().out

    # Execution metadata lives with the sweep rows, never in the JSONL.
    with sqlite3.connect(db) as conn:
        metas = [
            json.loads(row[0])
            for row in conn.execute("SELECT meta_json FROM sweeps ORDER BY id")
        ]
    assert [(m["tasks"], m["executed"], m["jobs"]) for m in metas] == [
        (2, 2, 1), (2, 0, 1),
    ]
    assert metas[0]["points"] == [{"sps": "flink"}, {"sps": "kafka_streams"}]
    first_line = jsonl.read_text().splitlines()[0]
    assert "executed" not in json.loads(first_line)
    assert not (tmp_path / "matrix.meta.json").exists()

    with ResultStore(db, fingerprint="-", git_rev=None) as store:
        kinds = store.conn.execute("SELECT kind FROM runs").fetchall()
    assert [row["kind"] for row in kinds] == ["matrix", "matrix"]
