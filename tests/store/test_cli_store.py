"""End-to-end CLI coverage: recording flags, query commands, the CI gate."""

import json
import sqlite3

import pytest

from repro.cli import main


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

    assert main(["history", "--db", str(db), "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 1
    assert rows[0]["label"] == "flink/onnx/ffnn"
    assert rows[0]["kind"] == "run"

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
    for argv in (
        ["history", "--db", str(missing)],
        ["trend", "--db", str(missing)],
        ["pareto", "--db", str(missing)],
        ["store", "info", "--db", str(missing)],
    ):
        assert main(argv) == 2
        assert "no results database" in capsys.readouterr().err


def test_regress_gate_passes_then_catches_seeded_slowdown(tmp_path, capsys):
    db = tmp_path / "gate.sqlite"
    argv = [
        "regress", "--ir", "50", "--duration", "0.5",
        "--seed", "3", "--db", str(db),
    ]
    # First run: no baseline yet -> recorded, gate passes.
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "no stored baseline" in out

    # Identical re-run: compares equal, re-records as the new baseline.
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "baseline" in out
    assert "ok" in out

    # Seeded slowdown: every gated metric regresses, exit nonzero, and
    # the degraded run must NOT poison the baseline.
    assert main(argv + ["--self-test-slowdown", "2.0"]) == 1
    captured = capsys.readouterr()
    assert "REGRESSED" in captured.out
    assert "run not recorded" in captured.err

    # The baseline survived the failed gate: an honest run still passes.
    assert main(argv) == 0


def test_regress_threshold_override_and_validation(tmp_path, capsys):
    db = tmp_path / "thresh.sqlite"
    argv = [
        "regress", "--ir", "50", "--duration", "0.5", "--db", str(db),
    ]
    assert main(argv) == 0
    capsys.readouterr()
    # An absurdly loose threshold lets even a halved throughput pass.
    assert main(
        argv + ["--self-test-slowdown", "2.0",
                "--threshold", "throughput=10.0",
                "--threshold", "latency_mean=10.0",
                "--threshold", "latency_p95=10.0",
                "--threshold", "latency_p99=10.0"]
    ) == 0
    capsys.readouterr()
    assert main(argv + ["--threshold", "vibes=0.1"]) == 2
    assert "unknown metric" in capsys.readouterr().err


def test_trend_and_pareto_render_after_two_recordings(tmp_path, capsys):
    db = tmp_path / "trend.sqlite"
    argv = ["run", "--ir", "50", "--duration", "0.5", "--store", str(db)]
    assert main(argv) == 0
    assert main(argv) == 0
    capsys.readouterr()

    assert main(["trend", "--db", str(db), "--json"]) == 0
    series = json.loads(capsys.readouterr().out)
    assert len(series) == 1
    assert series[0]["metric"] == "throughput"
    assert len(series[0]["points"]) == 2

    assert main(["trend", "--db", str(db), "--metric", "nope"]) == 2
    capsys.readouterr()

    assert main(["pareto", "--db", str(db), "--json"]) == 0
    points = json.loads(capsys.readouterr().out)
    assert len(points) == 1  # latest-per-slot: two recordings, one point
    assert points[0]["on_frontier"] is True


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

    assert main(["history", "--db", str(db), "--kind", "matrix"]) == 0
    assert "matrix" in capsys.readouterr().out
