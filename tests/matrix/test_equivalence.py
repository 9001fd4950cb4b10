"""Equivalence guarantees of the matrix engine.

``jobs=1`` and ``jobs=4`` must produce byte-identical exports for the
same grid, and a replay from the results store must be
indistinguishable from a cold run — these are the engine's core
contracts (deterministic merge plus a lossless serialization
round-trip).
"""

import pytest

from repro.config import ExperimentConfig
from repro.core.results_io import (
    save_records_jsonl,
    save_results,
    save_results_csv,
)
from repro.matrix import run_matrix
from repro.store import ResultStore

BASE = ExperimentConfig(
    sps="flink", serving="onnx", model="ffnn", ir=50.0, duration=1.0
)
GRID = {"mp": (1, 2)}
SEEDS = (0, 1)


def _export_bytes(report, directory, tag):
    jsonl = directory / f"{tag}.jsonl"
    full = directory / f"{tag}.json"
    csv = directory / f"{tag}.csv"
    save_records_jsonl(report.records, str(jsonl))
    save_results(report.results, str(full))
    save_results_csv(report.results, str(csv))
    return jsonl.read_bytes(), full.read_bytes(), csv.read_bytes()


def test_parallel_matches_serial_byte_for_byte(tmp_path):
    serial = run_matrix(BASE, GRID, seeds=SEEDS, jobs=1)
    parallel = run_matrix(BASE, GRID, seeds=SEEDS, jobs=4)
    assert serial.records == parallel.records
    assert [p.overrides for p in serial.points] == [
        p.overrides for p in parallel.points
    ]
    assert [p.results for p in serial.points] == [
        p.results for p in parallel.points
    ]
    assert _export_bytes(serial, tmp_path, "serial") == _export_bytes(
        parallel, tmp_path, "parallel"
    )


def test_parallel_hook_order_is_grid_order():
    orders = []
    for jobs in (1, 4):
        seen = []
        run_matrix(
            BASE,
            GRID,
            seeds=(0,),
            jobs=jobs,
            hook=lambda overrides, results: seen.append(overrides["mp"]),
        )
        orders.append(seen)
    assert orders[0] == orders[1] == [1, 2]


def _store(tmp_path):
    return ResultStore(
        tmp_path / "store.sqlite", fingerprint="test-fingerprint", git_rev=None
    )


def _sweep_sizes(store):
    """Runs recorded under each sweep row, oldest sweep first."""
    return [
        row[0]
        for row in store.conn.execute(
            "SELECT (SELECT COUNT(*) FROM runs WHERE runs.sweep_id = sweeps.id)"
            " FROM sweeps ORDER BY id"
        )
    ]


def test_cache_replay_identical_to_cold_run(tmp_path):
    with _store(tmp_path) as store:
        cold = run_matrix(BASE, GRID, seeds=SEEDS, jobs=1, store=store)
        assert cold.executed == len(SEEDS) * 2
        warm = run_matrix(BASE, GRID, seeds=SEEDS, jobs=1, store=store)
        assert warm.executed == 0
        # Replayed tasks are not recorded again: the warm sweep is empty.
        assert _sweep_sizes(store) == [4, 0]
    assert warm.records == cold.records
    assert [p.results for p in warm.points] == [p.results for p in cold.points]
    assert _export_bytes(cold, tmp_path, "cold") == _export_bytes(
        warm, tmp_path, "warm"
    )


def test_store_on_matches_store_off_byte_for_byte(tmp_path):
    plain = run_matrix(BASE, GRID, seeds=SEEDS, jobs=1)
    with _store(tmp_path) as store:
        stored = run_matrix(BASE, GRID, seeds=SEEDS, jobs=4, store=store)
    assert stored.records == plain.records
    assert _export_bytes(plain, tmp_path, "off") == _export_bytes(
        stored, tmp_path, "on"
    )


def test_interrupted_sweep_resumes_incrementally(tmp_path):
    """Growing the grid re-executes only the new points (resumability)."""
    with _store(tmp_path) as store:
        first = run_matrix(BASE, {"mp": (1,)}, seeds=SEEDS, jobs=1, store=store)
        assert first.executed == len(SEEDS)
        resumed = run_matrix(BASE, GRID, seeds=SEEDS, jobs=1, store=store)
    assert resumed.executed == len(SEEDS)  # only the mp=2 point ran

    # And the merged outcome equals a never-interrupted cold run.
    reference = run_matrix(BASE, GRID, seeds=SEEDS, jobs=1)
    assert resumed.records == reference.records


def test_failure_mid_sweep_keeps_finished_tasks(tmp_path):
    """Tasks are recorded as they finish, so a run that dies after the
    first grid point has committed that point, and a re-run executes
    only the rest."""

    def fail_after_first_point(overrides, results):
        raise RuntimeError(f"stopped after {overrides}")

    with _store(tmp_path) as store:
        with pytest.raises(RuntimeError, match="stopped after"):
            run_matrix(
                BASE, GRID, seeds=SEEDS, jobs=1, store=store,
                hook=fail_after_first_point,
            )
        assert store.counts()["runs"] == len(SEEDS)
        resumed = run_matrix(BASE, GRID, seeds=SEEDS, jobs=1, store=store)
        assert resumed.executed == len(SEEDS)
        assert store.counts()["runs"] == 2 * len(SEEDS)
    assert resumed.records == run_matrix(BASE, GRID, seeds=SEEDS).records
