"""Unit tests for the matrix engine and its presets."""

import dataclasses

import pytest

from repro.config import ExperimentConfig
from repro.core.results_io import result_from_record, result_record
from repro.core.runner import run_experiment, run_replicated
from repro.errors import ConfigError
from repro.matrix import grid_points, preset, preset_names, run_matrix
from repro.store import ResultStore

TINY = ExperimentConfig(
    sps="flink", serving="onnx", model="ffnn", ir=50.0, duration=0.5
)


def test_grid_points_order_is_sorted_cartesian():
    points = grid_points({"mp": (1, 2), "bsz": (4, 8)})
    assert points == [
        {"bsz": 4, "mp": 1},
        {"bsz": 4, "mp": 2},
        {"bsz": 8, "mp": 1},
        {"bsz": 8, "mp": 2},
    ]
    assert grid_points({}) == [{}]


def test_unknown_grid_field_rejected_up_front():
    with pytest.raises(ConfigError, match="'batch_size'"):
        run_matrix(TINY, {"batch_size": (1, 2)})


def test_empty_seeds_rejected():
    with pytest.raises(ConfigError, match="seed"):
        run_matrix(TINY, {"mp": (1,)}, seeds=())


def test_bad_jobs_rejected():
    with pytest.raises(ConfigError, match="jobs"):
        run_matrix(TINY, {"mp": (1,)}, jobs=0)


def test_empty_grid_is_single_point():
    report = run_matrix(TINY, {}, seeds=(0,))
    assert len(report.points) == 1
    assert report.points[0].overrides == {}
    assert report.tasks == 1
    assert report.executed == 1


def _store(tmp_path):
    return ResultStore(
        tmp_path / "store.sqlite", fingerprint="test-fingerprint", git_rev=None
    )


def test_run_replicated_cached_matches_plain_runner(tmp_path):
    plain = run_replicated(TINY, seeds=(0, 1))
    with _store(tmp_path) as store:
        engine = run_replicated(TINY, seeds=(0, 1), jobs=2, store=store)
        cached = run_replicated(TINY, seeds=(0, 1), store=store)
    assert engine == plain
    assert cached == plain


def test_run_replicated_with_cache_delegates(tmp_path):
    with _store(tmp_path) as store:
        first = run_replicated(TINY, seeds=(0,), store=store)
        again = run_replicated(TINY, seeds=(0,), store=store)
        assert store.counts()["runs"] == 1
    assert first == again


def test_result_record_round_trip_is_lossless():
    result = run_experiment(TINY)
    record = result_record(result, seed=0)
    assert record["seed"] == 0
    rebuilt = result_from_record(record)
    assert rebuilt == result


def test_record_seed_reflects_run_seed():
    report = run_matrix(TINY, {}, seeds=(7,))
    assert report.records[0]["seed"] == 7
    # The config block keeps the base seed, exactly like the serial
    # sweep's JSON export always did.
    assert report.records[0]["config"]["seed"] == TINY.seed


def test_report_results_flatten_in_task_order():
    report = run_matrix(TINY, {"mp": (1, 2)}, seeds=(0, 1))
    assert len(report.results) == 4
    assert [r.config.mp for r in report.results] == [1, 1, 2, 2]


def test_presets_build_valid_configs():
    assert preset_names() == (
        "burst-recovery", "capacity-search", "latency", "scalability",
        "scaleout", "smoke", "throughput",
    )
    for name in preset_names():
        spec = preset(name)
        configs = spec.configs()  # every grid point validates on build
        assert configs, name
        assert spec.task_count == len(configs) * len(spec.seeds)
        assert spec.description


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError, match="unknown matrix preset"):
        preset("nope")


def test_smoke_preset_runs_quickly():
    spec = preset("smoke")
    report = run_matrix(spec.base, spec.grid, seeds=spec.seeds)
    assert report.executed == spec.task_count
    for point in report.points:
        assert point.results[0].completed > 0


def test_cache_roundtrip_survives_fault_config(tmp_path):
    """Configs with nested fault/resilience dataclasses cache cleanly."""
    from repro.faults import FaultPlan, ResiliencePolicy, ServerCrash

    config = TINY.replace(
        serving="tf_serving",
        duration=2.0,
        fault_plan=FaultPlan(
            server_crashes=(ServerCrash(at=1.0, downtime=0.2),)
        ),
        resilience=ResiliencePolicy(retries=2),
    )
    with _store(tmp_path) as store:
        cold = run_matrix(config, {}, seeds=(0,), store=store)
        warm = run_matrix(config, {}, seeds=(0,), store=store)
    assert warm.executed == 0
    assert warm.records == cold.records
    replayed = warm.points[0].results[0]
    assert replayed.config == config
    assert dataclasses.asdict(replayed.faults) == dataclasses.asdict(
        cold.points[0].results[0].faults
    )
