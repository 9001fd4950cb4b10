"""Unit tests for the matrix engine and its presets."""

import dataclasses
import sys

import pytest

from repro.cluster.spec import ClusterSpec
from repro.config import ExperimentConfig, WorkloadKind
from repro.core.results_io import result_from_record, result_record
from repro.core.runner import run_experiment, run_replicated
from repro.errors import ConfigError, MessageTooLargeError
from repro.matrix import engine, grid_points, preset, preset_names, run_matrix
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


#: Fails inside the run, not at construction: a 77 MB batch overruns the
#: broker's max.request.size once the first batch is produced.
OVERSIZED = ExperimentConfig(
    sps="flink",
    serving="onnx",
    model="resnet50",
    workload=WorkloadKind.CLOSED_LOOP,
    ir=0.5,
    bsz=128,
    duration=5.0,
)


@pytest.mark.parametrize("jobs", [1, 2])
def test_task_failure_names_config_and_seed(jobs):
    # With two workers either seed may fail first.
    with pytest.raises(
        MessageTooLargeError, match=r"^flink/onnx/resnet50 seed [34] failed: "
    ) as info:
        run_matrix(OVERSIZED, {}, seeds=(3, 4), jobs=jobs)
    assert isinstance(info.value.__cause__, MessageTooLargeError)
    assert "max.request.size" in str(info.value)


@pytest.mark.parametrize("jobs", [1, 2])
def test_task_config_error_stays_a_config_error(jobs):
    """Placement is checked when the run assembles, so the ConfigError
    comes out of the task itself."""
    crowded = TINY.replace(
        mp=8,
        cluster=ClusterSpec(nodes=1, cpus_per_node=2),
        use_broker=True,
        partitions=32,
    )
    with pytest.raises(ConfigError, match=r"seed [01] failed: .*oversubscribes") as info:
        run_matrix(crowded, {}, seeds=(0, 1), jobs=jobs)
    assert isinstance(info.value.__cause__, ConfigError)


class _Foreign(Exception):
    """Not a library error: a caller catches it by its own type."""


def test_foreign_task_error_keeps_its_identity(monkeypatch):
    def explode(config, seed):
        raise _Foreign(seed)

    monkeypatch.setattr(engine, "execute_task", explode)
    with pytest.raises(_Foreign) as info:
        run_matrix(TINY, {}, seeds=(5,))
    assert info.value.args == (5,)
    if sys.version_info >= (3, 11):
        assert info.value.__notes__ == [
            "raised by matrix task flink/onnx/ffnn seed 5"
        ]
