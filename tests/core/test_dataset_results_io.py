"""Unit tests for results persistence."""

import pytest

from repro.config import ExperimentConfig
from repro.core.results_io import (
    load_results,
    result_to_dict,
    save_results,
    save_results_csv,
)
from repro.core.runner import run_experiment


def small_result():
    return run_experiment(
        ExperimentConfig(sps="flink", serving="onnx", model="ffnn", ir=100.0, duration=1.0)
    )


def test_result_to_dict_round_trips_json(tmp_path):
    result = small_result()
    record = result_to_dict(result)
    assert record["config"]["sps"] == "flink"
    assert record["config"]["workload"] == "open_loop"
    assert record["throughput"] == result.throughput
    path = str(tmp_path / "results.json")
    save_results([result, result], path)
    loaded = load_results(path)
    assert len(loaded) == 2
    assert loaded[0]["completed"] == result.completed


def test_load_results_rejects_non_list(tmp_path):
    path = str(tmp_path / "bad.json")
    with open(path, "w") as handle:
        handle.write("{}")
    with pytest.raises(ValueError):
        load_results(path)


def test_save_results_csv(tmp_path):
    result = small_result()
    path = str(tmp_path / "results.csv")
    save_results_csv([result], path)
    with open(path) as handle:
        lines = handle.read().splitlines()
    assert len(lines) == 2
    assert "config.sps" in lines[0]
    assert "throughput" in lines[0]
    with pytest.raises(ValueError):
        save_results_csv([], str(tmp_path / "empty.csv"))
