"""Unit tests for reporting helpers and parameter sweeps.

Sweeps run through ``run_matrix``, the one front door for grids.
"""

import pytest

from repro.config import ExperimentConfig
from repro.core.report import format_ms, format_rate, format_table, ratio_note
from repro.core.sweep import validate_override_fields
from repro.errors import ConfigError
from repro.matrix import run_matrix


def test_format_table_alignment():
    text = format_table(["a", "bb"], [["1", "2"], ["333", "4"]], title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "bb" in lines[1]
    assert len(lines) == 5


def test_format_rate():
    assert format_rate(1373.07) == "1,373"
    assert format_rate(2.85) == "2.85"


def test_format_ms():
    assert format_ms(0.19165) == "191.65"


def test_ratio_note():
    assert ratio_note(2.0, 1.0) == "2.00x"
    assert ratio_note(1.0, 0.0) == "n/a"


def test_sweep_runs_grid():
    base = ExperimentConfig(sps="flink", serving="onnx", model="ffnn", ir=None, duration=1.0)
    seen = []
    points = run_matrix(
        base,
        {"mp": [1, 2]},
        seeds=(0,),
        hook=lambda overrides, results: seen.append(overrides["mp"]),
    ).points
    assert seen == [1, 2]
    assert len(points) == 2
    assert points[1].throughput.mean > points[0].throughput.mean
    assert points[0].overrides == {"mp": 1}
    assert points[0].mean_latency.mean > 0


def test_sweep_unknown_field_rejected_up_front():
    """A typo'd grid key fails immediately with a helpful message, not
    deep inside dataclasses.replace on the first grid point."""
    base = ExperimentConfig()
    with pytest.raises(ConfigError) as excinfo:
        run_matrix(base, {"batch_size": [1, 2]})
    message = str(excinfo.value)
    assert "unknown sweep field(s) 'batch_size'" in message
    # The message names the valid fields so the fix is obvious.
    assert "bsz" in message and "mp" in message


def test_validate_override_fields_lists_every_offender():
    with pytest.raises(ConfigError, match="'nope'.*'typo'"):
        validate_override_fields(["typo", "mp", "nope"])
    validate_override_fields(["mp", "bsz"])  # valid names pass silently


def test_sweep_parallel_and_cached_match_serial(tmp_path):
    from repro.store import ResultStore

    base = ExperimentConfig(
        sps="flink", serving="onnx", model="ffnn", ir=50.0, duration=0.5
    )
    grid = {"mp": [1, 2]}
    def sweep(**options):
        return run_matrix(base, grid, seeds=(0,), **options).points

    serial = sweep()
    parallel = sweep(jobs=2)
    with ResultStore(tmp_path / "store.sqlite", git_rev=None) as store:
        cached = sweep(store=store)
        replayed = sweep(store=store)
        assert store.counts()["runs"] == 2  # the replay recorded nothing
    for other in (parallel, cached, replayed):
        assert [p.overrides for p in other] == [p.overrides for p in serial]
        assert [p.results for p in other] == [p.results for p in serial]
