"""Golden-result regression suite for the paper-facing numbers.

Runs a small representative grid — all four stream processors crossed
with an embedded and an external serving backend, fixed seed — through
the matrix engine and diffs every aggregate *exactly* against the
committed expectations in ``tests/golden/matrix_golden.json``. Any
change to the simulator that moves a paper-facing number fails here
first; a deliberate change refreshes the file with::

    PYTHONPATH=src python -m pytest tests/matrix/test_golden.py --update-golden
"""

import json
import pathlib

import pytest

from repro.config import SPS_NAMES, ExperimentConfig
from repro.matrix import run_matrix

GOLDEN_PATH = (
    pathlib.Path(__file__).resolve().parent.parent
    / "golden"
    / "matrix_golden.json"
)

#: The golden grid: every engine x embedded (onnx) + external
#: (tf_serving; substituted by Ray Serve on Ray, as in the paper).
BASE = ExperimentConfig(
    sps="flink", serving="onnx", model="ffnn", ir=20.0, duration=4.0
)
GRID = {"sps": list(SPS_NAMES), "serving": ["onnx", "tf_serving"]}
SEEDS = (0,)


def _run_record(record: dict, seed: int) -> dict:
    """The golden subset of one run's record: every scalar aggregate."""
    return {
        "seed": seed,
        "throughput": record["throughput"],
        "latency": record["latency"],
        "completed": record["completed"],
        "produced": record["produced"],
        "duplicates": record["duplicates"],
        "inference_requests": record["inference_requests"],
    }


def measure() -> dict:
    report = run_matrix(BASE, GRID, seeds=SEEDS, jobs=1)
    points = []
    for index, point in enumerate(report.points):
        runs = [
            _run_record(report.records[index * len(SEEDS) + offset], seed)
            for offset, seed in enumerate(SEEDS)
        ]
        points.append({"overrides": point.overrides, "runs": runs})
    return {
        "base": BASE.canonical_dict(),
        "grid": {key: list(GRID[key]) for key in sorted(GRID)},
        "seeds": list(SEEDS),
        "points": points,
    }


def canonical_text(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_golden_matrix(update_golden):
    current = measure()
    if update_golden:
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(canonical_text(current))
        pytest.skip(f"golden results refreshed at {GOLDEN_PATH}")
    assert GOLDEN_PATH.exists(), (
        f"missing {GOLDEN_PATH}; generate it with pytest --update-golden"
    )
    stored = json.loads(GOLDEN_PATH.read_text())
    assert stored["base"] == current["base"], (
        "golden base config drifted; refresh with --update-golden"
    )
    assert stored["grid"] == current["grid"]
    assert stored["seeds"] == current["seeds"]
    for expected, actual in zip(stored["points"], current["points"]):
        label = expected["overrides"]
        assert actual["overrides"] == expected["overrides"]
        assert actual["runs"] == expected["runs"], (
            f"aggregates changed for {label}: expected {expected['runs']}, "
            f"got {actual['runs']} — if intentional, re-bless with "
            "--update-golden"
        )
    # Belt and braces: the whole documents must match byte for byte.
    assert canonical_text(stored) == canonical_text(current)
