"""Golden-result regression for the scale-out matrix preset.

Pins every aggregate of the ``scaleout`` grid — two engines crossed with
1/2/3-node clusters, fixed seed — against
``tests/golden/scaleout_golden.json``, exactly like the single-node
matrix golden. Any simulator change that moves a scale-out number fails
here first; bless deliberate changes with::

    PYTHONPATH=src python -m pytest tests/cluster/test_golden_scaleout.py --update-golden
"""

import json
import pathlib

import pytest

from repro.matrix import run_matrix
from repro.matrix.presets import preset

GOLDEN_PATH = (
    pathlib.Path(__file__).resolve().parent.parent
    / "golden"
    / "scaleout_golden.json"
)

#: Shortened duration keeps the six clustered runs tier-1-fast while
#: still exercising every placement path the preset does.
DURATION = 0.5
SEEDS = (0,)


def _spec():
    spec = preset("scaleout")
    return spec.base.replace(duration=DURATION), spec.grid


def _run_record(record: dict, seed: int) -> dict:
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
    base, grid = _spec()
    report = run_matrix(base, grid, seeds=SEEDS, jobs=1)
    points = []
    for index, point in enumerate(report.points):
        runs = [
            _run_record(report.records[index * len(SEEDS) + offset], seed)
            for offset, seed in enumerate(SEEDS)
        ]
        overrides = {
            key: str(value) for key, value in sorted(point.overrides.items())
        }
        points.append({"overrides": overrides, "runs": runs})
    return {
        "base": base.canonical_dict(),
        "grid": {key: [str(v) for v in grid[key]] for key in sorted(grid)},
        "seeds": list(SEEDS),
        "points": points,
    }


def canonical_text(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_golden_scaleout(update_golden):
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
            f"scale-out aggregates changed for {label}: expected "
            f"{expected['runs']}, got {actual['runs']} — if intentional, "
            "re-bless with --update-golden"
        )
    assert canonical_text(stored) == canonical_text(current)
