"""Autoscaled and adaptively batched runs are pinned byte for byte.

The plain server pool is covered by the goldens and the trace-export
digests; these two cases cover the pool under each of its optional
policies. Each case hashes (sha256) the run's full result record minus
its config, and the final OpenMetrics exposition. A change to the
server's worker loop must leave both digests as they are; a change that
means to move them updates the digests here and says why.

To print the current digests::

    PYTHONPATH=src python tests/serving/test_pool_pins.py
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.config import ExperimentConfig, WorkloadKind
from repro.core.results_io import result_record
from repro.core.runner import ExperimentRunner
from repro.metrics.export import openmetrics_text

BASE = dict(
    sps="flink", serving="torchserve", model="ffnn",
    ir=1500.0, mp=4, async_io=64, duration=2.0, seed=0,
)

CASES: dict[str, dict] = {
    "autoscale": dict(BASE, autoscale=(1, 8)),
    # Bursts make the pool shrink as well as grow: workers retire.
    "autoscale-bursts": dict(
        BASE, autoscale=(1, 8), ir=600.0, duration=3.0,
        workload=WorkloadKind.PERIODIC_BURSTS, bd=0.5, tbb=1.5,
    ),
    "batching": dict(BASE, adaptive_batching=(8, 0.005)),
}

#: Expected sha256 per case: result record (minus config), OpenMetrics.
GOLDEN: dict[str, dict[str, str]] = {
    "autoscale": {
        "record": "0f993127a4c9162895a149d9fb537fb8958ee48359429c9eff5f50880d285646",
        "openmetrics": "4d6a89a501276106ad199d998630f5b85891d74f0252bfd0195465c43cdcf552",
    },
    "autoscale-bursts": {
        "record": "469f6efdd1f77c369d3b670dbeb5ebf8d8634b3b3a6acc0cb3982c4a00a0b4c4",
        "openmetrics": "394a9b7e31ba3238186bd92eaf3271cf148f9fb82689daf654e9f9a90f80399a",
    },
    "batching": {
        "record": "142784fa5185c00e6241a7741b8d82fed8d49170d18f19881db624d8c6bb8aa7",
        "openmetrics": "8b438cc144124c69ac2a34a740e6f8ed2cfa5032b573af4f3d83416e7f35cf2a",
    },
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_digests(fields: dict) -> dict[str, str]:
    result = ExperimentRunner(ExperimentConfig(**fields)).run(metrics=True)
    record = result_record(result)
    del record["config"]
    return {
        "record": _sha(json.dumps(record, sort_keys=True)),
        "openmetrics": _sha(openmetrics_text(result.telemetry.registry)),
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_pool_policy_run_is_pinned(case):
    assert run_digests(CASES[case]) == GOLDEN[case]


if __name__ == "__main__":  # pragma: no cover - prints the digests
    for name in sorted(CASES):
        print(json.dumps({name: run_digests(CASES[name])}, indent=4))
