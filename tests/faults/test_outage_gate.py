"""A partition outage's gate is read between two waits that stay apart.

A producer serializes, then its append reads the partition's outage gate
before the link transfer; a sink task pays its produce cost, then the
emit's append reads the gate the same way. Chaining either pair into one
kernel event (``service_timeout(a, then=b)``) would read the gate at the
first wait's start instead of at its end, so a record serialized across
the outage's start would slip past it. These runs pin the results of
both engines with an outage on each topic; a fusion across the gate
moves them (docs/kernel.md, "Chained waits").
"""

import dataclasses

import pytest

from repro.config import ExperimentConfig
from repro.core.runner import ExperimentRunner
from repro.faults import FaultPlan, PartitionOutage

#: Throughput and latency summary of each run (sps-topic).
PINNED = {
    "flink-input": {
        "throughput": 499.55555555555554,
        "count": 562,
        "mean": 0.003909284852360039,
        "std": 0.017389798229459845,
        "minimum": 0.0024191560442972104,
        "p50": 0.002442730900841572,
        "p95": 0.002461900372567738,
        "p99": 0.006439299945908193,
        "p999": 0.2553381251972853,
        "maximum": 0.29040120168854355,
    },
    "flink-output": {
        "throughput": 499.55555555555554,
        "count": 562,
        "mean": 0.0038493345178275498,
        "std": 0.01712191699815209,
        "minimum": 0.0024191560442972104,
        "p50": 0.00244270563304147,
        "p95": 0.0024600361959402515,
        "p99": 0.0024690055665489187,
        "p999": 0.2525811185599974,
        "maximum": 0.2884733599999997,
    },
    "kafka_streams-input": {
        "throughput": 499.55555555555554,
        "count": 562,
        "mean": 0.009448650994230522,
        "std": 0.017359110123741528,
        "minimum": 0.005390526083302483,
        "p50": 0.008040597678606654,
        "p95": 0.009722292564687495,
        "p99": 0.011826168859864039,
        "p999": 0.26034676832835996,
        "maximum": 0.2959728195396182,
    },
    "kafka_streams-output": {
        "throughput": 499.55555555555554,
        "count": 562,
        "mean": 0.009354453750207182,
        "std": 0.016804025499985522,
        "minimum": 0.005332283178862474,
        "p50": 0.008010683412266684,
        "p95": 0.009685605741744518,
        "p99": 0.010638797114910508,
        "p999": 0.2534591185599973,
        "maximum": 0.2904733599999997,
    },
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_outage_results_are_pinned(case):
    sps, topic = case.split("-")
    outage = PartitionOutage(at=0.5, duration=0.3, topic=topic)
    config = ExperimentConfig(
        sps=sps,
        serving="onnx",
        model="ffnn",
        ir=500.0,
        duration=1.5,
        fault_plan=FaultPlan(partition_outages=(outage,)),
    )
    result = ExperimentRunner(config).run(seed=0)
    got = {"throughput": result.throughput, **dataclasses.asdict(result.latency)}
    assert got == PINNED[case]
