"""Telemetry must be strictly observational.

Mirrors ``tests/tracing/test_determinism.py``: a metrics-on run must
produce byte-identical results to a metrics-off run — the scraper only
reads state, and the few always-on counters the instrumentation adds are
maintained whether or not a registry is installed.
"""

import dataclasses

import pytest

from repro.config import ExperimentConfig
from repro.core.runner import ExperimentRunner
from repro.metrics import MetricsOptions
from repro.metrics.export import series_summaries

COMBOS = [
    ("flink", "onnx"),
    ("kafka_streams", "dl4j"),
    ("spark_ss", "onnx"),
    ("ray", "tf_serving"),
]


@pytest.mark.parametrize("sps,serving", COMBOS)
def test_metrics_do_not_perturb_results(sps, serving):
    config = ExperimentConfig(
        sps=sps, serving=serving, model="ffnn", duration=2.0
    )
    plain = ExperimentRunner(config).run(seed=0)
    observed = ExperimentRunner(config).run(
        seed=0, metrics=MetricsOptions(scrape_interval=0.05)
    )
    assert dataclasses.asdict(plain.latency) == dataclasses.asdict(
        observed.latency
    )
    assert plain.throughput == observed.throughput
    assert plain.completed == observed.completed
    assert plain.produced == observed.produced
    assert plain.series == observed.series
    assert plain.telemetry is None
    # Every layer exports a series on every engine, and each scraped
    # series carries samples.
    summaries = series_summaries(observed.telemetry.scraper)
    names = set(summaries)
    assert any(n.startswith("crayfish_broker_consumer_lag") for n in names)
    assert any(n.startswith("crayfish_engine_input_queue") for n in names)
    assert "crayfish_serving_requests" in names
    assert "crayfish_pipeline_batches_completed" in names
    assert all(s["samples"] > 0 for s in summaries.values())


def test_every_layer_exports_a_gauge():
    """ISSUE acceptance: broker lag, engine queue occupancy, serving
    queue depth, and autoscaler replica count all surface as series."""
    config = ExperimentConfig(
        sps="flink",
        serving="tf_serving",
        model="ffnn",
        duration=2.0,
        autoscale=(1, 4),
    )
    result = ExperimentRunner(config).run(seed=0, metrics=True)
    names = set(result.telemetry.series())
    assert 'crayfish_broker_consumer_lag{topic="crayfish-input"}' in names
    assert 'crayfish_engine_input_queue{engine="flink"}' in names
    assert "crayfish_serving_queue_depth" in names
    assert 'crayfish_autoscaler_replicas{state="live"}' in names
    assert 'crayfish_autoscaler_replicas{state="desired"}' in names


def test_scrape_interval_reaches_the_scraper():
    config = ExperimentConfig(sps="flink", serving="onnx", duration=1.0)
    result = ExperimentRunner(config).run(
        seed=0, metrics=MetricsOptions(scrape_interval=0.25)
    )
    scraper = result.telemetry.scraper
    assert scraper.interval == 0.25
    assert scraper.scrapes == 4  # ticks at 0.25 .. 1.0 (horizon inclusive)


def test_adaptive_batching_metrics_observed():
    config = ExperimentConfig(
        sps="flink",
        serving="tf_serving",
        model="ffnn",
        duration=2.0,
        mp=4,
        adaptive_batching=(8, 0.002),
    )
    result = ExperimentRunner(config).run(seed=0, metrics=True)
    hist = result.telemetry.registry.get("serving_batch_size")
    assert hist.count > 0
    assert "crayfish_serving_batch_queue_depth" in result.telemetry.series()
