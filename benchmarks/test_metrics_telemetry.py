"""Whole-system telemetry profile: one metrics-on run per engine.

Not a paper figure — a perf-regression harness. Each engine runs briefly
with the scraper on; the scraped series compile into ``BENCH_metrics.json``
at the repository root. Diffing that file across revisions surfaces
regressions the headline numbers hide: a queue whose peak doubled, lag
that stopped draining, an autoscaler that started flapping.
"""

from bench_util import (
    load_bench_baseline,
    record_bench_metrics,
    table,
    telemetry_summary,
)

from repro.config import ExperimentConfig
from repro.core.runner import ExperimentRunner
from repro.metrics import MetricsOptions

ENGINES = ["flink", "kafka_streams", "spark_ss", "ray"]


def test_metrics_telemetry(once, record_table):
    def run_all():
        entries = {}
        for sps in ENGINES:
            config = ExperimentConfig(
                sps=sps, serving="onnx", model="ffnn", duration=3.0
            )
            result = ExperimentRunner(config).run(
                seed=0, metrics=MetricsOptions(scrape_interval=0.05)
            )
            entries[config.label()] = telemetry_summary(result)
        return entries

    # Baseline is the committed BENCH_metrics.json, read *before*
    # recording so we compare against the prior revision.
    baseline = load_bench_baseline()
    entries = once(run_all)
    record_bench_metrics(entries)

    drift_rows = []
    for label, summary in entries.items():
        prior = baseline.get(label)
        if not prior or not prior.get("throughput"):
            drift_rows.append((label, "-", "new entry"))
            continue
        change = (
            summary["throughput"] - prior["throughput"]
        ) / prior["throughput"]
        drift_rows.append(
            (
                label,
                f"{change * 100:+.1f}%",
                "ok" if abs(change) <= 0.15 else "DRIFT",
            )
        )
    record_table(
        "metrics_telemetry_drift",
        table(
            "Throughput drift vs recorded baseline",
            ["config", "throughput change", "verdict"],
            drift_rows,
        ),
    )

    rows = []
    for label, summary in entries.items():
        lag = summary["series"].get(
            'crayfish_broker_consumer_lag{topic="crayfish-input"}', {}
        )
        rows.append(
            (
                label,
                f"{summary['throughput']:,.0f}",
                f"{summary['latency_mean'] * 1e3:.1f}",
                f"{lag.get('peak', float('nan')):.0f}",
                f"{lag.get('last', float('nan')):.0f}",
            )
        )
    record_table(
        "metrics_telemetry",
        table(
            "Telemetry profile (BENCH_metrics.json regression baseline)",
            ["config", "events/s", "mean ms", "peak lag", "final lag"],
            rows,
        ),
    )

    # Every layer must export at least one series for every engine.
    for label, summary in entries.items():
        names = set(summary["series"])
        assert any(n.startswith("crayfish_broker_consumer_lag") for n in names), label
        assert any(n.startswith("crayfish_engine_input_queue") for n in names), label
        assert "crayfish_serving_requests" in names, label
        assert "crayfish_pipeline_batches_completed" in names, label
        # Scraped series actually carry samples.
        assert all(s["samples"] > 0 for s in summary["series"].values()), label
