"""Checkpoint/replay recovery, the one path every engine takes."""

import dataclasses
import hashlib
import json

import pytest

from repro.analysis.order import verify_engine_order
from repro.config import SPS_NAMES, ExperimentConfig
from repro.core.results_io import result_record
from repro.core.runner import ExperimentRunner, run_experiment
from repro.errors import ConfigError
from repro.sps.api import DataProcessor
from repro.tracing.export import chrome_trace

ENGINES = list(SPS_NAMES)


def config(**kw):
    kw.setdefault("sps", "kafka_streams")
    kw.setdefault("serving", "onnx")
    kw.setdefault("model", "ffnn")
    kw.setdefault("ir", 100.0)
    kw.setdefault("duration", 5.0)
    kw.setdefault("checkpoint_interval", 0.5)
    return ExperimentConfig(**kw)


def test_rejects_exactly_once():
    """Exactly-once stays Flink-only, checked once, at construction."""
    config(sps="flink", delivery_guarantee="exactly_once")
    for sps in ("kafka_streams", "spark_ss", "ray"):
        with pytest.raises(ConfigError, match="exactly-once"):
            config(sps=sps, delivery_guarantee="exactly_once")


def _published(config):
    """Results (minus the config and fault tally) and Chrome trace bytes
    of one traced run."""
    result = ExperimentRunner(config).run(trace=True)
    record = result_record(result)
    del record["config"], record["faults"]
    return (
        json.dumps(record, sort_keys=True),
        json.dumps(chrome_trace(result.trace), sort_keys=True),
    )


@pytest.mark.parametrize(
    "sps,serving,window",
    [(sps, "onnx", 0) for sps in ENGINES] + [("flink", "tf_serving", 16)],
)
def test_idle_checkpointing_changes_nothing(sps, serving, window):
    """Checkpoints without failures only read offsets: the published
    results and the trace stay byte-equal to a run without them."""
    plain = config(
        sps=sps,
        serving=serving,
        scoring_window=window,
        checkpoint_interval=None,
        duration=2.0,
    )
    checkpointed = dataclasses.replace(plain, checkpoint_interval=0.5)
    assert _published(checkpointed) == _published(plain)


@pytest.mark.parametrize(
    "sps,model", [(sps, "ffnn") for sps in ENGINES] + [("flink", "resnet50")]
)
def test_crash_lands_at_configured_time(sps, model, monkeypatch):
    """The failure clock starts at t=0 on every engine, not after the
    model loads (resnet50 loads for ~0.7 s)."""
    crashes = []
    crash = DataProcessor.crash

    def record_crash(engine):
        crashes.append(engine.env.now)
        crash(engine)

    monkeypatch.setattr(DataProcessor, "crash", record_crash)
    result = run_experiment(
        config(sps=sps, model=model, ir=20.0, duration=3.0, failure_times=(1.5,))
    )
    assert crashes == [1.5]
    assert result.faults.engine_failures == 1


@pytest.mark.parametrize(
    "sps,guarantee",
    [
        ("flink", "exactly_once"),
        ("flink", "at_least_once"),
        ("kafka_streams", "at_least_once"),
    ],
)
def test_crash_recovery_order_independent(sps, guarantee):
    """A crash, a replay and (exactly-once) transaction commits move no
    export byte under tie permutations: commits emit in batch-id order."""
    verdict = verify_engine_order(
        config(
            sps=sps,
            delivery_guarantee=guarantee,
            duration=2.5,
            failure_times=(1.2,),
            recovery_time=0.3,
        ),
        permutations=3,
    )
    assert verdict.identical, f"{sps}/{guarantee}: {verdict.mismatched}"


@pytest.mark.parametrize("sps", ENGINES)
def test_checkpointing_without_failures(sps):
    result = run_experiment(config(sps=sps))
    assert result.faults.checkpoints > 0
    assert result.faults.engine_failures == 0
    assert result.duplicates == 0
    assert result.completed > 0


@pytest.mark.parametrize("sps", ENGINES)
def test_crash_and_recover(sps):
    result = run_experiment(config(sps=sps, failure_times=(2.5,), recovery_time=0.3))
    assert result.faults.engine_failures == 1
    assert result.faults.engine_restarts == 1
    assert result.faults.checkpoints > 0
    # No loss: every distinct batch still lands despite the crash.
    assert result.completed > 0.6 * 100.0 * 5.0
    assert result.duplicates >= 0


def test_replays_surface_as_duplicates():
    result = run_experiment(config(failure_times=(2.5,), recovery_time=0.3))
    # Kafka Streams replays from the last committed offsets; everything
    # consumed after the checkpoint is delivered twice downstream.
    assert result.duplicates > 0
    assert result.duplicates <= 1.2 * 100.0 * 0.6  # bounded by one interval


def test_recovery_downtime_costs_throughput():
    plain = run_experiment(config())
    failed = run_experiment(config(failure_times=(2.5,), recovery_time=1.0))
    assert failed.throughput < plain.throughput * 1.2
    assert failed.completed <= plain.completed


def test_multiple_failures():
    result = run_experiment(config(failure_times=(1.5, 3.5), recovery_time=0.3))
    assert result.faults.engine_failures == 2
    assert result.faults.engine_restarts == 2
    assert result.completed > 0


def test_external_serving_with_engine_recovery():
    result = run_experiment(
        config(serving="tf_serving", failure_times=(2.5,), recovery_time=0.3)
    )
    assert result.faults.engine_failures == 1
    assert result.completed > 0


def test_crash_inside_a_fetch_with_an_append_queued_behind_it(monkeypatch):
    """The crash lands while a stream thread's fetch holds a broker and
    an input append waits behind it: the fetch gives its slot up at the
    crash and the append is served from there. Pinned by the sha256 of
    the full result record, which the request/release broker path gave
    too."""
    at_crash = []
    crash = DataProcessor.crash

    def watched(self):
        tasks = set(self._task_processes)
        for broker in self.input.cluster._brokers:
            holders = {
                getattr(callback, "__self__", None)
                for user in broker.users
                for callback in user.callbacks or ()
            }
            at_crash.append((bool(holders & tasks), len(broker.queue)))
        crash(self)

    monkeypatch.setattr(DataProcessor, "crash", watched)
    result = ExperimentRunner(
        config(
            mp=8, ir=4000.0, duration=2.0, recovery_time=0.3,
            warmup_fraction=0.0, failure_times=(1.00389,),
        )
    ).run()
    assert (True, 1) in at_crash
    record = json.dumps(result_record(result), sort_keys=True)
    assert hashlib.sha256(record.encode()).hexdigest() == (
        "69296b1c1d32405b13520b27a7e95ff83564883ff857ac5ecb6fe6f9e5a47416"
    )
