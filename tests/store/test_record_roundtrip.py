"""Property tests: store -> load is lossless, identities are stable."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.config
from repro.config import EMBEDDED_TOOLS, ExperimentConfig
from repro.nn.zoo.registry import available_models
from repro.store.record import (
    cost_proxy,
    record_from_row,
    run_row_from_record,
    slot_id_of,
)

from tests.store.conftest import make_record

configs = st.builds(
    ExperimentConfig,
    sps=st.sampled_from(repro.config.SPS_NAMES),
    serving=st.sampled_from(repro.config.SERVING_TOOLS),
    model=st.sampled_from(available_models()),
    ir=st.floats(min_value=1.0, max_value=500.0, allow_nan=False),
    duration=st.floats(min_value=0.1, max_value=5.0, allow_nan=False),
    mp=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**16),
    gpu=st.booleans(),
)

finite = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


@settings(max_examples=40, deadline=None)
@given(
    config=configs,
    seed=st.integers(min_value=0, max_value=2**16),
    throughput=finite,
    latency_mean=finite,
    latency_p95=finite,
    completed=st.integers(min_value=0, max_value=10_000),
)
def test_store_load_round_trip_is_canonical_equal(
    store_factory, config, seed, throughput, latency_mean, latency_p95, completed
):
    record = make_record(
        config=config,
        seed=seed,
        throughput=throughput,
        latency_mean=latency_mean,
        latency_p95=latency_p95,
        completed=completed,
    )
    with store_factory() as store:
        run_id = store.record_run(record)
        assert store.load_record(run_id) == record
        row = store.run(run_id)
        assert record_from_row(row) == record


@settings(max_examples=40, deadline=None)
@given(
    config=configs,
    seed=st.integers(min_value=0, max_value=2**16),
    config_seed=st.integers(min_value=0, max_value=2**16),
)
def test_slot_id_matches_result_cache_identity(
    store_factory, config, seed, config_seed
):
    """A recorded run lands in the slot the result-cache lookup keys on,
    whatever the config's own seed field says."""
    record = make_record(config=config, seed=seed)
    with store_factory() as store:
        run_id = store.record_run(record)
        assert store.run(run_id)["slot_id"] == slot_id_of(
            config.canonical_dict(), seed
        )
        twin = config.replace(seed=config_seed).canonical_dict()
        assert store.lookup(twin, seed) == record


@settings(max_examples=40, deadline=None)
@given(config=configs, completed=st.integers(min_value=1, max_value=10_000))
def test_cost_proxy_positive_for_completed_runs(config, completed):
    record = make_record(config=config, completed=completed)
    value = cost_proxy(config.canonical_dict(), record)
    assert value is not None and value > 0
    # Embedded tools bill no serving workers, so with equal engine
    # parallelism an embedded config can never cost more than an
    # external one on the same record.
    if config.serving in EMBEDDED_TOOLS:
        external = dict(config.canonical_dict(), serving="tf_serving")
        assert value <= cost_proxy(external, record)


def test_cost_proxy_none_without_completions():
    record = make_record(completed=0)
    assert cost_proxy(record["config"], record) is None


def test_nan_aggregates_become_null_columns(store):
    record = make_record()
    record["throughput"] = math.nan
    record["latency"]["p95"] = math.nan
    run_id = store.record_run(record)
    row = store.run(run_id)
    assert row["throughput"] is None
    assert row["latency_p95"] is None
    # The authoritative record is untouched: NaN survives the JSON
    # round-trip (Python's json emits/accepts the NaN token).
    loaded = store.load_record(run_id)
    assert math.isnan(loaded["throughput"])
    assert math.isnan(loaded["latency"]["p95"])


def test_run_row_derivation_is_deterministic():
    record = make_record()
    row_a = run_row_from_record(record, fingerprint="f", recorded_at=1.0)
    row_b = run_row_from_record(record, fingerprint="f", recorded_at=1.0)
    assert row_a == row_b
    assert row_a.label == "flink/onnx/ffnn"
    assert row_a.slot_id == slot_id_of(record["config"], record["seed"])
