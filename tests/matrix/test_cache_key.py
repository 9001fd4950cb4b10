"""Property tests for the result-cache key: slot plus code fingerprint.

The store serves a cached run by (``slot_id_of`` slot, code
fingerprint). The key must collide exactly when it should:
canonically-equal (config, seed) pairs share a slot; any single field
change or seed change moves the slot; and a code-fingerprint change
misses — the stored row is not served and the task re-runs.
"""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ExperimentConfig, config_from_dict
from repro.errors import ConfigError
from repro.matrix import run_matrix
from repro.store import ResultStore, slot_id_of

FINGERPRINT = "test-fingerprint"

TINY = ExperimentConfig(
    sps="flink", serving="onnx", model="ffnn", ir=50.0, duration=0.5
)


def key_of(config, seed):
    return slot_id_of(config.canonical_dict(), seed)


def memory_store(fingerprint=FINGERPRINT):
    return ResultStore(":memory:", fingerprint=fingerprint, git_rev=None)


def record_of(config, seed):
    """A minimal stored record for (config, seed)."""
    return {
        "config": config.canonical_dict(),
        "seed": seed,
        "throughput": 1.0,
        "latency": {},
    }


#: Field menu for single-field mutations: always-valid distinct values.
MUTATIONS = {
    "sps": ("flink", "kafka_streams", "spark_ss", "ray"),
    "serving": ("onnx", "dl4j", "savedmodel"),
    "model": ("ffnn", "mobilenet", "resnet50"),
    "bsz": (1, 2, 16, 64),
    "mp": (1, 2, 4, 8),
    "ir": (None, 10.0, 50.0, 200.0),
    "duration": (1.0, 2.5, 10.0),
    "warmup_fraction": (0.0, 0.25, 0.5),
    "partitions": (1, 8, 32),
    "gpu": (False, True),
    "use_broker": (True, False),
}

config_strategy = st.builds(
    ExperimentConfig,
    bsz=st.sampled_from(MUTATIONS["bsz"]),
    mp=st.sampled_from(MUTATIONS["mp"]),
    ir=st.sampled_from(MUTATIONS["ir"]),
    duration=st.sampled_from(MUTATIONS["duration"]),
    serving=st.sampled_from(MUTATIONS["serving"]),
    sps=st.sampled_from(MUTATIONS["sps"]),
    partitions=st.sampled_from(MUTATIONS["partitions"]),
)


@settings(max_examples=40, deadline=None)
@given(config=config_strategy, seed=st.integers(0, 1000))
def test_equal_configs_collide(config, seed):
    clone = config.replace()
    assert clone == config
    assert key_of(clone, seed) == key_of(config, seed)
    with memory_store() as store:
        record = record_of(config, seed)
        store.record_run(record)
        assert store.lookup(clone.canonical_dict(), seed) == record


@settings(max_examples=40, deadline=None)
@given(
    config=config_strategy,
    seed=st.integers(0, 1000),
    config_seed=st.integers(0, 1000),
)
def test_config_seed_field_is_normalized_away(config, seed, config_seed):
    """The run seed overrides config.seed, so only the run seed keys."""
    assert key_of(config.replace(seed=config_seed), seed) == key_of(
        config, seed
    )


@settings(max_examples=60, deadline=None)
@given(
    field=st.sampled_from(sorted(MUTATIONS)),
    data=st.data(),
    seed=st.integers(0, 1000),
)
def test_any_single_field_change_changes_key(field, data, seed):
    values = data.draw(
        st.lists(
            st.sampled_from(MUTATIONS[field]),
            min_size=2,
            max_size=2,
            unique=True,
        )
    )
    base = ExperimentConfig()
    first = base.replace(**{field: values[0]})
    second = base.replace(**{field: values[1]})
    assert key_of(first, seed) != key_of(second, seed)
    with memory_store() as store:
        store.record_run(record_of(first, seed))
        assert store.lookup(second.canonical_dict(), seed) is None


@settings(max_examples=40, deadline=None)
@given(
    config=config_strategy,
    seeds=st.lists(
        st.integers(0, 10_000), min_size=2, max_size=2, unique=True
    ),
)
def test_seed_change_changes_key(config, seeds):
    assert key_of(config, seeds[0]) != key_of(config, seeds[1])
    with memory_store() as store:
        store.record_run(record_of(config, seeds[0]))
        assert store.lookup(config.canonical_dict(), seeds[1]) is None


@settings(max_examples=40, deadline=None)
@given(config=config_strategy, seed=st.integers(0, 1000))
def test_fingerprint_change_changes_key(config, seed):
    with memory_store("fp-a") as store:
        store.record_run(record_of(config, seed))
        assert store.lookup(config.canonical_dict(), seed) is not None
        store.fingerprint = "fp-b"  # the same database under changed code
        assert store.lookup(config.canonical_dict(), seed) is None


@settings(max_examples=30, deadline=None)
@given(config=config_strategy, seed=st.integers(0, 1000))
def test_canonical_round_trip_preserves_key(config, seed):
    rebuilt = config_from_dict(config.canonical_dict())
    assert rebuilt.canonical_json() == config.canonical_json()
    assert key_of(rebuilt, seed) == key_of(config, seed)


def test_sequence_type_is_canonicalized():
    """isz as list vs tuple is the same experiment — same slot."""
    as_tuple = ExperimentConfig(isz=(4,))
    as_list = ExperimentConfig(isz=[4])
    assert key_of(as_tuple, 0) == key_of(as_list, 0)


def test_fingerprint_change_invalidates_stored_entries(tmp_path):
    """New code misses on old rows, re-runs, then hits its own row."""
    path = tmp_path / "store.sqlite"
    with ResultStore(path, fingerprint="fp-a", git_rev=None) as before:
        cold = run_matrix(TINY, {}, seeds=(0,), store=before)
        assert cold.executed == 1
        assert run_matrix(TINY, {}, seeds=(0,), store=before).executed == 0

    with ResultStore(path, fingerprint="fp-b", git_rev=None) as after:
        rerun = run_matrix(TINY, {}, seeds=(0,), store=after)
        assert rerun.executed == 1
        assert rerun.records == cold.records
        assert run_matrix(TINY, {}, seeds=(0,), store=after).executed == 0
        assert after.counts()["runs"] == 2  # one row per fingerprint


def test_imported_rows_are_never_served(tmp_path):
    """Older builds imported partial rows from committed files; even at
    the current slot and fingerprint they never count as a hit."""
    with ResultStore(
        tmp_path / "store.sqlite", fingerprint=FINGERPRINT, git_rev=None
    ) as store:
        partial = record_of(TINY, 0)
        run_id = store.record_run(partial)
        with store.conn:
            store.conn.execute(
                "UPDATE runs SET source = 'import:bench_metrics'"
                " WHERE id = ?",
                (run_id,),
            )
        assert store.lookup(TINY.canonical_dict(), 0) is None
        report = run_matrix(TINY, {}, seeds=(0,), store=store)
        assert report.executed == 1
        assert report.records[0] != partial
        assert store.lookup(TINY.canonical_dict(), 0) == report.records[0]


def test_config_from_dict_rejects_unknown_fields():
    record = ExperimentConfig().canonical_dict()
    record["not_a_field"] = 1
    with pytest.raises(ConfigError, match="not_a_field"):
        config_from_dict(record)


def test_canonical_dict_is_complete():
    """Every config field participates in the cache key."""
    canonical = ExperimentConfig().canonical_dict()
    fields = {field.name for field in dataclasses.fields(ExperimentConfig)}
    assert set(canonical) == fields
