"""Property tests drawn from the config dataclasses' declared domains.

Every field of the ten config classes declares its domain once
(:mod:`repro.knobs`). These tests read that declaration:

- a value drawn inside a field's domain constructs, from a base where
  the field's cross-field rules hold;
- a value just outside it raises ConfigError naming the field, at
  construction, before any Environment exists;
- any config built from in-domain draws survives the dict round-trip.
"""

import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import knobs
from repro.cluster.spec import ClusterSpec, FlashCrowd, PopulationSpec
from repro.config import (
    EMBEDDED_TOOLS,
    PROTOCOL_TOOLS,
    ExperimentConfig,
    config_from_dict,
)
from repro.errors import ConfigError
from repro.faults import FaultPlan, ResiliencePolicy
from repro.faults.plan import (
    NetworkDegradation,
    PartitionOutage,
    ServerCrash,
    StragglerReplica,
)

NAN = float("nan")
INF = float("inf")

CLASSES = (
    ExperimentConfig,
    ClusterSpec,
    FlashCrowd,
    PopulationSpec,
    ServerCrash,
    PartitionOutage,
    NetworkDegradation,
    StragglerReplica,
    FaultPlan,
    ResiliencePolicy,
)
FIELDS = [(cls, name) for cls in CLASSES for name in knobs.of(cls)]

#: Values for the fields without a default.
REQUIRED = {
    FlashCrowd: {"at": 1.0, "duration": 1.0, "multiplier": 2.0},
    ServerCrash: {"at": 1.0},
    PartitionOutage: {"at": 1.0, "duration": 1.0},
    NetworkDegradation: {"at": 1.0, "duration": 1.0, "error_rate": 0.1},
    StragglerReplica: {"at": 1.0, "duration": 1.0},
}

_EXTERNAL = {"serving": "tf_serving"}

#: Other fields set so that a field's cross-field rules hold for any
#: value in its domain; a callable receives the drawn value.
PRECONDITIONS = {
    (ExperimentConfig, "workload"): {"ir": 10.0},
    (ExperimentConfig, "async_io"): _EXTERNAL,
    (ExperimentConfig, "server_workers"): _EXTERNAL,
    (ExperimentConfig, "autoscale"): _EXTERNAL,
    (ExperimentConfig, "adaptive_batching"): _EXTERNAL,
    (ExperimentConfig, "protocol"): _EXTERNAL,
    (ExperimentConfig, "resilience"): _EXTERNAL,
    (ExperimentConfig, "fault_plan"): _EXTERNAL,
    (ExperimentConfig, "failure_times"): {"checkpoint_interval": 1.0},
    (ExperimentConfig, "cluster"): {"partitions": 1_000_000},
    (ClusterSpec, "racks"): {"nodes": 1024},
    (NetworkDegradation, "error_rate"): {"extra_latency": 0.01},
    (ResiliencePolicy, "on_exhausted"): lambda mode: (
        {"fallback": "onnx"} if mode == "fallback" else {}
    ),
    (ResiliencePolicy, "fallback"): lambda tool: (
        {} if tool is None else {"on_exhausted": "fallback"}
    ),
}

#: Rules tying the items of one tuple field together; draws obey them.
ITEM_RULES = {
    (ExperimentConfig, "autoscale"): lambda pair: tuple(sorted(pair)),
    (PopulationSpec, "flash_crowds"): lambda crowds: tuple(
        sorted(crowds, key=lambda crowd: crowd.at)
    ),
    (PartitionOutage, "partitions"): lambda partitions: partitions or (0,),
}

#: Fields whose domain is a cross-field rule of the enclosing config: a
#: resilience fallback must be an embedded tool.
OVERRIDES = {
    (ResiliencePolicy, "fallback"): st.none() | st.sampled_from(EMBEDDED_TOOLS),
}


def _bounds(spec):
    """``(low, low_open, high, high_open)``; None for an absent bound."""
    (low, low_open), (high, high_open) = spec.low, spec.high
    if math.isinf(low):
        low, low_open = None, False
    if math.isinf(high):
        high, high_open = None, False
    return low, low_open, high, high_open


def _inside(spec):
    """A strategy for the non-None values of ``spec``'s domain."""
    if spec.kind is tuple:
        if spec.variadic:
            return st.lists(_inside(spec.items[0]), max_size=3).map(tuple)
        return st.tuples(*(_inside(item) for item in spec.items))
    choices = spec.choices()
    if choices is not None:
        return st.sampled_from(choices)
    if spec.kind is bool:
        return st.booleans()
    low, low_open, high, high_open = _bounds(spec)
    if spec.kind is int:
        low = (low + 1 if low_open else low) if low is not None else -100
        high = (high - 1 if high_open else high) if high is not None else low + 100
        return st.integers(low, high)
    if spec.kind is float:
        return st.floats(
            min_value=low, max_value=high,
            exclude_min=low_open, exclude_max=high_open,
            allow_nan=False, allow_infinity=False,
        )
    return instances(spec.kind)


def values(cls, name):
    """In-domain values of one field, None included when it may be None."""
    if (cls, name) in OVERRIDES:
        return OVERRIDES[cls, name]
    spec = knobs.of(cls)[name]
    strategy = _inside(spec)
    if (cls, name) in ITEM_RULES:
        strategy = strategy.map(ITEM_RULES[cls, name])
    return st.none() | strategy if spec.optional else strategy


def _repair_cluster(fields):
    fields["racks"] = min(fields.get("racks", 1), fields.get("nodes", 2))


def _repair_degradation(fields):
    if not fields.get("extra_latency") and not fields["error_rate"]:
        fields["error_rate"] = 0.5


def _repair_resilience(fields):
    if fields.get("fallback") is not None:
        fields["on_exhausted"] = "fallback"
    elif fields.get("on_exhausted") == "fallback":
        fields["on_exhausted"] = "shed"


#: Cross-field rules between the fields of a nested spec.
REPAIRS = {
    ClusterSpec: _repair_cluster,
    NetworkDegradation: _repair_degradation,
    ResiliencePolicy: _repair_resilience,
}


@st.composite
def instances(draw, cls):
    """A nested spec with about half its fields drawn from their domains."""
    fields = dict(REQUIRED.get(cls, {}))
    for name in knobs.of(cls):
        if draw(st.booleans()):
            fields[name] = draw(values(cls, name))
    REPAIRS.get(cls, lambda fields: None)(fields)
    return cls(**fields)


@st.composite
def configs(draw):
    """An ExperimentConfig drawn from the declared domains, shaped by the
    cross-field rules: one deployment, its single-host features only when
    it is not clustered, and one offered-load source."""

    def field(name):
        return draw(values(ExperimentConfig, name))

    fields = {
        name: field(name)
        for name in (
            "sps", "serving", "model", "isz", "bsz", "bd", "tbb", "mp",
            "duration", "warmup_fraction", "seed", "gpu", "recovery_time",
        )
        if draw(st.booleans())
    }
    sps = fields.setdefault("sps", "flink")
    serving = fields.setdefault("serving", "onnx")
    external = serving not in EMBEDDED_TOOLS
    if draw(st.booleans()):
        fields.update(cluster=field("cluster"), partitions=1_000_000)
    else:
        if external:
            workers = draw(st.sampled_from(("server_workers", "autoscale", None)))
            if workers is not None:
                fields[workers] = field(workers)
            for name in ("adaptive_batching", "resilience", "fault_plan"):
                fields[name] = field(name)
            if serving in PROTOCOL_TOOLS:
                fields["protocol"] = field("protocol")
        engine = draw(
            st.sampled_from(("operator_parallelism", "scoring_window", "async_io"))
        )
        if sps == "flink" and (external or engine != "async_io"):
            fields[engine] = field(engine)
        if not (fields.get("operator_parallelism") or fields.get("async_io")):
            fields["checkpoint_interval"] = field("checkpoint_interval")
            if fields["checkpoint_interval"] is not None:
                fields["failure_times"] = field("failure_times")
                if sps == "flink":
                    fields["delivery_guarantee"] = field("delivery_guarantee")
    if draw(st.booleans()):
        fields["population"] = field("population")
    else:
        fields["ir"] = field("ir")
        if fields["ir"] is not None:
            fields["workload"] = field("workload")
    return ExperimentConfig(**fields)


def _base(cls, name, value):
    fields = dict(REQUIRED.get(cls, {}))
    extra = PRECONDITIONS.get((cls, name), {})
    fields.update(extra(value) if callable(extra) else extra)
    return fields


@pytest.mark.parametrize(
    "cls, name", FIELDS, ids=[f"{cls.__name__}.{name}" for cls, name in FIELDS]
)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_value_inside_the_domain_constructs(cls, name, data):
    value = data.draw(values(cls, name), label=name)
    instance = cls(**{**_base(cls, name, value), name: value})
    assert getattr(instance, name) == value


def _number_just_outside(spec):
    outside = [NAN, INF, -INF]
    low, low_open, high, high_open = _bounds(spec)
    for bound, is_open, step in ((low, low_open, -1), (high, high_open, 1)):
        if bound is None:
            continue
        if is_open:
            outside.append(bound)
        elif spec.kind is int:
            outside.append(bound + step)
        else:
            outside.append(math.nextafter(bound, step * INF))
    return outside


def _example_inside(spec):
    low, low_open, high, __ = _bounds(spec)
    if low is None:
        return 1
    return low + 1 if low_open else low


def _just_outside(spec):
    """``(value, label)`` pairs just outside ``spec``'s domain."""
    cases = [] if spec.optional else [(None, spec.name)]
    if spec.kind is tuple:
        if spec.variadic:
            cases += [
                ((value,), f"{spec.name}[0]")
                for value, __ in _just_outside(spec.items[0])
            ]
            return cases
        filler = [_example_inside(item) for item in spec.items]
        cases.append((tuple(filler) * 2, spec.name))
        for index, item in enumerate(spec.items):
            for value, __ in _just_outside(item):
                bad = list(filler)
                bad[index] = value
                cases.append((tuple(bad), f"{spec.name}[{index}]"))
        return cases
    if spec.choices() is not None:
        return cases + [("no-such-choice", spec.name)]
    if spec.kind in (int, float):
        return cases + [(value, spec.name) for value in _number_just_outside(spec)]
    if spec.kind is bool or spec.kind is str:
        return cases
    return cases + [({}, spec.name)]  # a record, not the nested dataclass


OUTSIDE = [
    (cls, name, value, label)
    for cls, name in FIELDS
    for value, label in _just_outside(knobs.of(cls)[name])
]


@pytest.mark.parametrize(
    "cls, name, value, label",
    OUTSIDE,
    ids=[f"{cls.__name__}.{name}={value!r}" for cls, name, value, __ in OUTSIDE],
)
def test_value_just_outside_the_domain_fails_at_construction(
    cls, name, value, label, no_environment
):
    with pytest.raises(ConfigError) as error:
        cls(**{**_base(cls, name, value), name: value})
    assert label in str(error.value)


@settings(max_examples=60, deadline=None)
@given(configs())
def test_in_domain_configs_survive_the_dict_round_trip(config):
    record = json.loads(config.canonical_json())
    rebuilt = config_from_dict(record)
    assert rebuilt == config
    assert rebuilt.canonical_json() == config.canonical_json()


def test_a_default_outside_its_domain_fails_at_declaration():
    with pytest.raises(ConfigError, match="width must be >= 1, got 0"):

        @knobs.declared
        @dataclasses.dataclass(frozen=True)
        class Broken:
            width: int = knobs.knob(0, ge=1)
