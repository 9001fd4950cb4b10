"""Unit tests for the input/output gateways."""

import pytest

from repro.broker import BrokerCluster, Producer
from repro.core.batch import CrayfishDataBatch
from repro.errors import ConfigError
from repro.simul import Environment
from repro.sps.gateways import (
    BrokerInput,
    BrokerOutput,
    DirectInput,
    DirectOutput,
    InputEvent,
)


def batch(i=0, created_at=0.0):
    return CrayfishDataBatch(
        batch_id=i, created_at=created_at, points=1, point_shape=(4,)
    )


def test_broker_input_round_trip():
    env = Environment()
    cluster = BrokerCluster(env)
    cluster.create_topic("in", 2)
    producer = Producer(env, cluster)
    gateway = BrokerInput(env, cluster, "in")
    source = gateway.make_source(0, 1)
    received = []

    def produce():
        for i in range(3):
            yield from producer.send("in", batch(i), nbytes=100)

    def consume():
        events = yield from source.poll()
        received.extend(events)

    env.process(produce())
    env.process(consume())
    env.run()
    assert all(isinstance(e, InputEvent) for e in received)
    assert received[0].nbytes == 100
    assert gateway.charges_serde


def test_broker_source_position_and_seek():
    env = Environment()
    cluster = BrokerCluster(env)
    cluster.create_topic("in", 1)
    producer = Producer(env, cluster)
    gateway = BrokerInput(env, cluster, "in")
    source = gateway.make_source(0, 1)

    def produce_and_read():
        for i in range(4):
            yield from producer.send("in", batch(i), nbytes=50)
        yield from source.poll()

    env.process(produce_and_read())
    env.run()
    position = source.position()
    assert position == {0: 4}
    source.seek({0: 2})
    assert source.lag() == 2
    with pytest.raises(ConfigError):
        source.seek({5: 0})
    with pytest.raises(ConfigError):
        source.seek({0: -1})


def test_broker_output_returns_log_append_time():
    env = Environment()
    cluster = BrokerCluster(env)
    cluster.create_topic("out", 1)
    gateway = BrokerOutput(env, cluster, "out")
    ends = []
    gateway.emit(batch(0, created_at=0.0), 100, lambda b, end: ends.append(end))
    env.run()
    assert ends[0] > 0
    assert cluster.topic("out").total_records() == 1


def test_direct_input_round_robin_over_members():
    env = Environment()
    gateway = DirectInput(env)
    s0 = gateway.make_source(0, 2)
    s1 = gateway.make_source(1, 2)
    for i in range(4):
        gateway.push(batch(i))
    assert s0.lag() == 2
    assert s1.lag() == 2
    assert not gateway.charges_serde


def test_direct_input_events_have_no_bytes():
    env = Environment()
    gateway = DirectInput(env)
    source = gateway.make_source(0, 1)
    gateway.push(batch(0))
    got = []

    def consume():
        events = yield from source.poll()
        got.extend(events)

    env.process(consume())
    env.run()
    assert got[0].nbytes == 0.0


def test_direct_source_default_checkpoint_hooks():
    env = Environment()
    gateway = DirectInput(env)
    source = gateway.make_source(0, 1)
    assert source.position() == {}
    source.seek({0: 5})  # no-op, must not raise


def test_direct_output_is_immediate():
    env = Environment()
    gateway = DirectOutput(env)
    ends = []

    def emit():
        yield env.timeout(2.5)
        gateway.emit(batch(0), 0, lambda b, end: ends.append(end))
        assert ends == [2.5]  # landed in place, before the emitter resumes

    env.process(emit())
    env.run()
    assert ends == [2.5]
