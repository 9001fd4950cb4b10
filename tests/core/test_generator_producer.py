"""Unit tests for rate schedules, batch factory, and input producers."""

import pytest

from repro.broker import BrokerCluster, Consumer
from repro.core.generator import BatchFactory, ConstantRate, PeriodicBursts
from repro.core.producer import PacedProducer, SaturatingProducer
from repro.errors import ConfigError
from repro.simul import Environment
from repro.sps.gateways import DirectInput


def test_constant_rate():
    schedule = ConstantRate(100.0)
    assert schedule.rate_at(0) == 100.0
    assert schedule.rate_at(1e6) == 100.0
    with pytest.raises(ConfigError):
        ConstantRate(0)


def test_periodic_bursts_schedule():
    schedule = PeriodicBursts(low_rate=70, high_rate=110, burst_duration=30, time_between_bursts=120)
    assert schedule.cycle == 150
    assert schedule.rate_at(0) == 70
    assert not schedule.in_burst(119)
    assert schedule.in_burst(120)
    assert schedule.in_burst(149)
    assert not schedule.in_burst(150)
    assert schedule.rate_at(130) == 110


def test_burst_windows():
    schedule = PeriodicBursts(70, 110, burst_duration=30, time_between_bursts=120)
    assert schedule.burst_windows(400) == [(120, 150), (270, 300)]


def test_burst_validation():
    with pytest.raises(ConfigError):
        PeriodicBursts(0, 1, 1, 1)
    with pytest.raises(ConfigError):
        PeriodicBursts(1, 1, 0, 1)


def test_batch_factory_ids_and_shape():
    factory = BatchFactory(points=4, point_shape=(28, 28))
    a = factory.make(created_at=1.0)
    b = factory.make(created_at=2.0)
    assert (a.batch_id, b.batch_id) == (0, 1)
    assert a.points == 4
    assert a.input_values == 4 * 784
    with pytest.raises(ConfigError):
        BatchFactory(points=0, point_shape=(4,))
    with pytest.raises(ConfigError):
        BatchFactory(points=1, point_shape=())


def test_paced_producer_hits_rate():
    env = Environment()
    cluster = BrokerCluster(env)
    cluster.create_topic("in", 4)
    factory = BatchFactory(1, (28, 28))
    producer = PacedProducer(
        env, factory, cluster=cluster, topic="in", schedule=ConstantRate(100.0)
    )
    producer.start()
    env.run(until=2.0)
    # ~100 events/s for 2 s; allow delivery tail slack.
    assert 190 <= producer.batches_produced <= 201
    assert cluster.topic("in").total_records() == producer.batches_produced


def test_paced_producer_start_timestamp_before_append():
    env = Environment()
    cluster = BrokerCluster(env)
    cluster.create_topic("in", 1)
    factory = BatchFactory(1, (28, 28))
    producer = PacedProducer(
        env, factory, cluster=cluster, topic="in", schedule=ConstantRate(10.0)
    )
    producer.start()
    env.run(until=0.5)
    consumer = Consumer(env, cluster, "in")

    def drain(out):
        records = yield from consumer.poll()
        out.extend(records)

    out = []
    env.process(drain(out))
    env.run(until=1.0)
    for record in out:
        assert record.timestamp < record.log_append_time


def test_saturating_producer_keeps_backlog():
    env = Environment()
    cluster = BrokerCluster(env)
    cluster.create_topic("in", 4)
    factory = BatchFactory(1, (28, 28))
    done = {"count": 0}
    producer = SaturatingProducer(
        env,
        factory,
        cluster=cluster,
        topic="in",
        completed=lambda: done["count"],
        backlog_target=50,
    )
    producer.start()
    env.run(until=0.5)
    assert producer.batches_spawned == 50  # filled once, nothing completed
    done["count"] = 30
    env.run(until=1.0)
    assert producer.batches_spawned == 80  # topped back up


def test_saturating_producer_validation():
    env = Environment()
    factory = BatchFactory(1, (4,))
    with pytest.raises(ValueError):
        SaturatingProducer(
            env, factory, direct=DirectInput(env), completed=lambda: 0, backlog_target=0
        )


def test_producer_requires_exactly_one_target():
    env = Environment()
    factory = BatchFactory(1, (4,))
    with pytest.raises(ValueError):
        PacedProducer(env, factory, schedule=ConstantRate(1.0))  # neither


def test_direct_mode_producer():
    env = Environment()
    direct = DirectInput(env)
    source = direct.make_source(0, 1)
    factory = BatchFactory(1, (4,))
    producer = PacedProducer(
        env, factory, direct=direct, schedule=ConstantRate(100.0)
    )
    producer.start()
    env.run(until=0.1)
    assert producer.batches_produced >= 9
    assert source.lag() == producer.batches_produced
