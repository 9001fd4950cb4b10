"""Unit tests for simulation monitors and random streams."""

import pytest

from repro.simul import Environment, RandomStreams, TimeSeries


def test_timeseries_window():
    env = Environment()
    series = TimeSeries(env, "latency")

    def proc():
        for i in range(5):
            series.record(float(i * 10))
            yield env.timeout(2)

    env.process(proc())
    env.run()
    assert len(series) == 5
    assert series.window(2, 6) == [(2.0, 10.0), (4.0, 20.0)]
    assert series.values_after(6) == [30.0, 40.0]


def _recorded_series():
    env = Environment()
    series = TimeSeries(env, "depth")

    def proc():
        for i in range(5):
            series.record(float(i * 10))
            yield env.timeout(2)

    env.process(proc())
    env.run()
    return series  # samples: (0,0) (2,10) (4,20) (6,30) (8,40)


def test_timeseries_last_before():
    series = _recorded_series()
    assert series.last_before(0.0) is None  # strictly before: t=0 excluded
    assert series.last_before(0.1) == 0.0
    assert series.last_before(2.0) == 0.0
    assert series.last_before(2.1) == 10.0
    assert series.last_before(100.0) == 40.0


def test_timeseries_last_before_empty():
    env = Environment()
    series = TimeSeries(env, "empty")
    assert series.last_before(10.0) is None


def test_timeseries_mean_between():
    series = _recorded_series()
    # [2, 6) covers the samples at t=2 and t=4.
    assert series.mean_between(2.0, 6.0) == pytest.approx(15.0)
    assert series.mean_between(0.0, 100.0) == pytest.approx(20.0)
    # Start-inclusive, end-exclusive.
    assert series.mean_between(4.0, 6.0) == pytest.approx(20.0)


def test_timeseries_mean_between_empty_window_is_nan():
    import math

    series = _recorded_series()
    assert math.isnan(series.mean_between(2.5, 3.5))


def test_timeseries_mean_between_rejects_inverted_window():
    series = _recorded_series()
    with pytest.raises(ValueError):
        series.mean_between(5.0, 5.0)


def test_random_streams_reproducible():
    a = RandomStreams(seed=7)
    b = RandomStreams(seed=7)
    assert a.stream("x").random() == b.stream("x").random()


def test_random_streams_independent_names():
    streams = RandomStreams(seed=7)
    assert streams.stream("x").random() != streams.stream("y").random()


def test_lognormal_factor_zero_sigma_is_identity():
    streams = RandomStreams(seed=7)
    assert streams.lognormal_factor("noise", sigma=0.0) == 1.0


def test_lognormal_factor_positive():
    streams = RandomStreams(seed=7)
    factor = streams.lognormal_factor("noise", sigma=0.3)
    assert factor > 0
