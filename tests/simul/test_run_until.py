"""``Environment.run(until=t)`` edge semantics and NaN time rejection."""

import pytest

from repro.errors import SimulationError
from repro.simul import Environment
from repro.simul.core import kernel_overrides

INF = float("inf")
NAN = float("nan")


@pytest.fixture(params=["heap", "permuted"])
def env(request):
    """A plain kernel and one under the tie-permuting scheduler."""
    if request.param == "heap":
        return Environment()
    with kernel_overrides(perturb_seed=3):
        return Environment()


def test_run_until_inf_on_empty_queue_sets_now_to_inf(env):
    assert env.run(until=INF) is None
    assert env.now == INF


def test_run_until_inf_drains_the_queue(env):
    fired = []

    def proc():
        yield env.timeout(2.0)
        fired.append(env.now)
        yield env.timeout(3.0)
        fired.append(env.now)

    env.process(proc())
    assert env.run(until=INF) is None
    assert fired == [2.0, 5.0]
    assert env.now == INF
    assert env.peek() == INF


def test_run_until_inf_fires_an_event_at_inf(env):
    fired = []
    env.timeout(INF).callbacks.append(lambda event: fired.append(env.now))
    env.run(until=INF)
    assert fired == [INF]


def test_run_until_t_on_empty_queue_advances_the_clock(env):
    assert env.run(until=4.5) is None
    assert env.now == 4.5
    env.run(until=4.5)
    assert env.now == 4.5


def test_event_exactly_at_the_deadline_fires(env):
    fired = []

    def proc():
        yield env.timeout(2.0)
        fired.append(env.now)
        # Scheduled at the deadline while the deadline tick is draining.
        yield env.timeout(0.0)
        fired.append(env.now)

    env.process(proc())
    env.timeout(2.0 + 1e-9).callbacks.append(lambda event: fired.append("late"))
    env.run(until=2.0)
    assert fired == [2.0, 2.0]
    assert env.now == 2.0
    env.run(until=3.0)
    assert fired == [2.0, 2.0, "late"]


@pytest.mark.parametrize("until", [2.0, NAN])
def test_run_until_the_past_or_nan_raises_and_keeps_the_clock(env, until):
    env.run(until=3.0)
    with pytest.raises(SimulationError, match="backwards"):
        env.run(until=until)
    assert env.now == 3.0


def test_nan_delays_are_rejected_before_reaching_the_heap():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(NAN)
    with pytest.raises(SimulationError):
        env.service_timeout(NAN)  # cold pool: a fresh slab timeout

    def prime():
        yield env.service_timeout(1.0)

    env.process(prime())
    env.run()
    assert env._timeout_pool
    with pytest.raises(SimulationError):
        env.service_timeout(NAN)  # warm pool: a recycled timeout
    assert env.peek() == INF
    assert env.now == 1.0
