"""``Resource.serve(hold)`` against the kernel's own request/release.

``serve`` stands for ``with res.request() as req: yield req; yield
env.timeout(hold)`` as one event. These tests drive both forms through
the same arrivals, holds and interrupts and compare what they produce:
grant order, completion floats, interrupt times, and the resource's
``count`` and ``len(queue)`` after every simulated instant that
changes them.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.simul import Environment, Interrupt, Resource

#: Times on a coarse grid, so arrivals, completions and interrupts tie.
GRID = st.integers(min_value=0, max_value=12).map(lambda k: k * 0.25)

HOLDER = st.fixed_dictionaries(
    {
        "arrival": GRID,
        "hold": st.sampled_from([0.25, 0.5, 0.75, 1.0]),
        # The hold is drawn at the grant, from the grant time.
        "by_grant": st.booleans(),
        "interrupt": st.none() | GRID | GRID.map(lambda t: t + 0.125),
    }
)


def _hold(spec, granted):
    if spec["by_grant"]:
        return spec["hold"] + 0.1 * granted
    return spec["hold"]


def _reference(env, res, index, spec, log):
    yield env.timeout(spec["arrival"])

    def granted(event):
        if not isinstance(event.value, Interrupt):  # not an abandoned wait
            log["grants"].append((index, env.now))

    try:
        with res.request() as req:
            if req.callbacks is None:  # granted in place
                granted(req)
            else:
                req.callbacks.append(granted)
            yield req
            yield env.timeout(_hold(spec, env.now))
            log["done"][index] = env.now
    except Interrupt:
        log["interrupted"][index] = env.now


def _served(env, res, index, spec, log):
    yield env.timeout(spec["arrival"])

    def hold(now):
        log["grants"].append((index, now))
        return _hold(spec, now)

    done = res.serve(hold if spec["by_grant"] else spec["hold"])
    log["serves"][index] = done
    try:
        yield done
        log["done"][index] = env.now
    except Interrupt:
        log["interrupted"][index] = env.now


def _run(holder, capacity, specs):
    env = Environment()
    res = Resource(env, capacity=capacity)
    log = {"grants": [], "done": {}, "interrupted": {}, "states": [], "serves": {}}
    procs = [
        env.process(holder(env, res, index, spec, log))
        for index, spec in enumerate(specs)
    ]

    def interrupter(proc, at):
        yield env.timeout(at)
        if proc.is_alive:
            proc.interrupt("crash")

    for proc, spec in zip(procs, specs):
        if spec["interrupt"] is not None:
            env.process(interrupter(proc, spec["interrupt"]))
    # The state after every simulated instant, kept where it changed: a
    # served holder interrupted in service still has its completion
    # due, an event that changes nothing.
    while env.peek() < math.inf:
        env.run(until=env.peek())
        state = (res.count, len(res.queue))
        if not log["states"] or log["states"][-1][1:] != state:
            log["states"].append((env.now, *state))
    return log


@settings(max_examples=300, deadline=None)
@given(
    capacity=st.integers(min_value=1, max_value=4),
    specs=st.lists(HOLDER, min_size=1, max_size=10),
)
def test_serve_matches_request_timeout_release(capacity, specs):
    reference = _run(_reference, capacity, specs)
    served = _run(_served, capacity, specs)
    assert served["done"] == reference["done"]
    assert served["interrupted"] == reference["interrupted"]
    assert served["states"] == reference["states"]
    if all(spec["by_grant"] for spec in specs):
        # Every grant ran a hold function, in grant order.
        assert served["grants"] == reference["grants"]
    else:
        # A float hold leaves its grant time as the event's value.
        grants = [
            (index, done.value)
            for index, done in served["serves"].items()
            if done.triggered and not isinstance(done.value, Interrupt)
        ]
        assert sorted(grants) == sorted(reference["grants"])


def test_serve_schedules_one_event_and_no_grant_event():
    env = Environment()
    res = Resource(env, capacity=1)
    first, second = res.serve(1.0), res.serve(2.0)
    assert first.triggered and not second.triggered
    assert (res.count, len(res.queue)) == (1, 1)
    scheduled = env._seq
    env.run(until=1.0)
    # The first completion freed its slot and granted the second in the
    # same step: only the second completion was scheduled.
    assert env._seq == scheduled + 1
    assert first.value == 0.0 and second.value == 1.0
    assert (res.count, len(res.queue)) == (1, 0)
    env.run()
    assert env.now == 3.0 and res.count == 0


def test_serve_frees_its_slot_after_its_callbacks():
    env = Environment()
    res = Resource(env, capacity=1)
    seen = []
    done = res.serve(0.5)
    done.callbacks.append(lambda event: seen.append((res.count, event.value)))
    env.run()
    assert seen == [(1, 0.0)]
    assert res.count == 0


def test_hold_function_sees_the_grant_time():
    env = Environment()
    res = Resource(env, capacity=1)
    grants = []

    def hold(now):
        grants.append(now)
        return 0.5

    res.serve(1.0)
    env.run(until=0.25)
    later = res.serve(hold)
    assert grants == []
    env.run()
    assert grants == [1.0]
    assert later.value == 1.0 and env.now == 1.5


def test_serve_and_request_share_one_fifo_queue():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def requester():
        with res.request() as req:
            yield req
            order.append(("request", env.now))
            yield env.timeout(1.0)

    res.serve(1.0)
    env.process(requester())
    res.serve(1.0).callbacks.append(lambda e: order.append(("serve", e.value)))
    env.run()
    assert order == [("request", 1.0), ("serve", 2.0)]


@pytest.mark.parametrize("hold", [-1.0, math.nan])
def test_invalid_hold_raises(hold):
    env = Environment()
    res = Resource(env, capacity=1)
    with pytest.raises(SimulationError):
        res.serve(hold)
