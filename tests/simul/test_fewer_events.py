"""Events the kernel no longer schedules, and the bits they keep.

Covers processes that start in place (their first segment runs inside
the spawning step), chained service waits (``service_timeout(a,
then=b)`` fires once, at ``(now + a) + b``) and puts into a store with
room (processed in place).
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.simul import Environment, Interrupt, Store

# -- processes start in place ----------------------------------------------


def test_first_segment_runs_before_the_spawner_continues():
    env = Environment()
    log = []

    def child():
        log.append(("child", env.now))
        yield env.timeout(1.0)
        log.append(("child resumed", env.now))

    def parent():
        yield env.timeout(2.0)
        scheduled = env._seq
        env.process(child())
        # The child's first segment ran in this step and scheduled only
        # its own timeout: no start event.
        assert env._seq == scheduled + 1
        log.append(("parent", env.now))

    env.process(parent())
    env.run()
    assert log == [("child", 2.0), ("parent", 2.0), ("child resumed", 3.0)]


def test_active_process_is_restored_after_nested_spawns():
    env = Environment()
    active = {}
    procs = {}

    def grandchild():
        active["grandchild"] = env.active_process
        yield env.timeout(1.0)

    def child():
        active["child"] = env.active_process
        procs["grandchild"] = env.process(grandchild())
        active["child after spawn"] = env.active_process
        yield procs["grandchild"]

    def parent():
        active["parent"] = env.active_process
        procs["child"] = env.process(child())
        active["parent after spawn"] = env.active_process
        yield env.timeout(5.0)

    procs["parent"] = env.process(parent())
    assert env.active_process is None
    env.run()
    assert active == {
        "parent": procs["parent"],
        "child": procs["child"],
        "grandchild": procs["grandchild"],
        "child after spawn": procs["child"],
        "parent after spawn": procs["parent"],
    }


def test_spawn_from_outside_the_loop_leaves_no_active_process():
    env = Environment()
    inside = []

    def child():
        inside.append(env.active_process)
        yield env.timeout(1.0)

    proc = env.process(child())
    assert inside == [proc]
    assert env.active_process is None


def test_generator_returning_without_yielding_is_processed_at_once():
    env = Environment()
    got = []

    def instant():
        return "ready"
        yield  # pragma: no cover - makes this a generator

    def parent():
        yield env.timeout(1.0)
        proc = env.process(instant())
        assert proc.processed and not proc.is_alive
        scheduled = env._seq
        value = yield proc
        # ``yield proc`` continued in the same step.
        assert env._seq == scheduled
        got.append((env.now, value))

    env.process(parent())
    env.run()
    assert got == [(1.0, "ready")]


def test_first_segment_exception_escalates_from_step():
    env = Environment()

    def broken():
        raise RuntimeError("first segment")
        yield  # pragma: no cover - makes this a generator

    proc = env.process(broken())
    assert proc.triggered and not proc.ok
    with pytest.raises(RuntimeError, match="first segment"):
        env.run()


def test_first_segment_exception_reaches_a_watching_spawner():
    env = Environment()
    caught = []

    def broken():
        raise RuntimeError("first segment")
        yield  # pragma: no cover - makes this a generator

    def parent():
        try:
            yield env.process(broken())
        except RuntimeError as error:
            caught.append((env.now, str(error)))

    env.process(parent())
    env.run()
    assert caught == [(0.0, "first segment")]


def test_interrupt_right_after_spawn_lands_at_the_first_yield():
    env = Environment()
    log = []

    def child():
        try:
            yield env.timeout(3.0)
        except Interrupt as interrupt:
            log.append(("interrupted", env.now, interrupt.cause))
        yield env.timeout(1.0)
        log.append(("done", env.now))

    def parent():
        proc = env.process(child())
        # Already parked on its timeout: the interrupt detaches it.
        target = proc._target
        assert proc.is_alive and target.callbacks == [proc._resume]
        proc.interrupt("now")
        assert target.callbacks == []
        yield env.timeout(5.0)

    env.process(parent())
    env.run()
    # The abandoned timeout fires at t=3 without resuming the child.
    assert log == [("interrupted", 0.0, "now"), ("done", 1.0)]


def test_first_segment_cannot_interrupt_its_running_spawner():
    env = Environment()
    spawner = []

    def child():
        spawner[0].interrupt("too early")
        yield env.timeout(1.0)

    def parent():
        spawner.append(env.active_process)
        env.process(child())
        yield env.timeout(1.0)

    env.process(parent())
    with pytest.raises(SimulationError, match="cannot interrupt itself"):
        env.run()


# -- chained service waits ---------------------------------------------------

_times = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)


def _fire_time(start, waits, chained):
    env = Environment()
    fired = []

    def proc():
        yield env.timeout(start)
        if chained:
            yield env.service_timeout(waits[0], then=waits[1])
        else:
            for wait in waits:
                yield env.service_timeout(wait)
        fired.append(env.now)

    env.process(proc())
    env.run()
    return fired[0]


@settings(max_examples=300, deadline=None)
@given(start=_times, first=_times, second=_times)
def test_chained_wait_fires_when_the_sequential_waits_would(start, first, second):
    sequential = _fire_time(start, (first, second), chained=False)
    chained = _fire_time(start, (first, second), chained=True)
    assert chained.hex() == sequential.hex()


def test_chained_wait_is_one_event():
    env = Environment()

    def proc():
        yield env.service_timeout(0.1, then=0.2)

    env.process(proc())
    steps = 0
    while env.peek() < math.inf:
        env.step()
        steps += 1
    assert steps == 1
    assert env.now == (0.0 + 0.1) + 0.2


@pytest.mark.parametrize(
    "delay, then",
    [(-1.0, 0.5), (math.nan, 0.5), (0.5, -1.0), (0.5, math.nan), (-1e-300, 0.0)],
)
def test_chained_wait_rejects_negative_or_nan_parts(delay, then):
    env = Environment()
    env.service_timeout(1.0)
    env.run()
    assert len(env._timeout_pool) == 1
    with pytest.raises(SimulationError, match="timeout delay must be >= 0"):
        env.service_timeout(delay, then=then)
    # Nothing was scheduled, and the pooled timeout is still there.
    assert env.peek() == math.inf
    assert len(env._timeout_pool) == 1


# -- store puts with room ----------------------------------------------------


def test_put_with_room_completes_in_place():
    env = Environment()
    store = Store(env, capacity=2)
    got = []

    def producer():
        yield env.timeout(1.0)
        scheduled = env._seq
        put = store.put("a")
        assert put.processed and put.ok and put.value is None
        yield put
        # Same step, and nothing scheduled for the put.
        assert env._seq == scheduled
        got.append(("put", env.now, store.level))

    env.process(producer())
    env.run()
    assert got == [("put", 1.0, 1)]
    assert list(store.items) == ["a"]


def test_put_with_room_still_wakes_a_waiting_getter():
    env = Environment()
    store = Store(env)
    got = []

    def getter():
        item = yield store.get()
        got.append((env.now, item))

    def producer():
        yield env.timeout(2.0)
        yield store.put("x")

    env.process(getter())
    env.process(producer())
    env.run()
    assert got == [(2.0, "x")]


def test_full_store_blocks_puts_in_fifo_order():
    env = Environment()
    store = Store(env, capacity=1)
    order = []

    def putter(tag):
        yield store.put(tag)
        order.append(("put", tag, env.now))

    def consumer():
        while True:
            yield env.timeout(1.0)
            item = yield store.get()
            order.append(("got", item, env.now))

    for tag in "abc":
        env.process(putter(tag))
    env.process(consumer())
    env.run(until=3.5)
    assert order == [
        ("put", "a", 0.0),
        ("got", "a", 1.0),
        ("put", "b", 1.0),
        ("got", "b", 2.0),
        ("put", "c", 2.0),
        ("got", "c", 3.0),
    ]
