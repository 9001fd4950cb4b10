"""Regression tests for the kernel correctness fixes.

Covers the condition-callback leak, the Store capacity validation gap,
cancelled-waiter buildup in resource/store wait queues, the Timeout
slab contract, the defused semantics of abandoned processes, and the
events that are processed in place without reaching the scheduler
(uncontended requests, unwatched process exits).
"""

import pytest

from repro.errors import SimulationError
from repro.simul import Environment, Interrupt, Resource, Store


# -- AnyOf/AllOf condition-callback leak ------------------------------


def test_any_of_detaches_from_losing_event():
    env = Environment()
    winner = env.timeout(1.0)
    loser = env.timeout(100.0)

    def proc():
        yield env.any_of([winner, loser])

    env.process(proc())
    env.run(until=2)
    # The decided condition must not linger on the still-pending loser.
    assert loser.callbacks == []


def test_all_of_detaches_on_failure():
    env = Environment()
    pending = env.timeout(100.0)

    def failer():
        yield env.timeout(1.0)
        raise RuntimeError("boom")

    def waiter():
        with pytest.raises(RuntimeError):
            yield env.all_of([env.process(failer()), pending])

    env.process(waiter())
    env.run(until=2)
    assert pending.callbacks == []


def test_repeated_races_do_not_accumulate_callbacks():
    # The resilience-client idiom: a long-lived deadline raced against a
    # stream of short calls. Pre-fix, every decided AnyOf left its
    # _check on the pending child forever.
    env = Environment()
    slow = env.timeout(1000.0)

    def client():
        for __ in range(50):
            yield env.any_of([env.timeout(1.0), slow])

    env.process(client())
    env.run(until=100)
    assert len(slow.callbacks) == 0


def test_any_of_still_delivers_first_result_after_detach():
    env = Environment()
    seen = []

    def proc():
        fast = env.timeout(2.0, value="fast")
        slow = env.timeout(9.0, value="slow")
        result = yield env.any_of([fast, slow])
        seen.append((env.now, list(result.values())))
        # The loser still fires normally for a direct waiter.
        value = yield slow
        seen.append((env.now, value))

    env.process(proc())
    env.run()
    assert seen == [(2.0, ["fast"]), (9.0, "slow")]


# -- Store capacity validation ----------------------------------------


@pytest.mark.parametrize("capacity", [0.5, 0, -1, 2.5, True, "big", float("nan")])
def test_store_rejects_invalid_capacity(capacity):
    env = Environment()
    with pytest.raises(SimulationError, match="store capacity"):
        Store(env, capacity=capacity)


@pytest.mark.parametrize("capacity", [1, 7, 16.0, float("inf")])
def test_store_accepts_integral_or_unbounded_capacity(capacity):
    env = Environment()
    store = Store(env, capacity=capacity)
    assert store.try_put("x")
    assert store.level == 1


def test_resource_rejects_zero_capacity():
    with pytest.raises(SimulationError, match="resource capacity"):
        Resource(Environment(), capacity=0)


# -- cancelled-waiter buildup -----------------------------------------


def _interrupt_later(env, proc, at):
    def body():
        yield env.timeout(at)
        proc.interrupt("cancelled")

    env.process(body())


def test_interrupted_requests_do_not_pile_up_in_resource_queue():
    env = Environment()
    resource = Resource(env, capacity=1)

    def holder():
        with resource.request() as req:
            yield req
            yield env.timeout(1000.0)

    def waiter():
        with pytest.raises(Interrupt):
            with resource.request() as req:
                yield req

    env.process(holder())
    for k in range(200):
        proc = env.process(waiter())
        _interrupt_later(env, proc, 1.0 + k * 0.01)
    env.run(until=500)
    # All 200 waiters were cancelled; eager compaction keeps the queue
    # from retaining them until the holder finally releases.
    assert len(resource.queue) <= 1


def test_interrupted_getters_do_not_pile_up_in_store():
    env = Environment()
    store = Store(env)

    def getter():
        with pytest.raises(Interrupt):
            yield store.get()

    for k in range(200):
        proc = env.process(getter())
        _interrupt_later(env, proc, 1.0 + k * 0.01)
    env.run(until=500)
    assert len(store._getters) <= 1


def test_interrupted_putters_do_not_pile_up_in_store():
    env = Environment()
    store = Store(env, capacity=1)
    assert store.try_put("occupant")

    def putter(k):
        with pytest.raises(Interrupt):
            yield store.put(k)

    for k in range(200):
        proc = env.process(putter(k))
        _interrupt_later(env, proc, 1.0 + k * 0.01)
    env.run(until=500)
    assert len(store._putters) <= 1
    # The buffered item is untouched by the cancelled putters.
    assert list(store.items) == ["occupant"]


def test_compaction_preserves_live_waiter_order():
    env = Environment()
    store = Store(env)
    received = []

    def live_getter(tag):
        item = yield store.get()
        received.append((tag, item))

    def doomed_getter():
        with pytest.raises(Interrupt):
            yield store.get()

    env.process(live_getter("first"))
    doomed = [env.process(doomed_getter()) for __ in range(8)]
    env.process(live_getter("second"))
    for k, proc in enumerate(doomed):
        _interrupt_later(env, proc, 1.0 + k * 0.01)

    def producer():
        yield env.timeout(10.0)
        yield store.put("a")
        yield store.put("b")

    env.process(producer())
    env.run()
    assert received == [("first", "a"), ("second", "b")]


# -- Timeout slab -----------------------------------------------------


def test_service_timeout_values_and_clock_match_timeout():
    env = Environment()
    seen = []

    def proc():
        value = yield env.service_timeout(2.0, value="first")
        seen.append((env.now, value))
        value = yield env.service_timeout(3.0, value="second")
        seen.append((env.now, value))

    env.process(proc())
    env.run()
    assert seen == [(2.0, "first"), (5.0, "second")]


def test_service_timeout_recycles_objects():
    env = Environment()
    identities = []

    def proc():
        for __ in range(4):
            timeout = env.service_timeout(1.0)
            identities.append(id(timeout))
            yield timeout

    env.process(proc())
    env.run()
    # After the first fires and is recycled, the pool hands the same
    # object back out.
    assert len(set(identities)) < len(identities)
    assert len(env._timeout_pool) >= 1


def test_service_timeout_rejects_negative_delay():
    env = Environment()

    def prime():
        yield env.service_timeout(1.0)

    env.process(prime())
    env.run()
    assert env._timeout_pool  # warm-pool path
    with pytest.raises(SimulationError):
        env.service_timeout(-1.0)
    with pytest.raises(SimulationError):
        Environment().service_timeout(-1.0)  # cold-pool path too


def test_slab_determinism_against_plain_timeouts():
    def trace(fast):
        env = Environment()
        log = []

        def worker(k):
            make = env.service_timeout if fast else env.timeout
            state = k + 1
            for __ in range(50):
                state = (state * 48271) % 2147483647
                yield make((state % 97) / 10.0)
                log.append((round(env.now, 9), k))

        for k in range(8):
            env.process(worker(k))
        env.run()
        return log

    assert trace(True) == trace(False)


# -- defused semantics ------------------------------------------------


def test_interrupted_unwatched_process_does_not_escalate():
    env = Environment()

    def sleeper():
        yield env.timeout(1000.0)

    def canceller(proc):
        yield env.timeout(1.0)
        proc.interrupt("shutdown")

    proc = env.process(sleeper())
    env.process(canceller(proc))
    env.run()  # must not raise Interrupt
    assert not proc.is_alive
    assert isinstance(proc._value, Interrupt)


def test_crash_after_handling_interrupt_still_escalates():
    env = Environment()

    def stubborn():
        try:
            yield env.timeout(1000.0)
        except Interrupt:
            pass
        raise RuntimeError("real failure")

    def canceller(proc):
        yield env.timeout(1.0)
        proc.interrupt()

    proc = env.process(stubborn())
    env.process(canceller(proc))
    with pytest.raises(RuntimeError, match="real failure"):
        env.run()


# -- events processed in place ----------------------------------------


def test_uncontended_request_is_processed_on_return():
    env = Environment()
    resource = Resource(env, capacity=2)
    log = []

    def requester():
        yield env.timeout(1.0)
        with resource.request() as req:
            assert req.processed and req.ok and req.value is None
            scheduled = env._seq
            yield req
            # Same step: nothing was scheduled to resume us.
            assert env._seq == scheduled
            log.append(("granted", env.now))

    def bystander():
        yield env.timeout(1.0)
        log.append(("bystander", env.now))

    env.process(requester())
    env.process(bystander())
    env.run()
    # The grant does not queue behind events already due at t=1.
    assert log == [("granted", 1.0), ("bystander", 1.0)]
    assert resource.count == 0


def test_contended_requests_wait_in_fifo_order():
    env = Environment()
    resource = Resource(env, capacity=1)
    first = resource.request()
    second = resource.request()
    assert first.processed
    assert not second.triggered
    resource.release(first)
    # A queued request is woken through the scheduler, not in place.
    assert second.triggered and not second.processed
    env.run()
    assert second.processed
    resource.release(second)

    order = []

    def user(tag):
        with resource.request() as req:
            yield req
            order.append((tag, env.now))
            yield env.timeout(1.0)

    for tag in "abc":
        env.process(user(tag))
    env.run()
    assert order == [("a", 0.0), ("b", 1.0), ("c", 2.0)]


def test_unwatched_exit_is_processed_in_place():
    env = Environment()
    seen = []

    def child():
        yield env.timeout(1.0)
        return "done"

    proc = env.process(child())

    def observer():
        # Due at t=1 after the child's timeout, so it runs right after
        # the child returned; no completion event stands between them.
        yield env.timeout(1.0)
        seen.append(proc.processed)

    env.process(observer())
    env.run(until=2.0)
    assert seen == [True]
    assert proc.processed and not proc.is_alive and proc.value == "done"

    got = []

    def late():
        value = yield proc
        got.append(("yield", env.now, value))
        result = yield env.all_of([proc])
        got.append(("all_of", env.now, result[proc]))

    env.process(late())
    env.run()
    assert got == [("yield", 2.0, "done"), ("all_of", 2.0, "done")]
    assert env.run(until=proc) == "done"


def test_run_until_an_unwatched_process_returns_its_value():
    env = Environment()

    def child():
        yield env.timeout(3.0)
        return 42

    def background():
        while True:
            yield env.timeout(1.0)

    proc = env.process(child())
    env.process(background())
    assert env.run(until=proc) == 42
    assert env.now == 3.0


def test_watcher_attached_before_exit_is_resumed():
    env = Environment()
    got = []

    def child():
        yield env.timeout(1.0)
        return "done"

    proc = env.process(child())

    def waiter():
        value = yield proc
        got.append(("yield", env.now, value))

    def racer():
        result = yield env.any_of([proc, env.timeout(5.0)])
        got.append(("any_of", env.now, result[proc]))

    env.process(waiter())
    env.process(racer())
    env.run()
    assert sorted(got) == [("any_of", 1.0, "done"), ("yield", 1.0, "done")]


def test_unwatched_failing_process_still_escalates():
    env = Environment()

    def crasher():
        yield env.timeout(1.0)
        raise RuntimeError("unwatched failure")

    env.process(crasher())
    with pytest.raises(RuntimeError, match="unwatched failure"):
        env.run()


def test_slot_granted_in_place_is_released_on_interrupt():
    env = Environment()
    resource = Resource(env, capacity=1)
    granted = []

    def holder():
        with resource.request() as req:
            yield req
            yield env.timeout(1000.0)

    def next_in_line():
        yield env.timeout(0.5)
        with resource.request() as req:
            yield req
            granted.append(env.now)

    proc = env.process(holder())
    env.process(next_in_line())
    _interrupt_later(env, proc, 1.0)
    env.run()  # the interrupt is defused: nothing escalates
    assert not proc.is_alive
    assert isinstance(proc._value, Interrupt)
    assert granted == [1.0]
    assert resource.count == 0
