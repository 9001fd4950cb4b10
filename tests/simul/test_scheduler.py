"""The heap scheduler against a naive oracle, and kernel edge semantics."""

import pytest

from repro.errors import SimulationError
from repro.simul import Environment
from repro.simul.events import NORMAL, URGENT
from repro.simul.scheduler import HeapScheduler


class ListScheduler:
    """Naive oracle: an unsorted list, popped by ``min()`` over the keys."""

    def __init__(self):
        self._entries = []

    def __len__(self):
        return len(self._entries)

    def push(self, entry):
        self._entries.append(entry)

    def pop(self):
        if not self._entries:
            raise IndexError("pop from an empty scheduler")
        best = min(self._entries)
        self._entries.remove(best)
        return best

    def peek(self):
        return min(self._entries)[0] if self._entries else float("inf")


#: The kernel's scheduler backends, keyed by the case id of the
#: edge-semantics tests below.
BACKENDS = {"heap": HeapScheduler}


def _env(kind):
    """An unperturbed Environment, checked to run on backend ``kind``."""
    env = Environment()
    assert type(env._sched) is BACKENDS[kind]
    return env


def _lcg(seed):
    state = seed % 2147483647 or 1
    while True:
        state = (state * 1103515245 + 12345) % 2147483647
        yield state


def _drive(scheduler, seed, ops=2000):
    """Feed a seeded mixed push/pop trace; return the pop order.

    The trace mimics kernel traffic: zero-delay entries at both
    priorities, short delays, and occasional far-future delays, with
    pops interleaved so `now` advances mid-stream.
    """
    rand = _lcg(seed)
    now = 0.0
    seq = 0
    popped = []
    for __ in range(ops):
        roll = next(rand) % 10
        if roll < 6 or not len(scheduler):
            seq += 1
            shape = next(rand) % 10
            if shape < 3:
                delay = 0.0
                priority = URGENT if shape == 0 else NORMAL
            elif shape < 8:
                delay = (next(rand) % 1000) / 1.0e4
                priority = NORMAL
            else:
                delay = 10.0 + (next(rand) % 1000)
                priority = NORMAL
            scheduler.push((now + delay, priority, seq, f"e{seq}"))
        else:
            entry = scheduler.pop()
            assert entry[0] >= now
            now = entry[0]
            popped.append(entry)
    while len(scheduler):
        entry = scheduler.pop()
        assert entry[0] >= now
        now = entry[0]
        popped.append(entry)
    return popped


@pytest.mark.parametrize("seed", [1, 7, 42, 1234, 99991])
def test_heap_matches_oracle_on_mixed_traffic(seed):
    assert _drive(HeapScheduler(), seed) == _drive(ListScheduler(), seed)


@pytest.mark.parametrize("kind", sorted(BACKENDS))
def test_peek_tracks_minimum(kind):
    scheduler = BACKENDS[kind]()
    assert scheduler.peek() == float("inf")
    scheduler.push((7.0, NORMAL, 1, "late"))
    scheduler.push((2.0, NORMAL, 2, "early"))
    scheduler.push((0.0, URGENT, 3, "now"))
    assert scheduler.peek() == 0.0
    assert scheduler.pop()[3] == "now"
    assert scheduler.peek() == 2.0


def test_pop_empty_raises_index_error():
    with pytest.raises(IndexError):
        HeapScheduler().pop()


# -- kernel edge semantics --------------------------------------------


@pytest.mark.parametrize("kind", sorted(BACKENDS))
def test_same_time_events_fire_in_priority_then_insertion_order(kind):
    env = _env(kind)
    order = []
    first = env.event()
    second = env.event()
    urgent = env.event()
    first.callbacks.append(lambda e: order.append("first"))
    second.callbacks.append(lambda e: order.append("second"))
    urgent.callbacks.append(lambda e: order.append("urgent"))
    first.succeed()
    second.succeed()
    urgent.succeed(priority=URGENT)
    env.run()
    assert order == ["urgent", "first", "second"]


@pytest.mark.parametrize("kind", sorted(BACKENDS))
def test_same_time_timeouts_fire_in_creation_order(kind):
    env = _env(kind)
    fired = []

    def proc(tag):
        yield env.timeout(3.0)
        fired.append(tag)

    for tag in ("a", "b", "c", "d"):
        env.process(proc(tag))
    env.run()
    assert fired == ["a", "b", "c", "d"]


@pytest.mark.parametrize("kind", sorted(BACKENDS))
def test_run_until_already_processed_event_returns_immediately(kind):
    env = _env(kind)
    timeout = env.timeout(1.0, value="tick")
    env.run(until=10)
    assert timeout.processed
    # No pending events are consumed and the clock does not move.
    sentinel = env.timeout(100.0)
    assert env.run(until=timeout) == "tick"
    assert env.now == 10.0
    assert not sentinel.processed


@pytest.mark.parametrize("kind", sorted(BACKENDS))
def test_failed_event_without_watcher_escalates_from_step(kind):
    env = _env(kind)

    def crasher():
        yield env.timeout(1.0)
        raise ValueError("unwatched crash")

    env.process(crasher())
    with pytest.raises(ValueError, match="unwatched crash"):
        env.run()


@pytest.mark.parametrize("kind", sorted(BACKENDS))
def test_run_until_deadline_advances_clock_past_empty_queue(kind):
    env = _env(kind)

    def proc():
        yield env.timeout(2.0)

    env.process(proc())
    env.run(until=50)
    # The queue drained at t=2 but the clock still lands on the deadline.
    assert env.now == 50.0
    assert env.peek() == float("inf")


@pytest.mark.parametrize("kind", sorted(BACKENDS))
def test_run_until_event_never_fired_raises(kind):
    env = _env(kind)
    with pytest.raises(SimulationError, match="drained"):
        env.run(until=env.event())
