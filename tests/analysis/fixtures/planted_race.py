"""Planted tie-class race: the dynamic tie tracker's self-test target.

:func:`run_tie_race` is a race ON PURPOSE: two processes with no
happens-before edge hit a capacity-1 store in the same
``(time, priority)`` tie class, so which one lands its item is decided
by pop order alone. The analysis tests and the CI ``determinism`` job
assert that the tracker reports it. DO NOT "fix" it and DO NOT add
suppression pragmas: a silent tracker here means the tracker is broken,
not the fixture. :func:`run_clean` is the control scenario the tracker
must stay silent on.
"""

from repro.simul.core import Environment
from repro.simul.resources import Resource, Store


# -- dynamic planted race: same-tick cross-root store conflict --------------


def _racer(env, store, item):
    yield env.timeout(1.0)
    store.try_put(item)


def run_tie_race():
    """Two independent processes race for one store slot at t=1.0.

    Returns the store; its single surviving item is whichever racer the
    scheduler popped first — the canonical CONFIRMED tie-class conflict
    the tracker must report (write vs full-store probe, distinct roots).
    """
    env = Environment()
    store = Store(env, capacity=1)
    env.process(_racer(env, store, "a"))
    env.process(_racer(env, store, "b"))
    env.run(until=2.0)
    return store


def run_clean(n=3):
    """Control scenario: same shape, but a causality chain not a race.

    Each worker schedules the next one mid-tick, so every access shares
    one same-tick scheduling root and the tracker must stay silent.
    """
    env = Environment()
    store = Store(env)
    gpu = Resource(env, capacity=1)

    def chain(k):
        yield env.timeout(1.0)
        with gpu.request() as slot:
            yield slot
            store.try_put(k)
        if k + 1 < n:
            env.process(chain(k + 1))

    env.process(chain(0))
    env.run(until=5.0)
    return store
