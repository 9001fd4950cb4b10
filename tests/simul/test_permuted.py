"""PermutedScheduler, kernel_overrides scoping, and abandoned conditions."""

import pytest

from repro.simul.core import Environment, kernel_overrides
from repro.simul.events import NORMAL, URGENT
from repro.simul.process import Interrupt
from repro.simul.scheduler import HeapScheduler, PermutedScheduler
from tests.simul.test_scheduler import ListScheduler


def _tie_entries(n, time=1.0, priority=NORMAL):
    return [(time, priority, seq, f"e{seq}") for seq in range(n)]


def _pop_all(scheduler):
    out = []
    while len(scheduler):
        out.append(scheduler.pop())
    return out


# -- permutation mechanics ---------------------------------------------------


def test_permuted_preserves_cross_class_order():
    sched = PermutedScheduler(HeapScheduler(), seed=1)
    entries = (
        _tie_entries(4, time=1.0, priority=URGENT)
        + _tie_entries(4, time=1.0, priority=NORMAL)
        + _tie_entries(3, time=2.0)
    )
    for entry in entries:
        sched.push(entry)
    popped = _pop_all(sched)
    keys = [(e[0], e[1]) for e in popped]
    assert keys == sorted(keys)  # (time, priority) order is inviolable


def test_permuted_shuffles_within_tie_class():
    """Across a handful of seeds, at least one must deviate from
    insertion order — otherwise the harness proves nothing."""
    orders = set()
    for seed in range(1, 6):
        sched = PermutedScheduler(HeapScheduler(), seed=seed)
        for entry in _tie_entries(8):
            sched.push(entry)
        orders.add(tuple(e[2] for e in _pop_all(sched)))
    assert any(order != tuple(range(8)) for order in orders)


def test_permuted_deterministic_for_fixed_seed():
    def run():
        sched = PermutedScheduler(HeapScheduler(), seed=7)
        for entry in _tie_entries(10):
            sched.push(entry)
        return [e[2] for e in _pop_all(sched)]

    assert run() == run()


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_permuted_identical_across_backends(seed):
    """The perturbed pop sequence is a pure function of (push trace,
    seed) — the wrapped backend must not leak through, so the heap and
    the naive list oracle perturb identically."""

    def run(base_cls):
        sched = PermutedScheduler(base_cls(), seed=seed)
        entries = _tie_entries(6, 1.0) + _tie_entries(6, 2.0) + [
            (1.0, URGENT, 100, "u")
        ]
        for entry in entries:
            sched.push(entry)
        return [e[2] for e in _pop_all(sched)]

    assert run(HeapScheduler) == run(ListScheduler)


def test_permuted_mid_tick_push_joins_live_pool():
    """An entry pushed at the draining timestamp is poppable this tick
    (causality allows it: the base scheduler would surface it too)."""
    sched = PermutedScheduler(HeapScheduler(), seed=1)
    for entry in _tie_entries(3, time=1.0):
        sched.push(entry)
    first = sched.pop()  # drains the t=1 tick into pools
    sched.push((1.0, NORMAL, 50, "late"))
    rest = _pop_all(sched)
    assert first[0] == 1.0
    assert {e[2] for e in rest} == ({0, 1, 2, 50} - {first[2]})
    assert all(e[0] == 1.0 for e in rest)


def test_permuted_empty_pop_raises():
    sched = PermutedScheduler(HeapScheduler(), seed=1)
    with pytest.raises(IndexError):
        sched.pop()


def test_permuted_len_counts_pooled_entries():
    sched = PermutedScheduler(HeapScheduler(), seed=1)
    for entry in _tie_entries(4):
        sched.push(entry)
    assert len(sched) == 4
    sched.pop()
    assert len(sched) == 3  # 3 pooled, 0 in base


# -- kernel_overrides --------------------------------------------------------


def _permuted(seed):
    return lambda base: PermutedScheduler(base, seed=seed)


def test_kernel_overrides_scopes_perturbation_and_restores():
    with kernel_overrides(_permuted(3)):
        assert isinstance(Environment()._sched, PermutedScheduler)
    assert isinstance(Environment()._sched, HeapScheduler)


def test_kernel_overrides_nesting_restores_outer():
    with kernel_overrides(_permuted(3)):
        with kernel_overrides(None):
            assert isinstance(Environment()._sched, HeapScheduler)
        assert isinstance(Environment()._sched, PermutedScheduler)
    assert isinstance(Environment()._sched, HeapScheduler)


def test_kernel_overrides_perturbed_run_preserves_order_free_results():
    """An order-free workload must land on identical state under any
    permutation seed — the harness's soundness direction."""

    def run(wrap):
        with kernel_overrides(wrap):
            env = Environment()
            done = []

            def worker(k):
                yield env.timeout(1.0)
                yield env.timeout(0.5)
                done.append((env.now, k))

            for k in range(5):
                env.process(worker(k))
            env.run(until=3.0)
        return sorted(done)

    baseline = run(None)
    assert baseline and all(run(_permuted(seed)) == baseline for seed in (1, 2, 3))


# -- abandoned-condition regression -----------------------------------------


def test_interrupted_condition_detaches_from_shared_event():
    """An any_of waiter interrupted mid-wait must remove its _check from
    the still-pending shared event — the callback-leak class the
    tie-race work closed for abandoned (not just decided) conditions."""
    env = Environment()
    shared = env.event()

    def waiter():
        try:
            yield env.any_of([shared, env.timeout(10.0)])
        except Interrupt:
            yield env.timeout(0.1)

    def killer(victim):
        yield env.timeout(1.0)
        victim.interrupt("stop waiting")

    victim = env.process(waiter())
    env.process(killer(victim))
    env.run(until=5.0)
    assert shared.callbacks == []  # no dead _check left behind
