"""Pending-event scheduler for the simulation kernel.

:class:`HeapScheduler` orders scheduled entries by the total key
``(time, priority, seq)`` in one binary heap. ``seq`` is the kernel's
strictly increasing insertion counter, so same-time events fire in
(priority, insertion order) and every run is deterministic.

:class:`PermutedScheduler` wraps it for analysis: it pops a seeded
random member of each ``(time, priority)`` tie class, which is how
``crayfish verify-order`` proves exports do not depend on tie order.
"""

from __future__ import annotations

import functools
import typing
from heapq import heappop, heappush

#: A scheduled entry: ``(time, priority, seq, event)``.  ``seq`` is
#: unique, so tuple comparison never reaches the event object.
Entry = typing.Tuple[float, int, int, object]

INFINITY = float("inf")


class HeapScheduler:
    """The kernel scheduler: one binary heap."""

    __slots__ = ("_heap", "push", "pop")

    def __init__(self) -> None:
        self._heap: list[Entry] = []
        # Bound straight to the C heap functions: no Python frame per
        # push or pop on the kernel's hottest path.
        self.push: typing.Callable[[Entry], None] = functools.partial(
            heappush, self._heap
        )
        self.pop: typing.Callable[[], Entry] = functools.partial(heappop, self._heap)

    def __len__(self) -> int:
        return len(self._heap)

    def peek(self) -> float:
        heap = self._heap
        return heap[0][0] if heap else INFINITY


class PermutedScheduler:
    """Schedule-perturbation wrapper: seeded shuffle inside tie classes.

    Wraps a :class:`HeapScheduler` and pops entries in a *seeded random
    order within each tie class* while preserving every cross-class
    ordering guarantee.  A tie class is the set of queued entries
    sharing one ``(time, priority)`` key — exactly the entries whose
    relative order the kernel resolves by insertion sequence, i.e. the
    only ordering freedom a real concurrent system would have.

    This is the mechanism behind ``crayfish verify-order`` (a DPOR-lite
    schedule fuzzer): if an experiment's exports are byte-identical for
    every permutation seed, no result can depend on same-timestamp pop
    order.  Causality is respected by construction — an entry scheduled
    while a tie class is draining only joins the pool *after* the entry
    that created it was popped, so a perturbed schedule is always one a
    legal scheduler could have produced.

    Determinism: for a fixed seed the perturbed pop sequence is itself
    a pure function of the push sequence.  The wrapper relies only on
    the base's ``push``/``pop``/``peek``/``len`` contract.
    """

    __slots__ = ("_base", "_rng", "_pools", "_pool_time", "_pooled")

    def __init__(self, base: HeapScheduler, seed: int) -> None:
        from repro.simul.rng import RandomStreams

        self._base = base
        self._rng = RandomStreams(seed).stream("tie-permutation")
        #: (time, priority) -> queued entries of the active tie tick.
        self._pools: dict[tuple[float, int], list[Entry]] = {}
        self._pool_time: float = -INFINITY
        self._pooled = 0

    def __len__(self) -> int:
        return len(self._base) + self._pooled

    def push(self, entry: Entry) -> None:
        if self._pooled and entry[0] == self._pool_time:
            # Scheduled while its tick is draining: joins the live pool
            # (it is available for the very next pop, like any entry the
            # base scheduler would surface at this time).
            self._pools.setdefault((entry[0], entry[1]), []).append(entry)
            self._pooled += 1
        else:
            self._base.push(entry)

    def _drain_tick(self) -> None:
        """Pull every base entry of the next timestamp into the pools."""
        base = self._base
        if not len(base):
            raise IndexError("pop from an empty scheduler")
        time = base.peek()
        pools = self._pools
        while len(base) and base.peek() == time:
            entry = base.pop()
            pools.setdefault((entry[0], entry[1]), []).append(entry)
            self._pooled += 1
        self._pool_time = time

    def pop(self) -> Entry:
        if not self._pooled:
            self._pools.clear()
            self._drain_tick()
        key = min(k for k, pool in self._pools.items() if pool)
        pool = self._pools[key]
        index = int(self._rng.integers(len(pool))) if len(pool) > 1 else 0
        entry = pool.pop(index)
        self._pooled -= 1
        return entry

    def peek(self) -> float:
        if self._pooled:
            return self._pool_time
        return self._base.peek()
