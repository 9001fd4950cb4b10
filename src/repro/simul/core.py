"""The simulation environment: clock, event scheduler, run loop."""

from __future__ import annotations

import contextlib
import typing

from repro.errors import SimulationError
from repro.simul.events import AllOf, AnyOf, Event, NORMAL, PENDING, Timeout
from repro.simul.process import Process
from repro.simul.scheduler import HeapScheduler, PermutedScheduler


INFINITY = float("inf")

#: Upper bound on Timeout objects kept in the slab pool.
_TIMEOUT_POOL_CAP = 1024

#: Analysis-mode construction overrides applied to every Environment
#: built while :func:`kernel_overrides` is active.  This is how the
#: concurrency analyzer instruments a run without threading knobs
#: through every layer that creates an Environment: ``perturb_seed``
#: wraps the scheduler in a seeded
#: :class:`~repro.simul.scheduler.PermutedScheduler`, and ``tracker``
#: attaches a tie-race tracker (duck-typed: ``attach``/``on_schedule``/
#: ``on_pop``/``on_state``).  Both default to off; the hot path pays one
#: ``is not None`` check.
_OVERRIDES: dict[str, typing.Any] = {
    "perturb_seed": None,
    "tracker": None,
}


@contextlib.contextmanager
def kernel_overrides(
    perturb_seed: int | None = None,
    tracker: typing.Any = None,
) -> typing.Iterator[None]:
    """Scope analysis-mode kernel instrumentation to a ``with`` block."""
    previous = dict(_OVERRIDES)
    _OVERRIDES["perturb_seed"] = perturb_seed
    _OVERRIDES["tracker"] = tracker
    try:
        yield
    finally:
        _OVERRIDES.update(previous)


class Environment:
    """Owns simulated time and the pending-event scheduler.

    Determinism: events scheduled for the same time fire in (priority,
    insertion order) — the binary-heap key of
    :class:`~repro.simul.scheduler.HeapScheduler`. There is no
    wall-clock anywhere in the kernel.
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        sched: HeapScheduler | PermutedScheduler = HeapScheduler()
        if _OVERRIDES["perturb_seed"] is not None:
            sched = PermutedScheduler(sched, _OVERRIDES["perturb_seed"])
        self._sched = sched
        self._push = sched.push
        self._pop = sched.pop
        self._seq = 0
        self._active_process: Process | None = None
        self._timeout_pool: list[Timeout] = []
        self._tracker = _OVERRIDES["tracker"]
        if self._tracker is not None:
            self._tracker.attach(self)

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def active_process(self) -> Process | None:
        return self._active_process

    # -- scheduling --------------------------------------------------

    def schedule(self, event: Event, priority: int = NORMAL, delay: float = 0.0) -> None:
        """Queue ``event`` to be processed ``delay`` time units from now."""
        seq = self._seq = self._seq + 1
        if self._tracker is not None:
            self._tracker.on_schedule(seq, self._now + delay, priority)
        self._push((self._now + delay, priority, seq, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._sched.peek()

    def step(self) -> None:
        """Process the single next event."""
        try:
            entry = self._pop()
        except IndexError:
            raise SimulationError("no more events") from None
        self._now = entry[0]
        event = entry[3]
        if self._tracker is not None:
            self._tracker.on_pop(entry)
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if not event._ok and not callbacks and not event._defused:
            # A failed event nobody was waiting on (e.g. a crashed process
            # without a watcher): surface the error rather than drop it.
            raise typing.cast(BaseException, event._value)
        if type(event) is Timeout and event._slab:
            # Slab-allocated service timeout: every callback has run, so
            # the object can be recycled by the next service_timeout().
            pool = self._timeout_pool
            if len(pool) < _TIMEOUT_POOL_CAP:
                event._ok = True
                event._value = PENDING
                pool.append(event)

    def run(self, until: float | Event | None = None) -> object:
        """Run until the given time, event, or event-queue exhaustion.

        Returns the event's value when ``until`` is an event.
        """
        sched = self._sched
        step = self.step
        if until is None:
            while sched:
                step()
            return None

        if isinstance(until, Event):
            stop = until
            while not stop.triggered or stop.callbacks is not None:
                if not sched:
                    raise SimulationError(
                        "event queue drained before the awaited event fired"
                    )
                step()
            if not stop.ok:
                raise typing.cast(BaseException, stop._value)
            return stop.value

        deadline = float(until)
        if not deadline >= self._now:  # NaN fails this test too
            raise SimulationError(
                f"cannot run backwards: until={deadline} < now={self._now}"
            )
        if deadline < INFINITY:
            # The hot loop: no ``len(sched)`` per event, because ``peek()``
            # returns inf, past any finite deadline, once the queue drains.
            peek = sched.peek
            while peek() <= deadline:
                step()
        else:
            # ``peek()`` cannot tell a drained queue from an event due at
            # inf, so drain by length, as ``run()`` does.
            self.run()
        self._now = deadline
        return None

    # -- factories ----------------------------------------------------

    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: object = None) -> Timeout:
        return Timeout(self, delay, value)

    def service_timeout(self, delay: float, value: object = None) -> Timeout:
        """A slab-recycled :class:`Timeout` for fire-and-forget waits.

        Contract: the returned event must be yielded (awaited) directly
        and dropped afterwards — never stored across steps, shared
        between processes, or passed to :meth:`any_of`/:meth:`all_of`.
        Once it fires, the object goes back to a pool and a later call
        may hand out the very same instance.  Scheduling order and the
        observed value are identical to :meth:`timeout`; only the
        allocation is elided.
        """
        pool = self._timeout_pool
        if not pool:
            timeout = Timeout(self, delay, value)
            timeout._slab = True
            return timeout
        if not delay >= 0:
            raise SimulationError(f"timeout delay must be >= 0, got {delay}")
        timeout = pool.pop()
        timeout.callbacks = []
        timeout._value = value
        timeout.delay = delay
        self.schedule(timeout, NORMAL, delay)
        return timeout

    def process(self, generator: typing.Generator) -> Process:
        return Process(self, generator)

    def any_of(self, events: typing.Sequence[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: typing.Sequence[Event]) -> AllOf:
        return AllOf(self, events)
