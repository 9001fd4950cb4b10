"""The simulation environment: clock, event scheduler, run loop."""

from __future__ import annotations

import contextlib
import typing

from repro.errors import SimulationError
from repro.simul.events import AllOf, AnyOf, Event, NORMAL, PENDING, Timeout
from repro.simul.process import Process
from repro.simul.resources import Serve
from repro.simul.scheduler import HeapScheduler


INFINITY = float("inf")

#: Upper bound on Timeout objects kept in the slab pool.
_TIMEOUT_POOL_CAP = 1024

#: Wraps the scheduler of every Environment built while
#: :func:`kernel_overrides` is active; None is the bare heap. The
#: kernel's one analysis seam: ``verify-order`` wraps a seeded
#: :class:`~repro.simul.scheduler.PermutedScheduler` around it.
_wrap_scheduler: typing.Callable[[HeapScheduler], typing.Any] | None = None


@contextlib.contextmanager
def kernel_overrides(
    wrap_scheduler: typing.Callable[[HeapScheduler], typing.Any] | None,
) -> typing.Iterator[None]:
    """Build every Environment inside the block on
    ``wrap_scheduler(HeapScheduler())`` (None: the bare heap); the wrapper
    keeps the heap's ``push``/``pop``/``peek``/``len`` contract. Inner
    blocks replace it."""
    global _wrap_scheduler
    previous = _wrap_scheduler
    _wrap_scheduler = wrap_scheduler
    try:
        yield
    finally:
        _wrap_scheduler = previous


class Environment:
    """Owns simulated time and the pending-event scheduler.

    Determinism: events scheduled for the same time fire in (priority,
    insertion order) — the binary-heap key of
    :class:`~repro.simul.scheduler.HeapScheduler`. There is no
    wall-clock anywhere in the kernel.
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        sched: typing.Any = HeapScheduler()
        if _wrap_scheduler is not None:
            sched = _wrap_scheduler(sched)
        self._sched = sched
        self._push = sched.push
        self._pop = sched.pop
        self._seq = 0
        self._active_process: Process | None = None
        self._timeout_pool: list[Timeout] = []

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
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if not event._ok and not callbacks and not event._defused:
            # A failed event nobody was waiting on (e.g. a crashed process
            # without a watcher): surface the error rather than drop it.
            raise typing.cast(BaseException, event._value)
        cls = type(event)
        if cls is Timeout:
            if event._slab:
                # Slab-allocated service timeout: every callback has run,
                # so the object can be recycled by the next
                # service_timeout().
                pool = self._timeout_pool
                if len(pool) < _TIMEOUT_POOL_CAP:
                    event._ok = True
                    event._value = PENDING
                    pool.append(event)
        elif cls is Serve:
            # A holder's stay ends after its callbacks ran: as when its
            # process left ``with request()``, what it scheduled in this
            # step precedes the next holder's completion.
            event.resource._finish(event)

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

    def service_timeout(
        self, delay: float, value: object = None, then: float | None = None
    ) -> Timeout:
        """A slab-recycled :class:`Timeout` for fire-and-forget waits.

        Contract: the returned event must be yielded (awaited) directly
        and dropped afterwards — never stored across steps, shared
        between processes, or passed to :meth:`any_of`/:meth:`all_of`.
        Once it fires, the object goes back to a pool and a later call
        may hand out the very same instance.  Scheduling order and the
        observed value are identical to :meth:`timeout`; only the
        allocation is elided.

        ``then`` chains a second wait onto the first: the event fires
        once, at ``(now + delay) + then``, the float time that waiting
        ``delay`` and then ``then`` would reach. Chain only waits of one
        process with nothing observed between them.
        """
        if not delay >= 0:
            # Negative or NaN: a NaN key would silently break heap order.
            raise SimulationError(f"timeout delay must be >= 0, got {delay}")
        at = self._now + delay
        if then is not None:
            if not then >= 0:
                raise SimulationError(f"timeout delay must be >= 0, got {then}")
            at += then
            delay += then  # for the repr only
        pool = self._timeout_pool
        if pool:
            timeout = pool.pop()
            timeout.callbacks = []
            timeout._value = value
        else:
            # A new slab member: Timeout.__init__ would schedule it at
            # now + delay, so build it bare.
            timeout = Timeout.__new__(Timeout)
            Event.__init__(timeout, self)
            timeout._value = value
            timeout._slab = True
        timeout.delay = delay
        seq = self._seq = self._seq + 1
        self._push((at, NORMAL, seq, timeout))
        return timeout

    def process(self, generator: typing.Generator) -> Process:
        return Process(self, generator)

    def any_of(self, events: typing.Sequence[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: typing.Sequence[Event]) -> AllOf:
        return AllOf(self, events)
