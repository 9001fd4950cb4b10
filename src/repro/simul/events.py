"""Event primitives for the simulation kernel."""

from __future__ import annotations

import typing

from repro.errors import SimulationError

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simul.core import Environment

#: Sentinel for "event has not been given a value yet".
PENDING = object()

#: Scheduling priorities. Lower fires first at equal times.
URGENT = 0
NORMAL = 1


class Event:
    """A condition that may fire once at some simulated time.

    Callbacks receive the event itself. After the event has been
    processed, :attr:`value` holds the payload passed to :meth:`succeed`
    (or the exception passed to :meth:`fail`).
    """

    __slots__ = ("env", "callbacks", "_value", "_ok")

    #: A defused failure does not escalate out of the event loop when it
    #: is processed without a watcher (set for deliberately interrupted
    #: processes). Class-level default; :class:`~repro.simul.process.
    #: Process` carries a writable slot.
    _defused = False

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: list | None = []
        self._value: object = PENDING
        self._ok = True

    @property
    def triggered(self) -> bool:
        """True once the event has a value (it may not be processed yet)."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> object:
        if self._value is PENDING:
            raise SimulationError(f"{self!r} has not been triggered")
        return self._value

    def succeed(self, value: object = None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.env.schedule(self, priority)
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Trigger the event with an exception to be thrown into waiters."""
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._value is not PENDING:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = False
        self._value = exception
        self.env.schedule(self, priority)
        return self

    def _abandon(self) -> None:
        """Hook: the waiter was cancelled while still queued.

        Resource/store waiter events override this to drop themselves
        from their wait queue eagerly instead of lingering until a
        dispatch walks over them.
        """

    def __repr__(self) -> str:
        # Address-free on purpose: reprs reach logs and trace diffs, and
        # id()-derived text differs between otherwise identical runs.
        if self._value is PENDING:
            state = "pending"
        elif self.callbacks is None:
            state = "processed ok" if self._ok else "processed failed"
        else:
            state = "triggered ok" if self._ok else "triggered failed"
        return f"<{type(self).__name__} {state}>"


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    __slots__ = ("delay", "_slab")

    def __init__(self, env: "Environment", delay: float, value: object = None) -> None:
        if not delay >= 0:
            # Negative or NaN: a NaN key would silently break heap order.
            raise SimulationError(f"timeout delay must be >= 0, got {delay}")
        super().__init__(env)
        self.delay = delay
        self._slab = False
        self._ok = True
        self._value = value
        env.schedule(self, NORMAL, delay)

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay}>"


class _Condition(Event):
    """Base for events that fire when some subset of child events fired."""

    __slots__ = ("_events", "_remaining")

    def __init__(self, env: "Environment", events: typing.Sequence[Event]) -> None:
        super().__init__(env)
        self._events = list(events)
        self._remaining = len(self._events)
        if not self._events:
            self.succeed({})
            return
        for event in self._events:
            if event.env is not env:
                raise SimulationError("events from different environments")
        for event in self._events:
            if self.triggered:
                # An earlier (already-processed) child decided the
                # condition; don't attach to the remaining children.
                break
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _check(self, event: Event) -> None:
        raise NotImplementedError

    def _detach(self) -> None:
        """Remove ``_check`` from children that have not fired yet.

        Without this, every decided condition (e.g. a timeout-vs-result
        race) would leave a dead callback on its still-pending children
        for the rest of the run.
        """
        check = self._check
        for event in self._events:
            callbacks = event.callbacks
            if callbacks is not None:
                try:
                    callbacks.remove(check)
                except ValueError:
                    pass

    def _abandon(self) -> None:
        # The waiter was interrupted while the condition was still
        # undecided: drop our _check from every still-pending child.
        # Without this, a condition over a shared long-lived event (e.g.
        # a timeout-vs-result race against a fleet-wide signal) leaves a
        # dead callback on that event for the rest of the run — the
        # condition-callback leak class PR 8 fixed for *decided*
        # conditions, closed here for *abandoned* ones.
        self._detach()

    def _collect(self) -> dict:
        # Only events already *processed* count as "happened"; a Timeout
        # carries its value from creation, so `triggered` would wrongly
        # include the future.
        return {e: e.value for e in self._events if e.processed and e.ok}


class AnyOf(_Condition):
    """Fires when the first of the given events fires."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(typing.cast(BaseException, event._value))
        else:
            self.succeed(self._collect())
        self._detach()


class AllOf(_Condition):
    """Fires once all of the given events have fired."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(typing.cast(BaseException, event._value))
            self._detach()
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed(self._collect())
