"""Generator-based simulation processes."""

from __future__ import annotations

import typing

from repro.errors import SimulationError
from repro.simul.events import Event, PENDING, URGENT
from repro.simul.resources import Serve

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simul.core import Environment


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it."""

    def __init__(self, cause: object = None) -> None:
        super().__init__(cause)
        self.cause = cause


#: What a new process's first segment resumes on: a processed success
#: whose value, None, is the generator's first ``send``.
_START = Event(typing.cast("Environment", None))
_START._value = None
_START.callbacks = None


class Process(Event):
    """Wraps a generator so it can be driven by the event loop.

    The process itself is an event that fires when the generator returns
    (its value is the generator's return value) or raises. Its first
    segment runs during construction, inside the spawning step.
    """

    __slots__ = ("_generator", "_target", "_defused")

    def __init__(self, env: "Environment", generator: typing.Generator) -> None:
        if not hasattr(generator, "throw"):
            raise SimulationError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self._target: Event | None = None
        self._defused = False
        # Start in place: the first segment, up to the first yield of an
        # unprocessed event, runs inside the spawning step, as a direct
        # call would. The spawner then continues as the active process.
        spawner = env._active_process
        self._resume(_START)
        env._active_process = spawner

    @property
    def is_alive(self) -> bool:
        return self._value is PENDING

    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if not self.is_alive:
            raise SimulationError("cannot interrupt a dead process")
        if self is self.env.active_process or getattr(
            self._generator, "gi_running", False
        ):
            # Running, not parked: its own code is calling, or a process
            # it spawned in this step, whose first segment runs in place.
            raise SimulationError("a process cannot interrupt itself")
        event = Event(self.env)
        event._ok = False
        event._value = Interrupt(cause)
        event.callbacks.append(self._resume)
        # Detach from whatever we were waiting on so the original event
        # no longer resumes us when it fires.
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
            # Neutralize abandoned requests: stores and resources skip
            # already-triggered waiters, so a queued get/put/request left
            # behind by the interrupt can never consume an item or slot.
            target = self._target
            if not target.triggered:
                target.succeed(Interrupt(cause))
                # ... and tell the owning resource/store eagerly, so
                # cancelled waiters don't pile up in its wait queue
                # until the next dispatch happens to walk past them.
                target._abandon()
            if target.__class__ is Serve:
                # A served wait gives up its place or slot as the
                # interrupt lands, where unwinding ``with request()``
                # would release it.
                event.callbacks.insert(0, target._vacate)
        self._target = None
        self.env.schedule(event, URGENT)

    def _resume(self, event: Event) -> None:
        self.env._active_process = self
        while True:
            try:
                # Fields, not the ``ok``/``value`` properties: a resumed
                # event is always triggered, so the PENDING check is moot.
                if event._ok:
                    next_event = self._generator.send(event._value)
                else:
                    exc = typing.cast(BaseException, event._value)
                    next_event = self._generator.throw(exc)
            except StopIteration as stop:
                self.env._active_process = None
                if self.callbacks:
                    self.succeed(stop.value)
                else:
                    # Nobody is waiting: the completion event would fire
                    # no callbacks, so process it in place instead of
                    # scheduling it. A later ``yield proc`` (or
                    # ``run(until=proc)``) sees the value at once.
                    self._value = stop.value
                    self.callbacks = None
                return
            except Interrupt:
                # The generator chose not to handle the interrupt; treat it
                # as a normal termination failure.
                self.env._active_process = None
                if not event._ok:
                    # Death by an externally thrown interrupt means the
                    # interruptor deliberately abandoned this process;
                    # the failure must not escalate out of the loop.
                    self._defused = True
                self.fail(typing.cast(BaseException, event._value))
                return
            except BaseException as error:
                self.env._active_process = None
                self.fail(error)
                return

            if not isinstance(next_event, Event):
                self.env._active_process = None
                stop_error = SimulationError(
                    f"process yielded a non-event: {next_event!r}"
                )
                self._generator.close()
                self.fail(stop_error)
                return

            if next_event.callbacks is not None:
                # Event not yet processed: park until it fires.
                self._target = next_event
                next_event.callbacks.append(self._resume)
                self.env._active_process = None
                return
            # Event already processed: loop and feed its value immediately.
            event = next_event
