"""Shared resources and queues for simulation processes.

:class:`Resource` models a fixed number of identical servers (CPU slots,
serving workers). :class:`Store` is a FIFO buffer with optional capacity,
used for operator mailboxes, request queues, and broker fetch responses.
"""

from __future__ import annotations

import collections
import typing

from repro.errors import SimulationError
from repro.simul.events import Event

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.simul.core import Environment

_INF = float("inf")


def _compact(
    waiters: collections.deque,
) -> collections.deque:
    """Drop triggered (cancelled/abandoned) waiters from a wait queue."""
    return collections.deque(w for w in waiters if not w.triggered)


class Request(Event):
    """Pending acquisition of one resource slot. Usable as a context
    manager so the slot is always released::

        with resource.request() as req:
            yield req
            yield env.timeout(service_time)
    """

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource") -> None:
        super().__init__(resource.env)
        self.resource = resource
        resource._enqueue(self)

    def _abandon(self) -> None:
        self.resource._mark_stale()

    def __enter__(self) -> "Request":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.resource.release(self)


class Resource:
    """``capacity`` identical slots with a FIFO wait queue."""

    def __init__(self, env: "Environment", capacity: int = 1) -> None:
        if capacity < 1:
            raise SimulationError(f"resource capacity must be >= 1, got {capacity}")
        self.env = env
        self.capacity = capacity
        self.users: list[Request] = []
        self.queue: collections.deque[Request] = collections.deque()
        self._stale = 0

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self.users)

    def request(self) -> Request:
        return Request(self)

    def _enqueue(self, request: Request) -> None:
        if len(self.users) < self.capacity:
            # A free slot is granted already processed: the requester
            # has not yielded yet, so no callback can be waiting and the
            # ``yield req`` that follows continues in the same step.
            self.users.append(request)
            request._value = None
            request.callbacks = None
        else:
            self.queue.append(request)

    def _mark_stale(self) -> None:
        # A queued waiter was cancelled. Compact once cancelled entries
        # dominate, so long chaos runs can't grow the queue unboundedly.
        self._stale += 1
        if self._stale * 2 > len(self.queue):
            self.queue = _compact(self.queue)
            self._stale = 0

    def release(self, request: Request) -> None:
        """Return a slot; hands it to the longest-waiting request."""
        try:
            self.users.remove(request)
        except ValueError:
            # Request never got a slot (e.g. released while still queued).
            try:
                self.queue.remove(request)
            except ValueError:
                pass
            return
        while self.queue:
            waiter = self.queue.popleft()
            if waiter.triggered:
                # cancelled/interrupted waiter (possibly cancelled from
                # outside interrupt(), which bypasses _mark_stale)
                if self._stale:
                    self._stale -= 1
                continue
            self.users.append(waiter)
            waiter.succeed()
            break


class StorePut(Event):
    __slots__ = ("store", "item")

    def __init__(self, store: "Store", item: object) -> None:
        super().__init__(store.env)
        self.store = store
        self.item = item

    def _abandon(self) -> None:
        self.store._mark_stale_putter()


class StoreGet(Event):
    __slots__ = ("store",)

    def __init__(self, store: "Store") -> None:
        super().__init__(store.env)
        self.store = store

    def _abandon(self) -> None:
        self.store._mark_stale_getter()


class Store:
    """FIFO item buffer.

    ``capacity`` bounds the number of buffered items; a bounded store is
    how backpressure is modelled — upstream ``put`` calls block until a
    downstream ``get`` frees a slot.
    """

    def __init__(self, env: "Environment", capacity: float = _INF) -> None:
        if capacity != _INF:
            try:
                valid = (
                    not isinstance(capacity, bool)
                    and float(capacity).is_integer()
                    and capacity >= 1
                )
            except (TypeError, ValueError):
                valid = False
            if not valid:
                # Fractional capacities such as 0.5 would pass a plain
                # positivity check yet behave as a zero-capacity store
                # (len(items) < 0.5 never admits an item).
                raise SimulationError(
                    f"store capacity must be an integer >= 1 or inf, got {capacity!r}"
                )
        self.env = env
        self.capacity = capacity
        self.items: collections.deque[object] = collections.deque()
        self._putters: collections.deque[StorePut] = collections.deque()
        self._getters: collections.deque[StoreGet] = collections.deque()
        self._stale_putters = 0
        self._stale_getters = 0

    def __len__(self) -> int:
        return len(self.items)

    @property
    def level(self) -> int:
        """Current number of buffered items."""
        return len(self.items)

    def put(self, item: object) -> StorePut:
        """Insert ``item``; the returned event fires once it is buffered."""
        event = StorePut(self, item)
        if len(self.items) < self.capacity:
            self.items.append(item)
            event.succeed()
            self._dispatch_getters()
        else:
            self._putters.append(event)
        return event

    def try_put(self, item: object) -> bool:
        """Non-blocking insert; returns False when the store is full."""
        if len(self.items) >= self.capacity:
            return False
        self.items.append(item)
        self._dispatch_getters()
        return True

    def get(self) -> StoreGet:
        """Remove the oldest item; the event's value is the item."""
        event = StoreGet(self)
        if self.items:
            event.succeed(self.items.popleft())
            self._dispatch_putters()
        else:
            self._getters.append(event)
        return event

    def try_get(self) -> tuple[bool, object]:
        """Non-blocking remove; returns ``(ok, item_or_None)``."""
        if not self.items:
            return False, None
        item = self.items.popleft()
        self._dispatch_putters()
        return True, item

    def _mark_stale_getter(self) -> None:
        self._stale_getters += 1
        if self._stale_getters * 2 > len(self._getters):
            self._getters = _compact(self._getters)
            self._stale_getters = 0

    def _mark_stale_putter(self) -> None:
        self._stale_putters += 1
        if self._stale_putters * 2 > len(self._putters):
            self._putters = _compact(self._putters)
            self._stale_putters = 0

    def _dispatch_getters(self) -> None:
        while self._getters and self.items:
            getter = self._getters.popleft()
            if getter.triggered:
                if self._stale_getters:
                    self._stale_getters -= 1
                continue
            getter.succeed(self.items.popleft())

    def _dispatch_putters(self) -> None:
        while self._putters and len(self.items) < self.capacity:
            putter = self._putters.popleft()
            if putter.triggered:
                if self._stale_putters:
                    self._stale_putters -= 1
                continue
            self.items.append(putter.item)
            putter.succeed()
            self._dispatch_getters()
