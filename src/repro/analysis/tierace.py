"""Dynamic tie-race tracking: sanitizer-mode scheduler instrumentation.

The kernel resolves events sharing ``(time, priority)`` — one *tie
class* — by insertion sequence. That makes runs reproducible, but any
two tie-class siblings that touch the same shared state with at least
one write encode a hidden ordering dependency: refactors, new
instrumentation, or a different scheduler backend can flip which fires
first and silently change results. :class:`TieTracker` records every
state access with its scheduling context and reports such pairs as
CONFIRMED hazards, with the source site of both accesses.

Causality pruning is what keeps the signal usable: an event scheduled
*while processing* another event in the same tick is caused by it (the
kernel can never pop it first), so accesses along one scheduling chain
are ordered and never conflict. Only accesses from two chains with no
common same-tick ancestor edge compete.

Only this module knows the tracker's protocol; :func:`track_ties`
installs it for a ``with`` block (``crayfish verify-order`` does so when
a permutation diverges)::

    with track_ties() as tracker:
        ExperimentRunner(config).run()
    conflicts, suppressed = tracker.apply_pragmas()
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import pathlib
import sys
import typing

from repro.analysis.core import Finding, ModuleContext, Rule, register
from repro.analysis.pragmas import match_pragma, parse_pragmas
from repro.simul.core import kernel_overrides
from repro.simul.resources import Resource, Store

#: Rule name tie conflicts report under (registered as the dynamic
#: pseudo-rule :class:`TieRaceRule` below so pragmas validate).
TIE_RACE_RULE = "tie-race"

#: Frames inside these path fragments are kernel plumbing, not the
#: simulation code responsible for the access.
_KERNEL_FRAGMENTS = ("repro/simul/", "repro\\simul\\", "repro/analysis/", "repro\\analysis\\")


@dataclasses.dataclass(frozen=True)
class AccessSite:
    """Where simulation code touched shared state."""

    path: str
    line: int
    function: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line} ({self.function})"


@dataclasses.dataclass(frozen=True)
class TieConflict:
    """Two same-tie-class accesses to one state key, >= 1 write.

    CONFIRMED by construction: both accesses were observed in the same
    ``(time, priority)`` class with no same-tick scheduling edge between
    their entries, so swapping their pop order is a legal schedule.
    """

    time: float
    priority: int
    state: str
    mode_a: str
    mode_b: str
    site_a: AccessSite
    site_b: AccessSite

    def describe(self) -> str:
        return (
            f"tie class (t={self.time:.9g}, prio={self.priority}) on "
            f"{self.state}: {self.mode_a.upper()} at {self.site_a} vs "
            f"{self.mode_b.upper()} at {self.site_b} — pop order decides"
        )

    def findings(self) -> list[Finding]:
        """One finding per involved source site (both stack contexts)."""
        message = "CONFIRMED tie-class conflict: " + self.describe()
        out = [
            Finding(TIE_RACE_RULE, self.site_a.path, self.site_a.line, 0, message)
        ]
        if (self.site_b.path, self.site_b.line) != (
            self.site_a.path,
            self.site_a.line,
        ):
            out.append(
                Finding(
                    TIE_RACE_RULE, self.site_b.path, self.site_b.line, 0, message
                )
            )
        return out


@dataclasses.dataclass
class _Access:
    seq: int
    root: int
    state: str
    mode: str
    site: AccessSite


class TieTracker:
    """Records tie-class state-access conflicts from the ``on_schedule``/
    ``on_pop``/``on_state`` calls that :func:`track_ties` makes."""

    def __init__(self) -> None:
        #: Finalized, deduplicated conflicts across the whole run.
        self.conflicts: list[TieConflict] = []
        self._seen: set[tuple] = set()
        #: Stable per-object state keys; the keepalive list prevents the
        #: interpreter from recycling an id for a new object mid-run.
        self._state_keys: dict[int, str] = {}
        self._keepalive: list[object] = []
        self._counts: dict[str, int] = {}
        # per-tick scheduling tree and access log
        self._tick_time: float | None = None
        self._parents: dict[int, int] = {}
        self._accesses: dict[int, list[_Access]] = {}
        # entry currently being processed
        self._current_seq: int | None = None
        self._current_time: float = 0.0
        self._current_priority: int = 0
        self.accesses_recorded = 0

    # -- protocol ------------------------------------------------------

    def on_schedule(self, entry: tuple) -> None:
        if self._current_seq is not None and entry[0] == self._current_time:
            # Same-tick causality edge: the entry cannot pop before the
            # entry that scheduled it has finished processing.
            self._parents[entry[2]] = self._current_seq

    def on_pop(self, entry: tuple) -> None:
        time, priority, seq = entry[0], entry[1], entry[2]
        if time != self._tick_time:
            self._finalize_tick()
            self._tick_time = time
        self._current_seq = seq
        self._current_time = time
        self._current_priority = priority

    def on_state(self, obj: object, kind: str, mode: str) -> None:
        if self._current_seq is None:
            return  # setup-time access: no tie context yet
        self.accesses_recorded += 1
        root = self._root(self._current_seq)
        self._accesses.setdefault(self._current_priority, []).append(
            _Access(
                seq=self._current_seq,
                root=root,
                state=self._state_key(obj, kind),
                mode=mode,
                site=self._site(),
            )
        )

    # -- internals -----------------------------------------------------

    def _state_key(self, obj: object, kind: str) -> str:
        # id() is within-run identity only — never ordered, compared
        # across runs, or exported; the keepalive pin makes it unique.
        key = id(obj)  # crayfish: allow[id-ordering]: within-run identity key, pinned against reuse, never ordered or exported
        name = self._state_keys.get(key)
        if name is None:
            index = self._counts.get(kind, 0)
            self._counts[kind] = index + 1
            name = f"{kind}#{index}"
            self._state_keys[key] = name
            self._keepalive.append(obj)
        return name

    def _root(self, seq: int) -> int:
        """The oldest same-tick ancestor of ``seq``.

        Two entries conflict only when their ancestor chains are
        disjoint; chains within one tick form a forest, so comparing
        roots is equivalent and O(depth) once per access.
        """
        parents = self._parents
        while seq in parents:
            seq = parents[seq]
        return seq

    @staticmethod
    def _site() -> AccessSite:
        frame = sys._getframe(2)
        while frame is not None:
            filename = frame.f_code.co_filename
            if not any(frag in filename for frag in _KERNEL_FRAGMENTS):
                return AccessSite(
                    path=filename,
                    line=frame.f_lineno,
                    function=frame.f_code.co_name,
                )
            frame = frame.f_back
        return AccessSite(path="<unknown>", line=0, function="<unknown>")

    def _finalize_tick(self) -> None:
        accesses = self._accesses
        self._accesses = {}
        self._parents = {}
        self._current_seq = None
        for priority, log in accesses.items():
            if len(log) < 2:
                continue
            by_state: dict[str, list[_Access]] = {}
            for access in log:
                by_state.setdefault(access.state, []).append(access)
            for state, group in by_state.items():
                self._scan_group(priority, state, group)

    def _scan_group(
        self, priority: int, state: str, group: list[_Access]
    ) -> None:
        # Split by scheduling root: same-root accesses are ordered by
        # construction; cross-root pairs with >= 1 write conflict.
        by_root: dict[int, list[_Access]] = {}
        for access in group:
            by_root.setdefault(access.root, []).append(access)
        if len(by_root) < 2:
            return
        roots = sorted(by_root)
        for i, root_a in enumerate(roots):
            for root_b in roots[i + 1 :]:
                for a in by_root[root_a]:
                    for b in by_root[root_b]:
                        if a.mode != "w" and b.mode != "w":
                            continue
                        self._record(priority, state, a, b)

    def _record(self, priority: int, state: str, a: _Access, b: _Access) -> None:
        first, second = sorted(
            (a, b), key=lambda acc: (acc.site.path, acc.site.line, acc.mode)
        )
        dedupe = (
            state.split("#", 1)[0],
            first.site.path,
            first.site.line,
            second.site.path,
            second.site.line,
        )
        if dedupe in self._seen:
            return
        self._seen.add(dedupe)
        assert self._tick_time is not None
        self.conflicts.append(
            TieConflict(
                time=self._tick_time,
                priority=priority,
                state=state,
                mode_a=first.mode,
                mode_b=second.mode,
                site_a=first.site,
                site_b=second.site,
            )
        )

    # -- reporting -----------------------------------------------------

    def finish(self) -> None:
        """Flush the final tick (call once the run has drained)."""
        self._finalize_tick()
        self._tick_time = None

    def apply_pragmas(
        self,
    ) -> tuple[list[TieConflict], list[TieConflict]]:
        """Split conflicts into (kept, suppressed) using in-source
        ``# crayfish: allow[tie-race]: reason`` pragmas at either access
        site."""
        self.finish()
        pragma_cache: dict[str, typing.Any] = {}

        def pragmas_for(path: str):
            if path not in pragma_cache:
                try:
                    source = pathlib.Path(path).read_text()
                except OSError:
                    pragma_cache[path] = ()
                else:
                    pragma_cache[path] = parse_pragmas(source)
            return pragma_cache[path]

        kept: list[TieConflict] = []
        suppressed: list[TieConflict] = []
        for conflict in self.conflicts:
            matched = any(
                match_pragma(pragmas_for(site.path), TIE_RACE_RULE, site.line)
                for site in (conflict.site_a, conflict.site_b)
            )
            (suppressed if matched else kept).append(conflict)
        return kept, suppressed


class _TrackedScheduler:
    """Scheduler wrapper that shows the tracker every push and pop."""

    __slots__ = ("_base", "_tracker")

    def __init__(self, base: typing.Any, tracker: typing.Any) -> None:
        self._base = base
        self._tracker = tracker

    def __len__(self) -> int:
        return len(self._base)

    def push(self, entry: tuple) -> None:
        self._tracker.on_schedule(entry)
        self._base.push(entry)

    def pop(self) -> tuple:
        entry = self._base.pop()
        self._tracker.on_pop(entry)
        return entry

    def peek(self) -> float:
        return self._base.peek()


#: The watched state entry points: (class, method, state kind, access
#: mode given the receiver). A non-blocking put into a full store, or get
#: from an empty one, only reads it.
_STATE_ACCESSES: tuple[tuple[type, str, str, typing.Callable[[typing.Any], str]], ...] = (
    (Resource, "request", "resource", lambda res: "w"),
    (Resource, "serve", "resource", lambda res: "w"),
    (Resource, "release", "resource", lambda res: "w"),
    (Store, "put", "store", lambda store: "w"),
    (Store, "get", "store", lambda store: "w"),
    (Store, "try_put", "store", lambda store: "w" if len(store.items) < store.capacity else "r"),
    (Store, "try_get", "store", lambda store: "w" if store.items else "r"),
)


def _watched(
    method: typing.Callable, tracker: typing.Any, kind: str, mode: typing.Callable
) -> typing.Callable:
    @functools.wraps(method)
    def watched(self: typing.Any, *args: typing.Any, **kwargs: typing.Any) -> typing.Any:
        tracker.on_state(self, kind, mode(self))
        return method(self, *args, **kwargs)

    return watched


@contextlib.contextmanager
def track_ties(tracker: typing.Any = None) -> typing.Iterator[typing.Any]:
    """Track every Environment built inside the block and yield the
    tracker (a fresh :class:`TieTracker` unless one is given).

    Wraps each new Environment's scheduler (the kernel's one seam) and,
    like the sanitizer, patches the ``Resource``/``Store`` entry points
    process-wide for the block, restoring them even when it raises.
    """
    tracker = TieTracker() if tracker is None else tracker
    originals = [(cls, name, getattr(cls, name)) for cls, name, __, __ in _STATE_ACCESSES]
    try:
        for cls, name, kind, mode in _STATE_ACCESSES:
            setattr(cls, name, _watched(getattr(cls, name), tracker, kind, mode))
        with kernel_overrides(lambda base: _TrackedScheduler(base, tracker)):
            yield tracker
    finally:
        for cls, name, method in originals:
            setattr(cls, name, method)


@register
class TieRaceRule(Rule):
    """Placeholder for the tie tracker's findings in the lint catalogue.

    The rule itself finds nothing statically; it exists so that
    ``# crayfish: allow[tie-race]: reason`` pragmas parse, validate, and
    appear in the suppression inventory, and so :class:`TieConflict`
    findings flow through the same machinery as static ones.
    """

    name = TIE_RACE_RULE
    description = (
        "dynamic: conflicting same-tie-class state accesses recorded by "
        "the tie tracker (crayfish verify-order reruns it on a divergence)"
    )
    dynamic = True

    def check(self, module: ModuleContext) -> typing.Iterator[Finding]:
        return iter(())
