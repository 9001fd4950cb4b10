"""Static concurrency-hazard analysis for simulated time.

The simulation kernel resolves same-``(time, priority)`` events in
insertion order, so runs are reproducible — but reproducible is not the
same as *order-independent*: code whose result depends on which tie-class
sibling fires first encodes an accidental schedule, and any refactor that
perturbs insertion order silently changes results. This module is the
static third of ``repro.analysis.races``:

- a :class:`ProcessGraph` over the module's simulation processes
  (generator functions driven by ``env.process`` / yielded events), and
- four lint rules over that graph for the hazard patterns that have
  actually bitten discrete-event codebases: leaked resource slots,
  conditions attached to shared long-lived events, shared mutable state
  written from concurrent processes, and bare same-priority zero
  timeouts.

The dynamic complement lives in :mod:`repro.analysis.tierace` (tie-class
access tracking) and :mod:`repro.analysis.order` (schedule-perturbation
proof); both report through the same rule names so one pragma grammar
covers all three layers.
"""

from __future__ import annotations

import ast
import dataclasses
import typing

from repro.analysis.core import Finding, ModuleContext, Rule, register


# ---------------------------------------------------------------------------
# process graph
# ---------------------------------------------------------------------------


def _func_name_of_call(node: ast.Call) -> str | None:
    """The trailing attribute/name a call targets (``process`` for
    ``self.env.process`` or ``env.process``)."""
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    if isinstance(node.func, ast.Name):
        return node.func.id
    return None


def _is_generator(node: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    stack: list[ast.AST] = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue  # nested scope: its yields are not ours
        if isinstance(child, (ast.Yield, ast.YieldFrom)):
            return True
        stack.extend(ast.iter_child_nodes(child))
    return False


#: Call names that turn a generator into a scheduled simulation process.
_SPAWN_CALLS = frozenset({"process", "_spawn", "spawn"})

#: Call names that schedule an event without creating a process.
_SCHEDULE_CALLS = frozenset({"timeout", "service_timeout", "schedule"})


@dataclasses.dataclass
class ProcessInfo:
    """One simulation-process function and what it touches."""

    node: ast.FunctionDef | ast.AsyncFunctionDef
    #: Function names this process hands generators to ``env.process``/
    #: ``self._spawn`` for (edges of the spawn graph).
    spawns: list[str]
    #: ``yield from`` targets: same-process continuations, *not*
    #: concurrency edges (a delegated generator runs inline).
    delegates: list[str]
    #: Attribute names written (``self.x = ...`` / ``self.x += ...``).
    writes: dict[str, list[ast.AST]]
    #: Module-level names written via ``global``.
    global_writes: dict[str, list[ast.AST]]


class ProcessGraph:
    """Simulation processes of a module and their spawn/state structure.

    A function is a *process function* when it is a generator that is
    either (a) handed to ``env.process(...)`` / ``self._spawn(...)``
    somewhere in the module, or (b) reached from such a function through
    ``yield from`` delegation. Conservatively, generator methods of
    classes whose instances are never spawned locally (engine adapters
    spawned by a runner in another module) are treated as process
    functions too — concurrency hazards do not respect module borders.
    """

    def __init__(self, module: ModuleContext) -> None:
        self.module = module
        self.processes: dict[str, ProcessInfo] = {}
        spawned_names: set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                name = _func_name_of_call(node)
                if name in _SPAWN_CALLS:
                    for arg in node.args:
                        target = self._generator_target(arg)
                        if target is not None:
                            spawned_names.add(target)
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not _is_generator(node):
                continue
            self.processes[node.name] = self._analyze(node)
        self.spawned = spawned_names

    @staticmethod
    def _generator_target(arg: ast.AST) -> str | None:
        """``env.process(self._loop(...))`` -> ``_loop``."""
        if isinstance(arg, ast.Call):
            return _func_name_of_call(arg)
        if isinstance(arg, ast.Attribute):
            return arg.attr
        if isinstance(arg, ast.Name):
            return arg.id
        return None

    def _analyze(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> ProcessInfo:
        spawns: list[str] = []
        delegates: list[str] = []
        writes: dict[str, list[ast.AST]] = {}
        global_writes: dict[str, list[ast.AST]] = {}
        declared_global: set[str] = set()
        for child in ast.walk(node):
            if isinstance(child, ast.Global):
                declared_global.update(child.names)
        for child in ast.walk(node):
            if isinstance(child, ast.Call):
                name = _func_name_of_call(child)
                if name in _SPAWN_CALLS:
                    for arg in child.args:
                        target = self._generator_target(arg)
                        if target is not None:
                            spawns.append(target)
            elif isinstance(child, ast.YieldFrom) and isinstance(
                child.value, ast.Call
            ):
                target = _func_name_of_call(child.value)
                if target is not None:
                    delegates.append(target)
            targets: list[ast.AST] = []
            if isinstance(child, ast.Assign):
                targets = list(child.targets)
            elif isinstance(child, (ast.AugAssign, ast.AnnAssign)):
                targets = [child.target]
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    writes.setdefault(target.attr, []).append(child)
                elif (
                    isinstance(target, ast.Name)
                    and target.id in declared_global
                ):
                    global_writes.setdefault(target.id, []).append(child)
        return ProcessInfo(node, spawns, delegates, writes, global_writes)

    def concurrent_processes(self) -> list[ProcessInfo]:
        """Process functions that can run as distinct scheduled processes.

        ``yield from`` delegates of exactly one process inline into it and
        are excluded; everything else that is spawned (or is a generator
        method of an externally-driven adapter) counts.
        """
        delegate_counts: dict[str, int] = {}
        for info in self.processes.values():
            for name in info.delegates:
                delegate_counts[name] = delegate_counts.get(name, 0) + 1
        out = []
        for name, info in self.processes.items():
            if name not in self.spawned and delegate_counts.get(name):
                continue  # pure subroutine of its caller(s)
            out.append(info)
        return out


# ---------------------------------------------------------------------------
# race-request-leak
# ---------------------------------------------------------------------------


@register
class RequestLeakRule(Rule):
    """A resource slot acquired outside ``with``/``finally`` can leak.

    A simulation process can be interrupted at any ``yield``; a plain
    ``slot = res.request()`` followed by a release on the happy path only
    returns the slot when nothing interrupts in between. Capacity then
    leaks silently and every later requester queues forever — a deadlock
    that only manifests under fault injection or schedule perturbation.
    """

    name = "race-request-leak"
    description = (
        "resource request() must release on all exit paths: use "
        "`with res.request() as slot:` or try/finally"
    )

    def _protected(self, module: ModuleContext, node: ast.AST) -> bool:
        """Is ``node`` (the request assign) inside a Try with a finally,
        or a With statement item?"""
        current: ast.AST | None = node
        while current is not None:
            if isinstance(current, ast.Try) and current.finalbody:
                return True
            current = module.parent(current)
        return False

    def check(self, module: ModuleContext) -> typing.Iterator[Finding]:
        graph = ProcessGraph(module)
        for info in graph.processes.values():
            function = info.node
            # name -> the assignment node that bound it to a .request()
            requests: dict[str, ast.AST] = {}
            releases: set[str] = set()
            escapes: set[str] = set()
            # names released inside a finally block: the canonical safe
            # idiom is `slot = res.request()` right before the try, with
            # the release in its finalbody — protected even though the
            # assign itself sits outside the Try.
            finally_releases: set[str] = set()
            for child in ast.walk(function):
                if isinstance(child, ast.Try) and child.finalbody:
                    for stmt in child.finalbody:
                        for sub in ast.walk(stmt):
                            if (
                                isinstance(sub, ast.Call)
                                and _func_name_of_call(sub) == "release"
                            ):
                                for arg in sub.args:
                                    if isinstance(arg, ast.Name):
                                        finally_releases.add(arg.id)
            for child in ast.walk(function):
                if isinstance(child, ast.Assign) and isinstance(
                    child.value, ast.Call
                ):
                    called = _func_name_of_call(child.value)
                    if called == "request" and len(child.targets) == 1:
                        target = child.targets[0]
                        if isinstance(target, ast.Name):
                            requests[target.id] = child
                if isinstance(child, ast.withitem) or isinstance(
                    child, ast.With
                ):
                    continue
                if isinstance(child, ast.Call):
                    called = _func_name_of_call(child)
                    if called == "release":
                        for arg in child.args:
                            if isinstance(arg, ast.Name):
                                releases.add(arg.id)
                    else:
                        # Slot handed to another function (e.g. a spawned
                        # cleanup process): ownership moved, not leaked.
                        for arg in child.args:
                            if isinstance(arg, ast.Name) and called not in (
                                "request",
                            ):
                                escapes.add(arg.id)
            # `with res.request() as slot:` binds via withitem, not
            # Assign, so it never lands in `requests` — by construction
            # the context manager releases.
            for name, assign in requests.items():
                if name in finally_releases or self._protected(module, assign):
                    continue
                if name not in releases and name not in escapes:
                    yield self.finding(
                        module,
                        assign,
                        f"process {function.name!r} requests a slot into "
                        f"{name!r} but never releases it; an interrupt at "
                        "any later yield leaks capacity — use `with "
                        "res.request() as ...:` or try/finally",
                    )
                elif name in releases:
                    yield self.finding(
                        module,
                        assign,
                        f"process {function.name!r} releases {name!r} only "
                        "on the happy path; an interrupt between request "
                        "and release leaks the slot — move the release "
                        "into a finally or use the context manager",
                    )


# ---------------------------------------------------------------------------
# race-shared-condition
# ---------------------------------------------------------------------------


_CONDITION_CALLS = frozenset({"any_of", "all_of"})


@register
class SharedConditionRule(Rule):
    """A condition over shared events plants callbacks that outlive you.

    ``env.any_of([...])`` appends a ``_check`` callback to every child
    event. When a child is a *shared, long-lived* event (an attribute of
    some object, not an event created for this wait), that callback
    survives the waiter unless the wait is explicitly cancelled — firing
    later against a dead process, or accumulating unboundedly.
    """

    name = "race-shared-condition"
    description = (
        "any_of/all_of over shared (attribute-held) events leaks "
        "condition callbacks; scope events to the wait or cancel them"
    )

    def check(self, module: ModuleContext) -> typing.Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if _func_name_of_call(node) not in _CONDITION_CALLS:
                continue
            elements: list[ast.AST] = []
            for arg in node.args:
                if isinstance(arg, (ast.List, ast.Tuple)):
                    elements.extend(arg.elts)
                else:
                    elements.append(arg)
            for element in elements:
                if isinstance(element, ast.Attribute):
                    yield self.finding(
                        module,
                        element,
                        f"condition child {ast.unparse(element)!r} is a "
                        "shared long-lived event: the condition's _check "
                        "callback stays attached to it after this wait "
                        "resolves or the waiter dies; create the event "
                        "for this wait, or cancel the losers explicitly",
                    )


# ---------------------------------------------------------------------------
# race-shared-state
# ---------------------------------------------------------------------------


def _write_kind(node: ast.AST) -> tuple[str, object]:
    """Classify a write for order-independence.

    ``("counter", None)`` — ``+=``/``-=``: commutes with itself.
    ``("const", value)`` — assignment of a literal: order-free only when
    every concurrent writer assigns the *same* literal.
    ``("decl", None)`` — bare annotation, not a real write.
    ``("other", None)`` — anything else: order decides the survivor.
    """
    if isinstance(node, ast.AugAssign) and isinstance(
        node.op, (ast.Add, ast.Sub)
    ):
        return ("counter", None)
    if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant):
        return ("const", node.value.value)
    if isinstance(node, ast.AnnAssign):
        if node.value is None:
            return ("decl", None)
        if isinstance(node.value, ast.Constant):
            return ("const", node.value.value)
    return ("other", None)


def _group_commutes(nodes: typing.Sequence[ast.AST]) -> bool:
    """Is this set of concurrent writes order-independent as a whole?"""
    kinds = [_write_kind(node) for node in nodes]
    tags = {tag for tag, __ in kinds if tag != "decl"}
    if not tags:
        return True
    if tags == {"counter"}:
        return True
    if tags == {"const"}:
        values = {repr(value) for tag, value in kinds if tag == "const"}
        return len(values) <= 1
    return False


@register
class SharedStateRule(Rule):
    """Mutable state written from two concurrent processes is a race.

    Two process functions writing the same instance attribute (or module
    global) with no happens-before edge make the surviving value a
    function of tie-class pop order. Commutative updates (``+=`` counters,
    identical-constant flags) are exempt; everything else needs a single
    owner or an explicit ordering.
    """

    name = "race-shared-state"
    description = (
        "no instance/module state non-commutatively written from >= 2 "
        "concurrent process functions"
    )

    def check(self, module: ModuleContext) -> typing.Iterator[Finding]:
        graph = ProcessGraph(module)
        concurrent = graph.concurrent_processes()
        # attr -> [(process, write node), ...]
        by_attr: dict[str, list[tuple[ProcessInfo, ast.AST]]] = {}
        by_global: dict[str, list[tuple[ProcessInfo, ast.AST]]] = {}
        for info in concurrent:
            for attr, nodes in info.writes.items():
                for node in nodes:
                    by_attr.setdefault(attr, []).append((info, node))
            for name, nodes in info.global_writes.items():
                for node in nodes:
                    by_global.setdefault(name, []).append((info, node))
        for table, what in ((by_attr, "attribute"), (by_global, "global")):
            for key, sites in table.items():
                owners = {info.node.name for info, __ in sites}
                if len(owners) < 2:
                    continue
                if _group_commutes([node for __, node in sites]):
                    continue
                for info, node in sites:
                    if _write_kind(node)[0] == "decl":
                        continue
                    others = sorted(owners - {info.node.name})
                    yield self.finding(
                        module,
                        node,
                        f"{what} {key!r} is written by process "
                        f"{info.node.name!r} and also by {', '.join(others)}"
                        "; with no happens-before edge the surviving value "
                        "depends on event-tie pop order — give the state "
                        "one owner or make the update commutative",
                    )


# ---------------------------------------------------------------------------
# race-zero-timeout
# ---------------------------------------------------------------------------


@register
class ZeroTimeoutRule(Rule):
    """``timeout(0)`` schedules into the *current* tie class.

    A zero-delay timeout at NORMAL priority lands in the same
    ``(time, priority)`` class as every other event scheduled this tick:
    whatever ordering the author hoped to express is actually decided by
    insertion sequence. Either the ordering doesn't matter (then the wait
    is pointless) or it does (then it must be expressed with URGENT
    priority or an explicit event chain).
    """

    name = "race-zero-timeout"
    description = (
        "no bare timeout(0)/service_timeout(0): same-priority zero delays "
        "resolve by insertion order, not by intent"
    )

    def check(self, module: ModuleContext) -> typing.Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _func_name_of_call(node)
            if name not in ("timeout", "service_timeout"):
                continue
            if not node.args:
                continue
            first = node.args[0]
            if (
                isinstance(first, ast.Constant)
                and isinstance(first.value, (int, float))
                and not isinstance(first.value, bool)
                and first.value == 0
                and not any(k.arg == "priority" for k in node.keywords)
            ):
                yield self.finding(
                    module,
                    node,
                    f"{name}(0) re-enters the current tie class at the same "
                    "priority: it yields the turn to an insertion-order-"
                    "decided sibling, not to a defined successor; schedule "
                    "with an explicit priority or restructure the handoff",
                )


# ---------------------------------------------------------------------------
# tie-race (dynamic pseudo-rule)
# ---------------------------------------------------------------------------


@register
class TieRaceRule(Rule):
    """Placeholder for the *dynamic* tie tracker's findings.

    The rule itself finds nothing statically; it exists so that
    ``# crayfish: allow[tie-race]: reason`` pragmas parse, validate, and
    appear in the suppression inventory, and so reports from
    :mod:`repro.analysis.tierace` flow through the same machinery as
    static findings.
    """

    name = "tie-race"
    description = (
        "dynamic: conflicting same-tie-class state accesses recorded by "
        "the tie tracker (crayfish verify-order reruns it on a divergence)"
    )
    dynamic = True

    def check(self, module: ModuleContext) -> typing.Iterator[Finding]:
        return iter(())
