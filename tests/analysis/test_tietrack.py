"""Dynamic tie tracker: planted-race detection, causality, pragmas,
scoped installation, and silence on the smoke workloads."""

import pathlib

import pytest

from repro.analysis.tierace import TIE_RACE_RULE, track_ties
from repro.config import SPS_NAMES, ExperimentConfig
from repro.core.runner import ExperimentRunner
from repro.simul.core import Environment
from repro.simul.resources import Resource, Store
from repro.simul.scheduler import HeapScheduler

from tests.analysis.fixtures import planted_race

FIXTURE = str(
    pathlib.Path(planted_race.__file__).resolve()
)


def _track(scenario):
    with track_ties() as tracker:
        scenario()
    return tracker


# -- planted race ------------------------------------------------------------


def test_planted_race_detected():
    tracker = _track(planted_race.run_tie_race)
    kept, suppressed = tracker.apply_pragmas()
    assert suppressed == []
    assert len(kept) == 1
    conflict = kept[0]
    assert conflict.time == 1.0
    assert "w" in (conflict.mode_a, conflict.mode_b)
    assert conflict.state.startswith("store#")
    assert conflict.site_a.path == FIXTURE
    assert conflict.site_b.path == FIXTURE
    assert {conflict.site_a.function, conflict.site_b.function} == {"_racer"}


def test_conflict_reports_both_stack_contexts():
    tracker = _track(planted_race.run_tie_race)
    kept, __ = tracker.apply_pragmas()
    text = kept[0].describe()
    assert "pop order decides" in text
    assert f"{FIXTURE}:{kept[0].site_a.line}" in text
    assert f"{FIXTURE}:{kept[0].site_b.line}" in text


def test_conflict_findings_flow_through_rule_machinery():
    tracker = _track(planted_race.run_tie_race)
    kept, __ = tracker.apply_pragmas()
    findings = kept[0].findings()
    assert all(f.rule == TIE_RACE_RULE for f in findings)
    assert {f.line for f in findings} == {
        kept[0].site_a.line, kept[0].site_b.line
    }


# -- causality pruning -------------------------------------------------------


def test_causal_chain_is_silent():
    tracker = _track(planted_race.run_clean)
    kept, __ = tracker.apply_pragmas()
    assert kept == []
    assert tracker.accesses_recorded > 0  # it did watch, it just found order


def test_same_tick_spawn_edge_prunes_conflict():
    """A process spawned mid-tick inherits its creator's root: writes by
    parent and child in the same tie class are ordered, not racing."""

    def scenario():
        env = Environment()
        store = Store(env)

        def child(k):
            store.try_put(k)
            yield env.timeout(0.1)

        def parent():
            yield env.timeout(1.0)
            store.try_put("p")
            env.process(child("c"))  # same tick, caused by parent

        env.process(parent())
        env.run(until=3.0)

    tracker = _track(scenario)
    kept, __ = tracker.apply_pragmas()
    assert kept == []
    assert tracker.accesses_recorded >= 2


def test_cross_root_same_tick_writes_conflict():
    def scenario():
        env = Environment()
        store = Store(env)

        def writer(k):
            yield env.timeout(1.0)
            store.try_put(k)

        env.process(writer("a"))
        env.process(writer("b"))
        env.run(until=2.0)

    tracker = _track(scenario)
    kept, __ = tracker.apply_pragmas()
    assert len(kept) == 1


def test_different_ticks_never_conflict():
    def scenario():
        env = Environment()
        store = Store(env)

        def writer(k, delay):
            yield env.timeout(delay)
            store.try_put(k)

        env.process(writer("a", 1.0))
        env.process(writer("b", 2.0))
        env.run(until=3.0)

    tracker = _track(scenario)
    kept, __ = tracker.apply_pragmas()
    assert kept == []


def test_conflicts_deduplicated_across_ticks():
    """The same source-site pair racing every tick reports once."""

    def scenario():
        env = Environment()
        store = Store(env, capacity=1)

        def racer(k):
            for __ in range(5):
                yield env.timeout(1.0)
                store.try_put(k)
                store.try_get()

        env.process(racer("a"))
        env.process(racer("b"))
        env.run(until=10.0)

    tracker = _track(scenario)
    kept, __ = tracker.apply_pragmas()
    sites = {
        (c.site_a.path, c.site_a.line, c.site_b.path, c.site_b.line)
        for c in kept
    }
    assert len(sites) == len(kept)  # no duplicate site pairs survive


# -- pragma suppression ------------------------------------------------------


def test_pragma_at_access_site_suppresses(tmp_path):
    module = tmp_path / "racy_module.py"
    module.write_text(
        "def writer(env, store, k):\n"
        "    yield env.timeout(1.0)\n"
        "    store.try_put(k)  # crayfish: allow[tie-race]: last write is load-shedding, both orders valid\n"
    )
    namespace = {}
    exec(compile(module.read_text(), str(module), "exec"), namespace)

    def scenario():
        env = Environment()
        store = Store(env, capacity=1)
        env.process(namespace["writer"](env, store, "a"))
        env.process(namespace["writer"](env, store, "b"))
        env.run(until=2.0)

    tracker = _track(scenario)
    kept, suppressed = tracker.apply_pragmas()
    assert kept == []
    assert len(suppressed) == 1
    assert suppressed[0].site_a.path == str(module)


def test_tracker_only_active_inside_override_scope():
    with track_ties() as tracker:
        pass  # no run inside the scope
    planted_race.run_tie_race()  # outside: must not be observed
    kept, __ = tracker.apply_pragmas()
    assert kept == []
    assert tracker.accesses_recorded == 0


def test_track_ties_sees_every_hook_and_restores_on_error():
    calls = []

    class Probe:
        def on_schedule(self, entry):
            calls.append("schedule")

        def on_pop(self, entry):
            calls.append("pop")

        def on_state(self, obj, kind, mode):
            calls.append(f"state:{kind}:{mode}")

    watched = [
        (Resource, "request"),
        (Resource, "release"),
        (Store, "put"),
        (Store, "get"),
        (Store, "try_put"),
        (Store, "try_get"),
    ]
    originals = [cls.__dict__[name] for cls, name in watched]
    with pytest.raises(RuntimeError, match="boom"):
        with track_ties(Probe()):
            env = Environment()
            store = Store(env, capacity=1)

            def proc():
                yield env.timeout(1.0)
                store.try_put("x")
                store.try_put("y")  # full: a read

            env.process(proc())
            env.run(until=2.0)
            raise RuntimeError("boom")
    assert "schedule" in calls
    assert "pop" in calls
    assert calls.count("state:store:w") == 1
    assert calls.count("state:store:r") == 1
    assert [cls.__dict__[name] for cls, name in watched] == originals
    assert type(Environment()._sched) is HeapScheduler


# -- smoke workloads ---------------------------------------------------------


@pytest.mark.parametrize("sps", SPS_NAMES)
def test_tracker_silent_on_smoke_workloads(sps):
    """Every engine's low-load smoke run has no unsuppressed tie-class
    conflict, and the tracker did watch it."""
    config = ExperimentConfig(sps=sps, serving="onnx", model="ffnn", ir=60.0, duration=1.5)
    with track_ties() as tracker:
        ExperimentRunner(config).run()
    kept, __ = tracker.apply_pragmas()
    assert kept == [], [c.describe() for c in kept]
    assert tracker.accesses_recorded > 0
