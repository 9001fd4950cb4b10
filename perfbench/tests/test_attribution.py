"""Self-tests of the benchmark's per-layer attribution.

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import contextlib
import inspect
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from run import on_quietest_cpu, require_source  # noqa: E402

require_source()

from repro.config import ExperimentConfig  # noqa: E402
from repro.core.runner import ExperimentRunner  # noqa: E402
from repro.netsim.protocols import RpcChannel  # noqa: E402

from attribution import (  # noqa: E402
    EXTRA_BUCKETS,
    LAYERS,
    attribute,
    bucket_of,
    profile_rep,
    REPRO_DIR,
)
from workloads import Workload  # noqa: E402

#: Busy-loop iterations per injected call (about half a millisecond).
SPIN = 20_000
#: Profiled runs per side; each layer's best run is compared.
RUNS = 3


def _rpc_workload() -> Workload:
    config = ExperimentConfig(
        sps="flink", serving="tf_serving", model="ffnn", mp=4, ir=1500.0, duration=0.6
    )
    return Workload(
        "rpc-probe",
        "small external-serving run that calls RpcChannel.round_trip_costs",
        (lambda seed: [ExperimentRunner(config).run(seed=seed)],),
    )


@contextlib.contextmanager
def busy_wait_in(cls: type, name: str, spin: int):
    """Make ``cls.name`` spin after each call; yields the injected seconds.

    The wrapper's code claims the method's source file, so the profiler
    books the spin as the method's own self time.
    """
    original = cls.__dict__[name]
    injected = [0.0]

    def spinning(*args, **kwargs):
        result = original(*args, **kwargs)
        start = time.perf_counter()
        for _ in range(spin):
            pass
        injected[0] += time.perf_counter() - start
        return result

    spinning.__code__ = spinning.__code__.replace(co_filename=inspect.getsourcefile(cls))
    setattr(cls, name, spinning)
    try:
        yield injected
    finally:
        setattr(cls, name, original)


def test_buckets_follow_the_defining_package():
    assert bucket_of(str(REPRO_DIR / "simul" / "core.py")) == "simul"
    assert bucket_of(str(REPRO_DIR / "sps" / "flink" / "engine.py")) == "sps.flink"
    assert bucket_of(str(REPRO_DIR / "sps" / "api.py")) == "sps"
    assert bucket_of(str(REPRO_DIR / "config.py")) == "other"
    assert bucket_of(str(REPRO_DIR / "faults" / "plan.py")) == "other"
    assert bucket_of("~") is None


def test_foreign_time_is_charged_through_caller_edges():
    simul = (str(REPRO_DIR / "simul" / "core.py"), 1, "step")
    broker = (str(REPRO_DIR / "broker" / "partition.py"), 1, "append")
    helper = ("/usr/lib/python3/heapq.py", 1, "heappush")
    builtin = ("~", 0, "<method 'append' of 'list' objects>")
    root = ("bench.py", 1, "main")
    stats = {
        root: (1, 1, 0.5, 5.0, {}),
        simul: (1, 1, 1.0, 3.0, {root: (1, 1, 1.0, 3.0)}),
        broker: (1, 1, 1.0, 1.5, {root: (1, 1, 1.0, 1.5)}),
        # heappush: 1.2 s inclusive under simul, 0.3 s under broker (80/20).
        helper: (2, 2, 0.4, 1.5, {simul: (1, 1, 0.3, 1.2), broker: (1, 1, 0.1, 0.3)}),
        builtin: (2, 2, 1.1, 1.1, {helper: (2, 2, 1.1, 1.1)}),
    }
    buckets = attribute(stats)
    assert buckets["harness"] == pytest.approx(0.5)
    assert buckets["simul"] == pytest.approx(1.0 + 1.5 * 0.8)
    assert buckets["broker"] == pytest.approx(1.0 + 1.5 * 0.2)
    assert sum(buckets.values()) == pytest.approx(sum(s[2] for s in stats.values()))


def _profile(workload: Workload):
    with on_quietest_cpu():
        return profile_rep(workload, 0)[1]


def _best_layer_s(profiles) -> dict[str, float]:
    """Per-layer minimum over runs: host noise only ever adds time."""
    return {
        layer: min(p.layer_self_s()[layer] for p in profiles)
        for layer in LAYERS + EXTRA_BUCKETS
    }


def test_injected_busy_wait_lands_in_its_layer():
    workload = _rpc_workload()
    _profile(workload)  # warm caches before comparing
    baselines = [_profile(workload) for _ in range(RUNS)]
    loaded, injected = [], []
    for _ in range(RUNS):
        with busy_wait_in(RpcChannel, "round_trip_costs", SPIN) as spun:
            loaded.append(_profile(workload))
        injected.append(spun[0])
    assert baselines[0].counts["rpc_calls"] > 100
    assert all(p.counts == baselines[0].counts for p in baselines + loaded)

    before = _best_layer_s(baselines)
    after = _best_layer_s(loaded)
    total = min(injected)
    assert total > 0.2
    assert after["netsim"] - before["netsim"] == pytest.approx(total, rel=0.25)
    for layer in LAYERS + EXTRA_BUCKETS:
        if layer != "netsim":
            assert abs(after[layer] - before[layer]) <= 0.1 * total + 0.1 * before[layer], layer
    for profile in baselines + loaded:
        shares = [s / profile.total_s for s in profile.layer_self_s().values()]
        assert sum(shares) == pytest.approx(1.0, abs=0.01)
