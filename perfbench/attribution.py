"""Per-layer host-time attribution of one workload repetition.

The repetition runs under the stdlib deterministic profiler (cProfile).
Each profiled function's self time is charged to a *bucket*:

* a function defined in ``repro/<layer>/...`` charges its own layer
  (``sps`` is split further by engine: ``sps.flink``, ``sps.spark``, ...);
  ``repro`` packages outside the named layers and top-level ``repro``
  modules charge ``other``;
* any other function (builtins, stdlib, NumPy) charges the layers of its
  callers, in proportion to the time spent under each caller edge,
  following non-``repro`` callers up until a ``repro`` frame is reached;
* time with no ``repro`` frame above it charges ``harness``, the
  benchmark's own code.

Every second of profiled self time lands in exactly one bucket, so
shares sum to 1.

Call counts of plain functions are read from the profile. Generator
functions (broker ``append``/``fetch``/``fetch_many``, serving ``score``)
are counted by a thin wrapper installed for the traced run only, because
the profiler counts every resumption of a generator as a call.
"""

from __future__ import annotations

import collections
import contextlib
import cProfile
import dataclasses
import functools
import importlib
import inspect
import os
import pkgutil
import pstats
import typing
from pathlib import Path

import repro
import repro.serving
from repro.broker.kafka_cluster import BrokerCluster

from workloads import Rep, Workload, run_rep

#: The repro packages reported as layers, in report order.
LAYERS = (
    "simul",
    "broker",
    "sps",
    "serving",
    "netsim",
    "core",
    "tracing",
    "metrics",
    "cluster",
    "matrix",
    "nn",
)
#: Catch-all buckets: other repro code, and the benchmark itself.
EXTRA_BUCKETS = ("other", "harness")
ENGINES = ("flink", "kafka_streams", "spark", "ray_actors")

REPRO_DIR = Path(repro.__file__).resolve().parent
_REPRO_PREFIX = str(REPRO_DIR) + os.sep

#: Plain functions counted from the profile: name -> (file, functions).
PROFILE_COUNTS = {
    "step": ("simul/core.py", ("step",)),
    "timeouts": ("simul/core.py", ("timeout", "service_timeout")),
    "processes": ("simul/core.py", ("process",)),
    "keyed_draws": ("simul/rng.py", ("keyed_lognormal_factor",)),
    "rpc_calls": ("netsim/protocols.py", ("round_trip_costs",)),
    "span_calls": ("tracing/spans.py", ("begin", "end", "record", "lapse")),
    "scrapes": ("metrics/scraper.py", ("scrape",)),
}

FuncKey = tuple[str, int, str]


def repro_relpath(filename: str) -> str | None:
    """Path of ``filename`` inside the repro package, or None."""
    if not filename.startswith(_REPRO_PREFIX):
        return None
    return filename[len(_REPRO_PREFIX) :].replace(os.sep, "/")


def bucket_of(filename: str) -> str | None:
    """The bucket a repro source file charges; None outside repro."""
    rel = repro_relpath(filename)
    if rel is None:
        return None
    parts = rel.split("/")
    if len(parts) == 1 or parts[0] not in LAYERS:
        return "other"
    if parts[0] == "sps" and len(parts) > 2:
        return f"sps.{parts[1]}"
    return parts[0]


def layer_of(bucket: str) -> str:
    return bucket.split(".", 1)[0]


def attribute(stats: dict) -> dict[str, float]:
    """Self seconds per bucket for a ``pstats.Stats.stats`` mapping."""
    shares: dict[FuncKey, dict[str, float]] = {}
    visiting: set[FuncKey] = set()

    def caller_shares(func: FuncKey) -> dict[str, float]:
        """How ``func``'s time splits across buckets, by caller edge."""
        if func in shares:
            return shares[func]
        visiting.add(func)
        weights: dict[str, float] = collections.defaultdict(float)
        callers = stats[func][4] if func in stats else {}
        for caller, edge in callers.items():
            # Edge tuple: (primitive calls, calls, self time, inclusive time).
            # An edge too short for the clock still counts, by its calls.
            weight = edge[3] if edge[3] > 0 else edge[1] * 1e-9
            bucket = bucket_of(caller[0])
            if bucket is not None:
                weights[bucket] += weight
            elif caller not in visiting:
                for name, share in caller_shares(caller).items():
                    weights[name] += weight * share
        visiting.discard(func)
        total = sum(weights.values())
        result = {k: v / total for k, v in weights.items()} if total > 0 else {"harness": 1.0}
        shares[func] = result
        return result

    buckets: dict[str, float] = collections.defaultdict(float)
    for func, (_, _, self_time, _, _) in stats.items():
        bucket = bucket_of(func[0])
        if bucket is not None:
            buckets[bucket] += self_time
        else:
            for name, share in caller_shares(func).items():
                buckets[name] += self_time * share
    return dict(buckets)


def profile_counts(stats: dict) -> dict[str, int]:
    """Call counts of :data:`PROFILE_COUNTS` functions."""
    counts = dict.fromkeys(PROFILE_COUNTS, 0)
    wanted = {
        (rel, fn): name
        for name, (rel, fns) in PROFILE_COUNTS.items()
        for fn in fns
    }
    for (filename, _, funcname), (_, calls, _, _, _) in stats.items():
        name = wanted.get((repro_relpath(filename), funcname))
        if name is not None:
            counts[name] += calls
    return counts


def inclusive_s(stats: dict, rel: str, funcname: str) -> float:
    return sum(
        entry[3]
        for (filename, _, name), entry in stats.items()
        if name == funcname and repro_relpath(filename) == rel
    )


def _generator_targets() -> list[tuple[type, str, str]]:
    """(class, method, counter) for generator functions counted by wrapper."""
    targets = [
        (BrokerCluster, "append", "appends"),
        (BrokerCluster, "fetch", "fetches"),
        (BrokerCluster, "fetch_many", "fetches"),
    ]
    for info in pkgutil.walk_packages(repro.serving.__path__, "repro.serving."):
        module = importlib.import_module(info.name)
        for cls in vars(module).values():
            if (
                inspect.isclass(cls)
                and cls.__module__ == module.__name__
                and inspect.isgeneratorfunction(cls.__dict__.get("score"))
            ):
                targets.append((cls, "score", "score_calls"))
    return targets


class CallCounter:
    """Counts calls to generator functions while :meth:`installed`."""

    def __init__(self) -> None:
        self.counts: collections.Counter[str] = collections.Counter()

    @contextlib.contextmanager
    def installed(self) -> typing.Iterator["CallCounter"]:
        saved = []
        for cls, attr, counter in _generator_targets():
            original = cls.__dict__[attr]
            saved.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, counter))
        try:
            yield self
        finally:
            for cls, attr, original in reversed(saved):
                setattr(cls, attr, original)

    def _wrap(self, fn: typing.Callable, counter: str) -> typing.Callable:
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return counted


@dataclasses.dataclass
class LayerProfile:
    """What one traced repetition cost, per bucket, plus call counts."""

    self_s: dict[str, float]
    counts: dict[str, int]
    keyed_draw_s: float

    @property
    def total_s(self) -> float:
        return sum(self.self_s.values())

    def layer_self_s(self) -> dict[str, float]:
        """Self seconds per layer and catch-all bucket (engines folded)."""
        out = dict.fromkeys(LAYERS + EXTRA_BUCKETS, 0.0)
        for bucket, seconds in self.self_s.items():
            out[layer_of(bucket)] += seconds
        return out


def profile_rep(workload: Workload, seed: int) -> tuple[Rep, LayerProfile]:
    """One repetition of ``workload`` under the profiler."""
    counter = CallCounter()
    profiler = cProfile.Profile()
    with counter.installed():
        profiler.enable()
        try:
            rep = run_rep(workload, seed)
        finally:
            profiler.disable()
    raw = pstats.Stats(profiler).stats  # type: ignore[attr-defined]
    counts = profile_counts(raw)
    counts.update(counter.counts)
    return rep, LayerProfile(
        self_s=attribute(raw),
        counts=counts,
        keyed_draw_s=inclusive_s(raw, "simul/rng.py", "keyed_lognormal_factor"),
    )
