"""Capacity-search driver: SLO predicate, bisection, and the curve."""

import json
import math
import types

import pytest

import repro.cluster.capacity as capacity_mod
from repro.cluster.capacity import (
    CapacityCurve,
    CapacityResult,
    SloPolicy,
    capacity_curve,
    search_capacity,
)
from repro.cluster.spec import ClusterSpec
from repro.config import ExperimentConfig
from repro.core.metrics import LatencyStats
from repro.errors import ConfigError


class _FakeResult:
    """The slice of ExperimentResult the SLO predicate reads."""

    def __init__(self, throughput, p95):
        self.throughput = throughput
        self.latency = LatencyStats(
            count=1, mean=p95, std=0.0, p50=p95, p95=p95, p99=p95, p999=p95,
            minimum=p95, maximum=p95,
        )


def _config(**extra):
    base = dict(
        sps="flink",
        serving="onnx",
        model="ffnn",
        ir=None,
        duration=1.0,
        cluster=ClusterSpec(nodes=1),
    )
    base.update(extra)
    return ExperimentConfig(**base)


# -- SloPolicy -----------------------------------------------------------


def test_slo_policy_validation():
    with pytest.raises(ConfigError):
        SloPolicy(p95_latency=0.0)
    with pytest.raises(ConfigError):
        SloPolicy(min_goodput=0.0)
    with pytest.raises(ConfigError):
        SloPolicy(min_goodput=1.5)


def test_slo_policy_predicate():
    slo = SloPolicy(p95_latency=0.5, min_goodput=0.9)
    assert slo.satisfied(100.0, [_FakeResult(throughput=95.0, p95=0.1)])
    # p95 over the bound
    assert not slo.satisfied(100.0, [_FakeResult(throughput=95.0, p95=0.6)])
    # goodput below the floor
    assert not slo.satisfied(100.0, [_FakeResult(throughput=80.0, p95=0.1)])
    # no completions in the window -> NaN p95 -> not sustained
    assert not slo.satisfied(
        100.0, [_FakeResult(throughput=0.0, p95=math.nan)]
    )


# -- search (with a fake simulator: capacity cliff at a known rate) ------


def _report(result):
    """The slice of a one-point MatrixReport the search reads."""
    point = types.SimpleNamespace(results=(result,))
    return types.SimpleNamespace(points=[point], executed=1)


def _fake_runner(cliff):
    """run_matrix stand-in: sustains below ``cliff``, collapses above."""

    def run(config, grid, **kwargs):
        rate = config.ir if config.ir is not None else config.population.mean_rate
        if rate <= cliff:
            return _report(_FakeResult(throughput=rate, p95=0.05))
        return _report(_FakeResult(throughput=cliff * 0.5, p95=2.0))

    return run


def test_search_brackets_the_cliff(monkeypatch):
    monkeypatch.setattr(capacity_mod, "run_matrix", _fake_runner(1000.0))
    result = search_capacity(
        _config(), seeds=(0,), start_rate=100.0, tolerance=0.05
    )
    assert result.capacity <= 1000.0
    # within the relative tolerance of the true cliff
    assert result.capacity >= 1000.0 * (1 - 0.08)
    rates = [p.rate for p in result.probes]
    assert len(rates) == len(set(rates)), "no rate probed twice"
    sustained = {p.rate for p in result.probes if p.sustained}
    assert result.capacity in sustained


def test_search_handles_failing_first_probe(monkeypatch):
    monkeypatch.setattr(capacity_mod, "run_matrix", _fake_runner(10.0))
    result = search_capacity(
        _config(), seeds=(0,), start_rate=1000.0, tolerance=0.1, max_probes=16
    )
    # bisection searched downward from the broken first probe
    assert 0.0 <= result.capacity <= 10.0


def test_search_respects_probe_budget(monkeypatch):
    monkeypatch.setattr(capacity_mod, "run_matrix", _fake_runner(1e9))
    result = search_capacity(
        _config(), seeds=(0,), start_rate=1.0, max_probes=5
    )
    assert len(result.probes) == 5
    assert result.executed == 5


def test_search_hook_sees_every_probe(monkeypatch):
    monkeypatch.setattr(capacity_mod, "run_matrix", _fake_runner(500.0))
    seen = []
    result = search_capacity(
        _config(), seeds=(0,), start_rate=100.0, hook=seen.append
    )
    assert [p.rate for p in seen] == [p.rate for p in result.probes]


def test_search_validates_arguments():
    with pytest.raises(ConfigError):
        search_capacity(_config(), start_rate=0.0)
    with pytest.raises(ConfigError):
        search_capacity(_config(), tolerance=1.5)
    with pytest.raises(ConfigError):
        search_capacity(_config(), max_probes=1)


# -- curve ---------------------------------------------------------------


def test_capacity_curve_reshapes_cluster(monkeypatch):
    probed_nodes = []

    def fake_run(config, grid, **kwargs):
        probed_nodes.append(config.cluster.nodes)
        cliff = 100.0 * config.cluster.nodes
        rate = config.ir
        if rate <= cliff:
            return _report(_FakeResult(throughput=rate, p95=0.05))
        return _report(_FakeResult(throughput=cliff, p95=2.0))

    monkeypatch.setattr(capacity_mod, "run_matrix", fake_run)
    sizes = []
    curve = capacity_curve(
        _config(cluster=ClusterSpec(nodes=1, racks=1)),
        node_counts=(1, 2, 4),
        seeds=(0,),
        start_rate=50.0,
        size_hook=lambda nodes, result: sizes.append(nodes),
    )
    assert [nodes for nodes, __ in curve.points] == [1, 2, 4]
    assert sizes == [1, 2, 4]
    assert curve.monotonic
    assert set(probed_nodes) == {1, 2, 4}
    capacities = [result.capacity for __, result in curve.points]
    assert capacities[0] < capacities[1] < capacities[2]


def test_capacity_curve_requires_cluster():
    config = ExperimentConfig(
        sps="flink", serving="onnx", model="ffnn", duration=1.0
    )
    with pytest.raises(ConfigError, match="clustered"):
        capacity_curve(config, node_counts=(1, 2))
    with pytest.raises(ConfigError, match="node count"):
        capacity_curve(_config(), node_counts=())


def test_curve_monotonic_property():
    def result(cap):
        return CapacityResult(config=_config(), capacity=cap, probes=())

    assert CapacityCurve(((1, result(10)), (2, result(10)))).monotonic
    assert not CapacityCurve(((1, result(10)), (2, result(5)))).monotonic


# -- one real (tiny) search against the simulator ------------------------


def test_real_search_finds_nonzero_capacity():
    result = search_capacity(
        _config(duration=0.5),
        slo=SloPolicy(p95_latency=0.5),
        seeds=(0,),
        start_rate=200.0,
        tolerance=0.5,
        max_probes=4,
    )
    assert result.capacity > 0.0
    assert result.probes[0].sustained


def test_repeated_search_replays_every_probe_from_the_store(tmp_path):
    from repro.store import ResultStore

    search = dict(
        slo=SloPolicy(p95_latency=0.5),
        seeds=(0,),
        start_rate=200.0,
        tolerance=0.5,
        max_probes=3,
    )
    with ResultStore(tmp_path / "store.sqlite", git_rev=None) as store:
        first = search_capacity(_config(duration=0.5), store=store, **search)
        again = search_capacity(_config(duration=0.5), store=store, **search)
        sweeps = store.conn.execute(
            "SELECT kind, meta_json, (SELECT COUNT(*) FROM runs"
            " WHERE runs.sweep_id = sweeps.id) FROM sweeps ORDER BY id"
        ).fetchall()
    assert first.executed == len(first.probes)
    assert again.executed == 0
    assert (again.capacity, again.probes) == (first.capacity, first.probes)
    # One capacity sweep per search; only the first one ran anything.
    assert [row[0] for row in sweeps] == ["capacity", "capacity"]
    assert [row[2] for row in sweeps] == [len(first.probes), 0]
    assert json.loads(sweeps[1][1])["capacity"] == first.capacity
