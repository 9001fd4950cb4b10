"""The external server's one worker pool under its policies and faults.

Adaptive batching decides what a worker dequeues and the autoscaler
decides how many workers run; both act on the same pool, so they
compose, and a server crash or a straggler reaches every worker the
pool has, whichever policy sized it.
"""

from __future__ import annotations

import json

import pytest

from repro.config import ExperimentConfig
from repro.core.results_io import result_record
from repro.core.runner import ExperimentRunner, run_experiment
from repro.errors import TransientError
from repro.faults import FaultPlan, ServerCrash, StragglerReplica
from repro.serving import create_serving_tool
from repro.serving.external.autoscaler import AutoscalePolicy, Autoscaler
from repro.serving.external.batching import BatchingPolicy
from repro.simul import Environment

BASE = dict(
    sps="flink", serving="torchserve", model="ffnn",
    ir=1500.0, mp=4, async_io=64, duration=2.0, seed=0,
)


def _record(result) -> str:
    record = result_record(result)
    del record["config"]
    return json.dumps(record, sort_keys=True)


def test_batching_and_autoscale_compose():
    both = ExperimentRunner(
        ExperimentConfig(**BASE, autoscale=(1, 8), adaptive_batching=(8, 0.005))
    ).run(metrics=True)
    sizes = both.telemetry.registry.get("serving_batch_size")
    assert sizes.count > 0
    assert sizes.sum / sizes.count > 1  # groups really coalesce
    scaled = both.telemetry.registry.get(
        "autoscaler_scale_events", labels={"direction": "up"}
    )
    assert scaled.value() > 0
    autoscale_only = ExperimentRunner(
        ExperimentConfig(**BASE, autoscale=(1, 8))
    ).run()
    assert _record(both) != _record(autoscale_only)


# -- crashes ----------------------------------------------------------------


def _crash_scenario(tool, n_clients, crash_after, late=None):
    """Load ``tool``, keep ``n_clients`` scoring, crash it ``crash_after``
    seconds after the load, and restart it at once. With ``late``, one
    more client starts that many seconds before the crash.

    Returns ``(outcomes, seen)``: per-client lists of "ok" or the
    error's type, and what the scenario observed: the server's processes
    (workers, daemons) just before the crash and just after the restart,
    the backlog and the group the dispatcher was forming at the crash,
    each client's failures 10 ms after it, and the pool's size at the
    restart.
    """
    env = tool.env
    outcomes = [[] for __ in range(n_clients + (late is not None))]
    seen = {}

    def client(log):
        while len(log) < 40:
            try:
                yield from tool.score(1)
                log.append("ok")
            except TransientError:
                log.append(TransientError)
                yield env.timeout(0.5)

    def driver():
        yield from tool.load()
        for log in outcomes[:n_clients]:
            env.process(client(log))
        if late is None:
            yield env.timeout(crash_after)
        else:
            yield env.timeout(crash_after - late)
            env.process(client(outcomes[-1]))
            yield env.timeout(late)
        seen["before"] = (list(tool._workers.values()), list(tool._daemons))
        seen["queued"] = tool.backlog
        seen["forming"] = len(tool._forming)
        tool.crash()
        yield env.timeout(0.01)
        seen["crashed"] = [log.count(TransientError) for log in outcomes]
        yield from tool.restart()
        seen["after"] = (list(tool._workers.values()), list(tool._daemons))
        seen["size"] = tool.pool_size

    env.process(driver())
    env.run(until=20.0)
    return outcomes, seen


def test_crash_under_autoscale_interrupts_every_worker_and_the_control_loop():
    env = Environment()
    tool = create_serving_tool("torchserve", env, "ffnn", mp=1)
    scaler = Autoscaler(
        env, tool,
        AutoscalePolicy(
            min_workers=1, max_workers=4,
            check_interval=0.05, worker_start_delay=0.5,
        ),
    )
    outcomes, seen = _crash_scenario(tool, n_clients=32, crash_after=0.12)
    workers, daemons = seen["before"]
    # Two scale-ups (at +0.05 s and +0.10 s) are still provisioning.
    assert len(workers) == 3 and len(daemons) == 1
    assert all(not process.is_alive for process in workers + daemons)
    # Every client had one request queued or in flight: each one failed.
    assert seen["queued"] > 0
    assert seen["crashed"] == [1] * 32
    # The restart runs one control loop and the pool at its desired size.
    workers, daemons = seen["after"]
    assert len(daemons) == 1 and daemons[0].is_alive
    assert len(workers) == seen["size"] == 3
    assert scaler.desired == 1  # idle again by the end of the run
    assert all(log.count("ok") >= 39 for log in outcomes)
    assert tool.crashes == 1


def test_crash_under_batching_interrupts_the_dispatcher_and_fails_groups():
    env = Environment()
    tool = create_serving_tool("torchserve", env, "ffnn", mp=2)
    tool.configure_pool(batching=BatchingPolicy(max_size=4, max_delay=0.01))
    # The late client's request is still being grouped at the crash.
    outcomes, seen = _crash_scenario(
        tool, n_clients=32, crash_after=0.1, late=0.005
    )
    workers, daemons = seen["before"]
    assert len(workers) == 2 and len(daemons) == 1  # the dispatcher
    assert all(not process.is_alive for process in workers + daemons)
    # Requests being grouped, queued as groups and in service: every
    # one failed.
    assert seen["forming"] == 1
    assert seen["crashed"] == [1] * 33
    workers, daemons = seen["after"]
    assert len(daemons) == 1 and daemons[0].is_alive
    assert len(workers) == seen["size"] == 2
    assert all(log.count("ok") >= 39 for log in outcomes)


@pytest.mark.parametrize(
    "batching, clients",
    [(None, 1), ((4, 0.01), 1), ((4, 0.5), 2)],
    ids=["pool", "batching", "gathering"],
)
def test_crash_fails_the_request_a_triggered_get_took(batching, clients):
    """A request put in the crash's own step, after a get was triggered
    with it but before the process waiting on that get resumed, is in
    flight: the crash fails its reply, so its client does not wait
    forever. The get is an idle worker's, the batching dispatcher's
    (one client), or the one the dispatcher gathers a group with (the
    second client's request joins the first's group)."""
    env = Environment()
    tool = create_serving_tool("tf_serving", env, "ffnn", mp=1)
    if batching is not None:
        tool.configure_pool(batching=BatchingPolicy(*batching))
    put = tool._queue.put
    puts = []

    def put_then_crash(item):
        event = put(item)
        puts.append(item)
        if len(puts) == clients:
            tool.crash()
        return event

    tool._queue.put = put_then_crash
    logs = [[] for __ in range(clients)]

    def client(log, delay):
        yield env.timeout(delay)
        while len(log) < 3:
            try:
                yield from tool.score(1)
                log.append("ok")
            except TransientError:
                log.append("failed")
                yield env.timeout(1.0)

    def driver():
        yield from tool.load()
        for index, log in enumerate(logs):
            env.process(client(log, 0.01 * index))
        yield env.timeout(1.0)
        yield from tool.restart()

    env.process(driver())
    env.run(until=5.0)
    assert tool.crashes == 1
    assert all(log[:1] == ["failed"] and "ok" in log for log in logs), logs


def test_crash_and_autoscale_run_end_to_end():
    plan = FaultPlan(server_crashes=(ServerCrash(at=1.0, downtime=0.2),))
    config = ExperimentConfig(
        sps="flink", serving="tf_serving", model="ffnn", ir=200.0,
        duration=3.0, autoscale=(1, 4), adaptive_batching=(4, 0.005),
        fault_plan=plan,
    )
    result = run_experiment(config)
    assert result.faults.server_crashes == 1
    assert result.completed > 0


# -- stragglers -------------------------------------------------------------


def test_straggler_slows_a_live_worker_of_an_autoscaled_pool():
    def run(plan=None):
        return run_experiment(
            ExperimentConfig(
                sps="flink", serving="tf_serving", model="ffnn", ir=50.0,
                mp=4, duration=3.0, autoscale=(1, 4), fault_plan=plan,
            )
        )

    # Worker 3 of a one-worker pool is that one worker.
    plan = FaultPlan(
        stragglers=(StragglerReplica(at=1.0, duration=1.5, slowdown=20.0, worker=3),)
    )
    baseline, straggled = run(), run(plan)
    assert straggled.faults.stragglers == 1
    assert straggled.latency.p99 > 2 * baseline.latency.p99


def test_set_straggler_picks_a_live_worker():
    env = Environment()
    tool = create_serving_tool("torchserve", env, "ffnn", mp=4)
    Autoscaler(env, tool, AutoscalePolicy(min_workers=2, max_workers=4))
    # Before the first load: among the ids its start will use.
    assert tool.set_straggler(5, 4.0) == 1
    env.process(tool.load())
    env.run(until=tool.costs.load_time() + 0.01)
    assert tool.live_workers == 2
    assert tool.set_straggler(3, 4.0) == 1
    assert tool.set_straggler(4, 4.0) == 0
