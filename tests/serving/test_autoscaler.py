"""Unit tests for the external-server autoscaler."""

import pytest

from repro.config import ExperimentConfig
from repro.errors import ConfigError
from repro.serving import create_serving_tool
from repro.serving.external.autoscaler import AutoscalePolicy, Autoscaler
from repro.simul import Environment


def test_policy_validation():
    with pytest.raises(ConfigError):
        AutoscalePolicy(min_workers=0)
    with pytest.raises(ConfigError):
        AutoscalePolicy(min_workers=4, max_workers=2)
    with pytest.raises(ConfigError):
        AutoscalePolicy(check_interval=0)
    with pytest.raises(ConfigError):
        AutoscalePolicy(step=0)
    with pytest.raises(ConfigError):
        AutoscalePolicy(
            scale_up_queue_per_worker=1.0, scale_down_queue_per_worker=2.0
        )


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(serving="onnx", autoscale=(1, 4))
    with pytest.raises(ConfigError):
        ExperimentConfig(serving="tf_serving", autoscale=(4, 2))
    with pytest.raises(ConfigError):
        ExperimentConfig(
            serving="tf_serving", autoscale=(1, 4), server_workers=2
        )


def build(policy, horizon=30.0):
    env = Environment()
    tool = create_serving_tool("torchserve", env, "ffnn", mp=policy.min_workers)
    scaler = Autoscaler(env, tool, policy, horizon=horizon)
    return env, tool, scaler


def drive(env, tool, n_clients, requests_each, interval=0.0):
    done = []

    def client():
        for __ in range(requests_each):
            result = yield from tool.score(1)
            done.append(result)
            if interval:
                yield env.timeout(interval)

    def driver():
        yield from tool.load()
        clients = [env.process(client()) for __ in range(n_clients)]
        yield env.all_of(clients)

    env.process(driver())
    env.run()
    return done


def test_scales_up_under_load():
    policy = AutoscalePolicy(min_workers=1, max_workers=8, worker_start_delay=0.05)
    env, tool, scaler = build(policy)
    done = drive(env, tool, n_clients=32, requests_each=30)
    assert len(done) == 32 * 30
    assert scaler.scale_ups > 0
    assert scaler.peak_desired > 1


def test_scales_back_down_when_idle():
    policy = AutoscalePolicy(
        min_workers=1, max_workers=8, worker_start_delay=0.05, check_interval=0.05
    )
    env, tool, scaler = build(policy)

    def phase_driver():
        yield from tool.load()
        # Burst phase: flood with concurrent requests.
        burst = [env.process(one()) for __ in range(64)]

        def wrap():
            yield env.all_of(burst)

        yield from wrap()
        # Idle phase: let the control loop observe the empty queue.
        yield env.timeout(3.0)

    def one():
        yield from tool.score(1)

    env.process(phase_driver())
    env.run(until=6.0)
    assert scaler.scale_ups > 0
    assert scaler.scale_downs > 0
    assert scaler.desired == policy.min_workers


def test_never_exceeds_max_workers():
    policy = AutoscalePolicy(min_workers=1, max_workers=3, worker_start_delay=0.01)
    env, tool, scaler = build(policy)
    drive(env, tool, n_clients=64, requests_each=10)
    assert scaler.peak_desired <= 3


def test_all_requests_served_across_scaling():
    policy = AutoscalePolicy(min_workers=2, max_workers=6, worker_start_delay=0.02)
    env, tool, scaler = build(policy)
    done = drive(env, tool, n_clients=16, requests_each=20, interval=0.001)
    assert len(done) == 16 * 20
    assert tool.requests_served == 16 * 20


# -- decision thresholds and cadence ----------------------------------------
#
# These tests drive the control loop directly: requests are parked in the
# service queue with no worker consuming them (worker_start_delay far
# beyond the test horizon), so the queue depth at each check is exact.


def _controlled(policy, queued, until):
    env, tool, scaler = build(policy, horizon=until)
    for __ in range(queued):
        tool._queue.try_put(object())
    env.process(scaler._control_loop())
    env.run(until=until)
    return scaler


def test_scale_up_threshold_is_strict():
    """queued == threshold * desired does not trigger; one more does."""
    policy = AutoscalePolicy(
        min_workers=1, max_workers=8,
        scale_up_queue_per_worker=4.0,
        check_interval=0.25, worker_start_delay=100.0,
    )
    at_threshold = _controlled(policy, queued=4, until=0.3)
    assert at_threshold.scale_ups == 0
    assert at_threshold.desired == 1
    over_threshold = _controlled(policy, queued=5, until=0.3)
    assert over_threshold.scale_ups == 1
    assert over_threshold.desired == 2


def test_check_interval_limits_decision_rate():
    """One scaling decision per check interval — the cooldown that keeps
    a deep backlog from spawning the whole pool at once."""
    policy = AutoscalePolicy(
        min_workers=1, max_workers=8,
        check_interval=0.25, worker_start_delay=100.0,
    )
    scaler = _controlled(policy, queued=100, until=1.05)
    assert scaler.scale_ups == 4  # checks at 0.25, 0.5, 0.75, 1.0
    assert scaler.desired == 5


def test_step_workers_added_per_decision():
    policy = AutoscalePolicy(
        min_workers=1, max_workers=8, step=3,
        check_interval=0.25, worker_start_delay=100.0,
    )
    scaler = _controlled(policy, queued=100, until=0.3)
    assert scaler.scale_ups == 1
    assert scaler.desired == 4
    # The 3 scaled-up workers spawn immediately (serving only after the
    # provisioning delay); the min worker would come from load(), which
    # this direct-drive harness skips.
    assert scaler.live == 3


def test_never_scales_below_min_workers():
    policy = AutoscalePolicy(
        min_workers=2, max_workers=8,
        check_interval=0.1, worker_start_delay=100.0,
    )
    scaler = _controlled(policy, queued=0, until=1.0)
    assert scaler.scale_downs == 0
    assert scaler.desired == policy.min_workers


def test_autoscaler_registers_metrics():
    from repro.metrics import MetricsRegistry
    from repro.simul import Environment as Env

    env = Env()
    registry = MetricsRegistry(env)
    tool = create_serving_tool("torchserve", env, "ffnn", mp=1)
    tool.install_metrics(registry)
    policy = AutoscalePolicy(min_workers=1, max_workers=4)
    scaler = Autoscaler(env, tool, policy, horizon=1.0)
    live = registry.get("autoscaler_replicas", labels={"state": "live"})
    desired = registry.get("autoscaler_replicas", labels={"state": "desired"})
    ups = registry.get("autoscaler_scale_events", labels={"direction": "up"})
    assert live.value() == 0  # nothing spawned before load()
    assert desired.value() == policy.min_workers
    assert ups.value() == 0
    env.process(tool.load())
    env.run(until=tool.costs.load_time() + 0.01)
    assert live.value() == policy.min_workers
    assert scaler.live == policy.min_workers
