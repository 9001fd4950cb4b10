"""Unit tests for server-side adaptive batching."""

import pytest

from repro.config import ExperimentConfig
from repro.errors import ConfigError
from repro.serving import create_serving_tool
from repro.serving.external.batching import BatchingPolicy
from repro.simul import Environment


def make_batched_tool(max_size=4, max_delay=0.002, mp=1):
    env = Environment()
    tool = create_serving_tool("torchserve", env, "ffnn", mp=mp)
    tool.configure_pool(
        batching=BatchingPolicy(max_size=max_size, max_delay=max_delay)
    )
    return env, tool


def test_policy_validation():
    with pytest.raises(ConfigError):
        BatchingPolicy(max_size=1)
    with pytest.raises(ConfigError):
        BatchingPolicy(max_delay=0)


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(serving="onnx", adaptive_batching=(8, 0.005))
    with pytest.raises(ConfigError):
        ExperimentConfig(serving="tf_serving", adaptive_batching=(1, 0.005))
    ExperimentConfig(serving="tf_serving", adaptive_batching=(8, 0.005))


def test_install_after_start_rejected():
    env = Environment()
    tool = create_serving_tool("torchserve", env, "ffnn")

    def load():
        yield from tool.load()

    env.process(load())
    env.run()
    with pytest.raises(ConfigError):
        tool.configure_pool(batching=BatchingPolicy())


def test_all_requests_answered():
    env, tool = make_batched_tool()
    results = []

    def client(n):
        for __ in range(n):
            result = yield from tool.score(1)
            results.append(result)

    def driver():
        yield from tool.load()
        clients = [env.process(client(5)) for __ in range(4)]
        yield env.all_of(clients)

    env.process(driver())
    env.run()
    assert len(results) == 20
    assert tool.requests_served == 20


def test_coalescing_amortizes_overhead():
    """N concurrent requests finish much faster batched than serial."""

    def total_time(batched):
        env = Environment()
        tool = create_serving_tool("torchserve", env, "ffnn", mp=1)
        if batched:
            tool.configure_pool(
                batching=BatchingPolicy(max_size=16, max_delay=0.001)
            )
        done = []

        def client():
            yield from tool.score(1)
            done.append(env.now)

        def driver():
            yield from tool.load()
            clients = [env.process(client()) for __ in range(16)]
            yield env.all_of(clients)

        env.process(driver())
        env.run()
        return max(done) - min(done) if len(done) > 1 else 0.0

    assert total_time(batched=True) < 0.5 * total_time(batched=False)


def test_timeout_flushes_partial_batch():
    """A lone request is not held past max_delay."""
    env, tool = make_batched_tool(max_size=64, max_delay=0.002)
    finished = []

    def driver():
        yield from tool.load()
        result = yield from tool.score(1)
        finished.append((env.now, result))

    env.process(driver())
    env.run()
    assert len(finished) == 1
    # Served shortly after the 2 ms coalescing window, not never.
    load_time = tool.costs.load_time()
    assert finished[0][0] < load_time + 0.015
