"""Unit tests for the gRPC/REST protocol selection (§3.4.3)."""

import pytest

from repro.config import (
    EMBEDDED_TOOLS,
    PROTOCOL_TOOLS,
    SERVING_TOOLS,
    ExperimentConfig,
)
from repro.errors import ConfigError
from repro.netsim import GrpcChannel, HttpChannel, Link
from repro.serving import create_serving_tool
from repro.simul import Environment


def test_config_validation():
    ExperimentConfig(serving="tf_serving", protocol="rest")
    ExperimentConfig(serving="torchserve", protocol="grpc")
    with pytest.raises(ConfigError):
        ExperimentConfig(serving="tf_serving", protocol="soap")
    with pytest.raises(ConfigError):
        ExperimentConfig(serving="onnx", protocol="rest")
    with pytest.raises(ConfigError):
        ExperimentConfig(serving="ray_serve", protocol="grpc")


def _factory_cases():
    for name in SERVING_TOOLS:
        protocols = (None, "rest") if name in PROTOCOL_TOOLS else (None,)
        links = (None,) if name in EMBEDDED_TOOLS else (None, "link")
        for protocol in protocols:
            for link in links:
                yield name, protocol, link


#: Engine caps at mp=16 for ResNet50, a large model: DL4J's 8 slots and
#: TF-Serving's single session.
_CAPS = {"dl4j": 8, "tf_serving": 1}


@pytest.mark.parametrize("name, protocol, link", list(_factory_cases()))
def test_factory_builds_requested_channel(name, protocol, link):
    env = Environment()
    link = Link() if link else None
    tool = create_serving_tool(
        name, env, "resnet50", mp=16, protocol=protocol, link=link
    )
    assert tool.costs.profile.name == name
    assert tool._engine.capacity == _CAPS.get(name, 16)
    if name in EMBEDDED_TOOLS:
        assert tool.kind == "embedded"
        assert not hasattr(tool, "channel")
        return
    assert tool.kind == "external"
    # gRPC is the paper's choice; Ray Serve is HTTP-only.
    http = name == "ray_serve" or protocol == "rest"
    assert type(tool.channel) is (HttpChannel if http else GrpcChannel)
    if link is None:
        assert type(tool.channel.link) is Link
    else:
        assert tool.channel.link is link


def test_factory_rejects_protocol_for_wrong_tools():
    env = Environment()
    with pytest.raises(ConfigError):
        create_serving_tool("onnx", env, "ffnn", protocol="rest")
    with pytest.raises(ConfigError):
        create_serving_tool("ray_serve", env, "ffnn", protocol="grpc")
    with pytest.raises(ConfigError):
        create_serving_tool("tf_serving", env, "ffnn", protocol="thrift")


def test_rest_requests_cost_more():
    """JSON payloads make the same call slower over REST."""

    def one_call_time(protocol):
        env = Environment()
        tool = create_serving_tool("tf_serving", env, "ffnn", protocol=protocol)
        done = []

        def driver():
            yield from tool.load()
            result = yield from tool.score(64)
            done.append(result.service_time)

        env.process(driver())
        env.run()
        return done[0]

    assert one_call_time("rest") > 1.1 * one_call_time("grpc")


def test_ray_substitution_ignores_protocol():
    """sps=ray + external + protocol must not crash: Ray Serve is
    HTTP-only and replaces the requested tool entirely."""
    from repro.core.runner import run_experiment

    result = run_experiment(
        ExperimentConfig(
            sps="ray", serving="tf_serving", protocol="grpc", ir=None, duration=1.0
        )
    )
    assert result.completed > 0
