"""Factory wiring serving tools from experiment configuration."""

from __future__ import annotations

import typing

from repro import calibration as cal
from repro import knobs
from repro.config import (
    EXTERNAL_TOOLS,
    PROTOCOL_TOOLS,
    SERVING_TOOLS,
    ExperimentConfig,
)
from repro.errors import ConfigError
from repro.nn.zoo import model_info
from repro.serving.base import ServingTool
from repro.serving.costs import ServingCostModel
from repro.serving.embedded import EmbeddedLibrary
from repro.serving.external import ExternalServingService, RayServeTool
from repro.simul import Environment, RandomStreams


def create_serving_tool(
    name: str,
    env: Environment,
    model: str,
    mp: int = 1,
    gpu: bool = False,
    rng: RandomStreams | None = None,
    server_workers: int | None = None,
    protocol: str | None = None,
    link: typing.Any = None,
) -> ServingTool:
    """Build the named serving tool bound to a model and parallelism.

    A tool is its calibration profile (``cal.SERVING_PROFILES[name]``)
    on one of two serving kinds: an :class:`EmbeddedLibrary` for the
    names in ``EMBEDDED_TOOLS``, an :class:`ExternalServingService` for
    those in ``EXTERNAL_TOOLS``.

    ``server_workers`` decouples the external server's worker pool from
    the SPS-side parallelism ``mp`` (the paper's default keeps them equal;
    §9 flags non-uniform allocation as open work). ``protocol`` overrides
    the wire API for the gRPC servers: "rest" queries TF-Serving /
    TorchServe through their JSON REST endpoints instead (§3.4.3 notes
    both exist; the paper used gRPC). ``link`` (a
    :class:`~repro.netsim.Link`) repoints the external tool's RPC channel
    at a specific network hop — scale-out placement hands each fleet
    replica the link between the load balancer's node and its own.
    """
    if name not in SERVING_TOOLS:
        raise ConfigError(
            f"unknown serving tool {name!r}; have {sorted(SERVING_TOOLS)}"
        )
    profile = cal.SERVING_PROFILES[name]
    is_external = name in EXTERNAL_TOOLS
    if server_workers is not None and not is_external:
        raise ConfigError("server_workers only applies to external serving tools")
    if link is not None and not is_external:
        raise ConfigError("link only applies to external serving tools")
    engine_parallelism = server_workers if (is_external and server_workers) else mp
    costs = ServingCostModel(
        profile=profile,
        model=model_info(model),
        mp=engine_parallelism,
        gpu=gpu,
        rng=rng,
    )
    if protocol is not None:
        knobs.of(ExperimentConfig)["protocol"].check(protocol)
        if name not in PROTOCOL_TOOLS:
            raise ConfigError(
                f"protocol selection applies to gRPC servers, not {name!r}"
            )
    if not is_external:
        return EmbeddedLibrary(env, costs)
    # Ray Serve alone adds a mechanism (its single HTTP proxy); the other
    # tools differ only by their calibration profile.
    tool_cls = RayServeTool if name == "ray_serve" else ExternalServingService
    return tool_cls(env, costs, channel_for(name, protocol=protocol, link=link))


def channel_for(
    name: str, protocol: str | None = None, link: typing.Any = None
):
    """The RPC channel class an external tool speaks, over ``link``.

    TF-Serving and TorchServe default to gRPC (``protocol="rest"`` picks
    their JSON REST endpoint); Ray Serve is HTTP-only.
    """
    from repro.netsim import GrpcChannel, HttpChannel

    if name == "ray_serve" or protocol == "rest":
        return HttpChannel(link)
    return GrpcChannel(link)
