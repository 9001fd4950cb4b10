"""Unit tests for the network and serialization cost models."""

import dataclasses

import pytest

from repro.netsim import GrpcChannel, HttpChannel, Link, binary_payload, json_payload


def test_json_payload_scales_with_values():
    small = json_payload(10)
    big = json_payload(1000)
    assert big.nbytes > small.nbytes
    assert big.encode_cost > small.encode_cost
    assert big.decode_cost > small.decode_cost


def test_json_payload_has_envelope():
    empty = json_payload(0)
    assert empty.nbytes > 0


def test_binary_payload_smaller_than_json():
    values = 784
    assert binary_payload(values).nbytes < json_payload(values).nbytes


def test_binary_codec_cheaper_than_json():
    values = 10_000
    assert binary_payload(values).encode_cost < json_payload(values).encode_cost


def test_payload_rejects_negative():
    with pytest.raises(ValueError):
        json_payload(-1)


def test_link_matches_paper_ping_times():
    """§4.2: ~0.945 ms RTT for a 3 KB payload, ~1.565 ms for 64 KB."""
    link = Link()
    assert link.rtt(3 * 1024) == pytest.approx(0.945e-3, rel=0.1)
    assert link.rtt(64 * 1024) == pytest.approx(1.565e-3, rel=0.15)


def test_link_transfer_monotone_in_size():
    link = Link()
    assert link.transfer_time(1000) < link.transfer_time(100_000)


def test_link_rejects_bad_parameters():
    with pytest.raises(ValueError):
        Link(base_latency=-1)
    with pytest.raises(ValueError):
        Link(bandwidth=0)
    with pytest.raises(ValueError):
        Link().transfer_time(-5)


def test_grpc_round_trip_costs_positive():
    channel = GrpcChannel()
    costs = channel.round_trip_costs(request_values=784, response_values=10)
    assert costs.client_cpu > 0
    assert costs.request_transfer > 0
    assert costs.response_transfer > 0
    assert costs.total == pytest.approx(
        costs.client_cpu + costs.request_transfer + costs.response_transfer
    )


def test_http_json_costlier_than_grpc():
    values = 784 * 64
    http = HttpChannel().round_trip_costs(values, 10)
    grpc = GrpcChannel().round_trip_costs(values, 10)
    assert http.total > grpc.total


def test_server_codec_costs():
    channel = GrpcChannel()
    assert channel.server_decode_cost(784) > 0
    assert channel.server_encode_cost(10) > 0


def test_payloads_are_memoized_per_size_and_type():
    assert json_payload(784) is json_payload(784)
    assert binary_payload(784) is binary_payload(784)
    # typed=True: an int and an equal float are separate entries.
    assert type(json_payload(3).values) is int
    assert type(json_payload(3.0).values) is float
    assert json_payload(3) is not json_payload(3.0)


def test_cached_payload_is_frozen():
    payload = json_payload(10)
    with pytest.raises(dataclasses.FrozenInstanceError):
        payload.nbytes = 0.0
    assert json_payload(10).nbytes == payload.nbytes > 0


def test_invalid_sizes_raise_on_every_call():
    for _ in range(3):
        with pytest.raises(ValueError):
            json_payload(-1)
        with pytest.raises(ValueError):
            binary_payload(-1)


def test_a_ks_run_builds_a_handful_of_payloads():
    from repro.config import ExperimentConfig
    from repro.core.runner import ExperimentRunner

    config = ExperimentConfig(
        sps="kafka_streams", serving="onnx", model="ffnn", mp=8, ir=None,
        duration=0.25,
    )
    json_payload.cache_clear()
    result = ExperimentRunner(config).run(seed=1)
    info = json_payload.cache_info()
    assert result.completed > 100
    assert info.hits > 100 * info.misses
    assert info.misses <= 4
