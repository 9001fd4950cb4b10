"""Unit tests for the GNN extension (GCN params, FLOPs, neighborhoods)."""

import pytest

from repro.errors import ShapeError
from repro.nn.gnn import GcnModel, GraphConvLayer, build_gcn


def test_graph_conv_validates_features():
    assert GraphConvLayer(4, 3).param_count == 4 * 3 + 3
    with pytest.raises(ShapeError):
        GraphConvLayer(0, 3)
    with pytest.raises(ShapeError):
        GraphConvLayer(4, 0)


def test_gcn_neighborhood_grows_geometrically_with_hops():
    one = build_gcn(hops=1, avg_degree=8)
    two = build_gcn(hops=2, avg_degree=8)
    three = build_gcn(hops=3, avg_degree=8)
    assert one.neighborhood_size == 1 + 8
    assert two.neighborhood_size == 1 + 8 + 64
    assert three.neighborhood_size > 5 * two.neighborhood_size


def test_gcn_flops_scale_with_neighborhood():
    shallow = build_gcn(hops=1)
    deep = build_gcn(hops=3)
    assert deep.flops_per_point > 10 * shallow.flops_per_point


def test_gcn_param_count_matches_layers():
    model = build_gcn(feature_dim=8, hidden_dim=16, classes=3, hops=2)
    assert model.param_count == (8 * 16 + 16) + (16 * 3 + 3)


def test_gcn_invalid_configs():
    with pytest.raises(ShapeError):
        build_gcn(hops=0)
    with pytest.raises(ShapeError):
        GcnModel(8, 16, 2, avg_degree=0.5)


def test_gcn_registers_in_zoo():
    from repro.nn.zoo import available_models, model_info, register_model, unregister_model

    register_model("gcn_test", build_gcn)
    try:
        assert "gcn_test" in available_models()
        info = model_info("gcn_test")
        assert info.input_shape == (64,)
        assert info.flops_per_point > 0
    finally:
        unregister_model("gcn_test")
    assert "gcn_test" not in available_models()
