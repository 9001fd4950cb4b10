"""Unit tests for the GRU and autoencoder model classes (§4.1)."""

import pytest

from repro.errors import ShapeError
from repro.nn import Gru, Sigmoid
from repro.nn.zoo import build_autoencoder, build_gru, model_info


def test_gru_shapes_and_params():
    gru = Gru((10, 6), hidden=16)
    assert gru.output_shape == (16,)
    # 3 gates x (input kernel + recurrent kernel + bias).
    assert gru.param_count == 3 * (6 * 16 + 16 * 16 + 16)


def test_gru_flops_scale_with_timesteps():
    short = Gru((8, 6), hidden=16)
    long = Gru((64, 6), hidden=16)
    assert long.flops_per_point == pytest.approx(8 * short.flops_per_point)


def test_gru_validation():
    with pytest.raises(ShapeError):
        Gru((10,), hidden=4)
    with pytest.raises(ShapeError):
        Gru((10, 4), hidden=0)


def test_gru_zoo_model():
    info = model_info("gru")
    assert info.input_shape == (32, 64)
    assert info.output_shape == (8,)
    model = build_gru()
    assert isinstance(model.layers[0], Gru)
    assert model.layers[0].output_shape == (128,)
    assert info.param_count == 91_656


def test_autoencoder_reconstructs_shape():
    info = model_info("autoencoder")
    assert info.input_shape == (28, 28)
    assert info.output_values == 784
    model = build_autoencoder()
    # A sigmoid head keeps the reconstruction in the input's [0, 1] range.
    assert isinstance(model.layers[-1], Sigmoid)
    assert min(layer.output_shape[0] for layer in model.layers) == 32


def test_sequence_models_usable_in_experiments():
    from repro.config import ExperimentConfig
    from repro.core.runner import run_experiment

    for model in ("gru", "autoencoder"):
        result = run_experiment(
            ExperimentConfig(
                sps="flink", serving="onnx", model=model, ir=None, duration=2.0
            )
        )
        assert result.completed > 10, model
