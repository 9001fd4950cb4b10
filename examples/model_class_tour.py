"""Benchmarking every model class the paper's generator covers (§4.1).

"The data generator is general enough to cover a wide range of ML
models": 2D/3D tensors for CNNs, sequence data for RNNs, and
autoencoders producing compact representations. This tour prints what
the simulator knows of each class (shapes, parameters, FLOPs), then
benchmarks the same architectures in the streaming pipeline across an
embedded and an external serving tool.

Run:  python examples/model_class_tour.py
"""

from repro.config import ExperimentConfig
from repro.core.report import format_table
from repro.core.runner import run_experiment
from repro.nn.zoo import model_info

MODELS = {
    "ffnn": "dense classifier (Fashion-MNIST images)",
    "gru": "RNN over 32-step sensor sequences",
    "autoencoder": "compact-representation reconstructor",
    "mobilenet": "depthwise-separable CNN (224x224 images)",
}


def shape_table() -> None:
    rows = []
    for model in MODELS:
        info = model_info(model)
        rows.append(
            (
                model,
                "x".join(str(d) for d in info.input_shape),
                "x".join(str(d) for d in info.output_shape),
                f"{info.param_count:,}",
                f"{info.param_count * 4 / 1e6:,.2f}",
            )
        )
    print(
        format_table(
            ["model", "input", "output", "parameters", "weight MB"],
            rows,
            title="What the simulator reads of each model class",
        )
    )


def streaming_benchmark() -> None:
    rows = []
    for model, description in MODELS.items():
        info = model_info(model)
        for tool in ("onnx", "tf_serving"):
            duration = 10.0 if model == "mobilenet" else 3.0
            result = run_experiment(
                ExperimentConfig(
                    sps="flink", serving=tool, model=model,
                    ir=None, duration=duration,
                )
            )
            rows.append(
                (
                    model,
                    f"{info.flops_per_point / 1e6:,.2f}",
                    tool,
                    f"{result.throughput:,.1f}",
                )
            )
        rows.append(("", "", "", ""))
    print(
        format_table(
            ["model", "MFLOPs/point", "serving tool", "events/s"],
            rows[:-1],
            title="Streaming-inference throughput per model class (Flink, mp=1)",
        )
    )


def main() -> None:
    shape_table()
    print()
    streaming_benchmark()
    print()
    for model, description in MODELS.items():
        print(f"  {model:12s} {description}")


if __name__ == "__main__":
    main()
