"""An image-classification pipeline, end to end.

1. builds the paper's FFNN Fashion-MNIST classifier and prints the
   numbers the simulator serves it by: input and output shape,
   parameters, FLOPs per image, and the float32 weight bytes a tool
   loads,
2. benchmarks the serving alternatives for exactly this model on Flink
   and prints which tool meets a 1 ms/event service target.

Run:  python examples/image_classification_pipeline.py
"""

from repro.config import ExperimentConfig
from repro.core.report import format_rate, format_table
from repro.core.runner import run_experiment
from repro.nn.zoo import build_ffnn

SERVING_TOOLS = ["onnx", "savedmodel", "dl4j", "tf_serving", "torchserve"]
TARGET_RATE = 1000.0  # events/s the application must sustain


def main() -> None:
    # -- 1. the model as the simulator sees it ------------------------------
    model = build_ffnn()
    rows = [
        (
            type(layer).__name__,
            "x".join(str(d) for d in layer.output_shape),
            f"{layer.param_count:,}",
            f"{layer.flops_per_point:,.0f}",
        )
        for layer in model.layers
    ]
    print(
        format_table(
            ["layer", "output", "parameters", "FLOPs/image"],
            rows,
            title=f"{model.name} over 28x28 images, layer by layer",
        )
    )
    print(
        f"total: {model.param_count:,} parameters, "
        f"{model.flops_per_point / 1e3:,.1f} kFLOPs per image, "
        f"{model.param_count * 4 / 1024:,.0f} KB of float32 weights to load"
    )

    # -- 2. pick a serving tool for this model -----------------------------
    rows = []
    for tool in SERVING_TOOLS:
        config = ExperimentConfig(
            sps="flink", serving=tool, model="ffnn", duration=2.0, ir=None
        )
        result = run_experiment(config)
        verdict = "meets target" if result.throughput >= TARGET_RATE else "too slow"
        rows.append((tool, format_rate(result.throughput), verdict))
    print()
    print(
        format_table(
            ["serving tool", "events/s", f"vs {TARGET_RATE:.0f} ev/s target"],
            rows,
            title="Serving alternatives on Flink for this classifier",
        )
    )


if __name__ == "__main__":
    main()
