"""The latency-accuracy trade-off during model fine-tuning (§2.2.2).

A data scientist tunes the FFNN's hidden width: wider layers mean more
capacity (an accuracy proxy) but slower serving. Crayfish's pitch is to
quantify the *serving* side of that trade-off before training finishes:
each candidate width is registered as a zoo model and benchmarked in the
exact production configuration (Flink + ONNX over Kafka).

Run:  python examples/latency_accuracy_tradeoff.py
"""

from repro.config import ExperimentConfig, WorkloadKind
from repro.core.report import format_table
from repro.core.runner import run_experiment
from repro.nn.layers import Dense, Flatten, ReLU, Softmax
from repro.nn.model import Sequential
from repro.nn.zoo import register_model

WIDTHS = [32, 256, 2048, 8192]
LATENCY_BUDGET_MS = 5.0


def make_builder(width: int):
    def build() -> Sequential:
        layers = [Flatten((28, 28)), Dense((784,), width), ReLU((width,))]
        for __ in range(2):
            layers += [Dense((width,), width), ReLU((width,))]
        layers += [Dense((width,), 10), Softmax((10,))]
        return Sequential(layers, name=f"ffnn_w{width}")

    return build


def main() -> None:
    rows = []
    for width in WIDTHS:
        name = f"ffnn_w{width}"
        register_model(name, make_builder(width))
        config = ExperimentConfig(
            sps="flink",
            serving="onnx",
            model=name,
            workload=WorkloadKind.CLOSED_LOOP,
            ir=5.0,
            # Long enough that the model-load warm-up (several seconds for
            # the widest candidate) falls inside the discarded 25%.
            duration=16.0,
        )
        result = run_experiment(config)
        params = make_builder(width)().param_count
        latency_ms = result.latency.mean * 1e3
        verdict = "fits budget" if latency_ms <= LATENCY_BUDGET_MS else "over budget"
        rows.append(
            (width, f"{params / 1e3:.0f} K", f"{latency_ms:.2f}", verdict)
        )
    print(
        format_table(
            ["hidden width", "parameters", "latency (ms)", f"vs {LATENCY_BUDGET_MS} ms budget"],
            rows,
            title="Serving latency per candidate architecture (Flink + ONNX)",
        )
    )
    print()
    print(
        "Wider candidates buy capacity (an accuracy proxy) but eventually\n"
        "blow the latency budget — Crayfish quantifies the serving cost of\n"
        "each architecture before the training pipeline commits to one\n"
        "(§2.2.2)."
    )


if __name__ == "__main__":
    main()
