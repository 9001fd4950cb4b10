"""Rolling out a new model version with zero downtime (§7.2).

The paper's discussion argues external serving wins in production
because model management — versioning, rollouts, multi-model hosting —
is native there, while embedded serving couples the model's lifecycle to
the streaming job's. This example measures exactly that: a steady
scoring stream is hit by a v1 -> v2 model rollout through the one
rollout method, ``swap_model``: once against an external server
(background warm-load, atomic switch) and once against an embedded
library (engine quiesced while weights reload).

Run:  python examples/model_rollout.py
"""

from repro import calibration as cal
from repro.core.report import format_table
from repro.nn.zoo import model_info
from repro.serving import create_serving_tool
from repro.serving.costs import ServingCostModel
from repro.simul import Environment

REQUEST_INTERVAL = 0.02  # 50 requests/s
ROLLOUT_AT = 1.0
HORIZON = 4.0


def costs(tool: str) -> ServingCostModel:
    return ServingCostModel(cal.SERVING_PROFILES[tool], model_info("ffnn"))


def rollout(tool_name: str) -> list[tuple[float, float]]:
    """(time, latency) of every request around a v1 -> v2 swap."""
    env = Environment()
    tool = create_serving_tool(tool_name, env, "ffnn")
    samples = []

    def client():
        while env.now < HORIZON:
            result = yield from tool.score(1)
            samples.append((env.now, result.service_time))
            yield env.timeout(REQUEST_INTERVAL)

    def driver():
        yield from tool.load()
        env.process(client())
        yield env.timeout(ROLLOUT_AT)
        yield from tool.swap_model(costs(tool_name))

    env.process(driver())
    env.run()
    return samples


def summarize(samples: list[tuple[float, float]]) -> tuple[float, float]:
    latencies = [latency for __, latency in samples]
    return sum(latencies) / len(latencies), max(latencies)


def main() -> None:
    external_mean, external_worst = summarize(rollout("tf_serving"))
    embedded_mean, embedded_worst = summarize(rollout("onnx"))
    print(
        format_table(
            ["deployment", "mean latency (ms)", "worst request during rollout (ms)"],
            [
                ("external server (warm-load)", f"{external_mean * 1e3:.2f}",
                 f"{external_worst * 1e3:.2f}"),
                ("embedded library (swap in place)", f"{embedded_mean * 1e3:.2f}",
                 f"{embedded_worst * 1e3:.2f}"),
            ],
            title="v1 -> v2 model rollout under a 50 req/s scoring stream",
        )
    )
    print()
    print(
        "The external server warm-loads v2 in the background and flips\n"
        "traffic atomically — no request notices. The embedded library\n"
        "must quiesce its engine to replace the weights, so one request\n"
        "stalls for the entire model load (§7.2's model-management gap)."
    )


if __name__ == "__main__":
    main()
