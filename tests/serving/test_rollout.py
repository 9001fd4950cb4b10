"""Unit tests for model-version rollouts (§7.2): one ``swap_model``
method, two mechanisms — an external server warm-loads beside its
workers, an embedded library quiesces its engine."""

from repro import calibration as cal
from repro.nn.zoo import model_info
from repro.serving import create_serving_tool
from repro.serving.costs import ServingCostModel
from repro.simul import Environment


def costs(model="ffnn", tool="tf_serving"):
    return ServingCostModel(cal.SERVING_PROFILES[tool], model_info(model))


def test_rollout_is_zero_downtime():
    """Requests during a swap are served by the old version, those after
    it by the new one — nobody waits for the load."""
    env = Environment()
    tool = create_serving_tool("tf_serving", env, "ffnn")
    new = costs()
    replies = []

    def client():
        while env.now < 4.0:
            result = yield from tool.score(1)
            replies.append((env.now, result.service_time))
            yield env.timeout(0.05)

    def driver():
        yield from tool.load()
        env.process(client())
        yield env.timeout(1.0)
        yield from tool.swap_model(new)

    env.process(driver())
    env.run()
    times = [t for t, __ in replies]
    # Zero downtime: the stream of replies has no gap near the rollout.
    assert max(b - a for a, b in zip(times, times[1:])) < 0.1
    assert max(service for __, service in replies) < 0.05 * new.load_time()
    assert tool.costs is new
    assert tool.model_swaps == 1


def test_embedded_swap_stalls_scoring():
    """The embedded counterpart: swapping weights quiesces the engine."""
    env = Environment()
    tool = create_serving_tool("onnx", env, "ffnn")
    latencies = []

    def client():
        while env.now < 3.0:
            result = yield from tool.score(1)
            latencies.append((env.now, result.service_time))
            yield env.timeout(0.02)

    def driver():
        yield from tool.load()
        env.process(client())
        yield env.timeout(1.0)
        yield from tool.swap_model(costs(tool="onnx"))

    env.process(driver())
    env.run()
    worst = max(service for __, service in latencies)
    typical = min(service for __, service in latencies)
    # At least one request stalled for roughly the model-load time.
    assert worst > 0.5 * costs(tool="onnx").load_time()
    assert worst > 20 * typical
    assert tool.model_swaps == 1
