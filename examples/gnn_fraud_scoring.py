"""Serving a Graph Neural Network over a stream (the paper's §9).

The paper's conclusion flags GNNs as the model class streaming inference
cannot yet handle gracefully: scoring one node needs its k-hop
neighborhood read from historical state, not just the event payload.
This example implements that future-work scenario:

1. what one request costs: a 2-hop GCN fraud scorer over a degree-6
   transaction graph, as parameters, neighborhood keys and FLOPs,
2. streaming side: the same architecture is served behind the embedded
   GNN tool, where each request first pulls its neighborhood from a
   simulated RocksDB-like state store, and
3. a sweep over hop depth and cache hit ratio shows how quickly state
   I/O — not inference — becomes the latency budget.

Run:  python examples/gnn_fraud_scoring.py
"""

from repro import calibration as cal
from repro.core.report import format_table
from repro.nn.gnn import build_gcn
from repro.nn.zoo import ModelInfo
from repro.serving.costs import ServingCostModel
from repro.serving.embedded.gnn import GnnEmbeddedTool
from repro.serving.state import StateStore
from repro.simul import Environment


def measure_serving_latency(hops: int, hit_ratio: float) -> float:
    """Mean score() time of one node through the GNN serving tool."""
    env = Environment()
    gcn = build_gcn(hops=hops)
    info = ModelInfo(
        name=gcn.name,
        input_shape=gcn.input_shape,
        output_shape=gcn.output_shape,
        param_count=gcn.param_count,
        flops_per_point=gcn.flops_per_point,
    )
    costs = ServingCostModel(cal.SERVING_PROFILES["onnx"], info)
    tool = GnnEmbeddedTool(env, costs, gcn, StateStore(env, hit_ratio=hit_ratio))
    times = []

    def driver():
        yield from tool.load()
        for __ in range(50):
            result = yield from tool.score(1)
            times.append(result.service_time)

    env.process(driver())
    env.run()
    return sum(times) / len(times)


def main() -> None:
    # -- 1. the cost of scoring one account ----------------------------------
    degree = 6
    gcn = build_gcn(hops=2, avg_degree=degree)
    print(
        f"{gcn.name}: {gcn.param_count:,} parameters, {gcn.feature_dim} features "
        f"in, {gcn.classes} classes out (fraud / legit)"
    )
    print(
        f"scoring one account over a degree-{degree} graph reads "
        f"{gcn.neighborhood_size} neighborhood keys and costs "
        f"{gcn.flops_per_point / 1e3:,.0f} kFLOPs"
    )

    # -- 2./3. streaming latency vs hops and cache hit ratio -----------------
    rows = []
    for hops in (1, 2, 3):
        for hit_ratio in (0.99, 0.8, 0.5):
            latency = measure_serving_latency(hops, hit_ratio)
            keys = build_gcn(hops=hops).neighborhood_size
            rows.append(
                (hops, keys, f"{hit_ratio:.0%}", f"{latency * 1e3:.3f}")
            )
    print()
    print(
        format_table(
            ["hops (k)", "keys read/request", "cache hit ratio", "latency (ms)"],
            rows,
            title="GNN serving latency: k-hop state reads vs inference",
        )
    )
    print()
    print(
        "At k=3 the neighborhood fetch dwarfs the matrix math — the reason\n"
        "the paper calls out GNN serving as an open challenge for streaming\n"
        "inference systems (§9)."
    )


if __name__ == "__main__":
    main()
