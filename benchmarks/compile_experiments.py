"""Assemble EXPERIMENTS.md from the recorded benchmark outputs.

Run the benchmarks first (they persist their tables under
``benchmarks/results/``), then::

    python benchmarks/compile_experiments.py

The narrative blocks below state, per experiment, which of the paper's
claims the benchmark asserts and how our measurements compare.
"""

from __future__ import annotations

import os

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
OUTPUT = os.path.join(os.path.dirname(__file__), os.pardir, "EXPERIMENTS.md")

PREAMBLE = """\
# EXPERIMENTS — paper vs measured

Reproduction of every table and figure in the evaluation of *Crayfish*
(EDBT 2024), measured on the discrete-event-simulation substrate described
in DESIGN.md. Regenerate with::

    pytest benchmarks/ --benchmark-only
    python benchmarks/compile_experiments.py

Absolute numbers are not the target — the paper measured a 9-VM GCP
cluster, we measure a calibrated simulator — but each benchmark *asserts*
the paper's qualitative claims (orderings, crossovers, scaling knees), so
`pytest benchmarks/` failing means the reproduction lost a finding.

Methodological notes (details in DESIGN.md):

- Open-loop throughput runs use a backlog-maintaining producer instead of
  simulating millions of discarded sends at the paper's 30k ev/s offered
  rates; the steady state is identical.
- The burst experiment (Fig. 8) scales the paper's 30 s / 120 s cycles
  down 10x (3 s bursts, 12 s valleys); recovery times are rescaled by 10
  in the table for comparison.
- Every experiment is run twice with different seeds (the paper's
  protocol); tables report means and standard deviations where shown.
"""

SECTIONS = [
    (
        "summary_findings",
        "Summary of major findings (§1), measured",
        "The paper's four headline claims verified end to end, "
        "independently of the per-figure reproductions: same-type tools "
        "vary significantly; external serving can beat embedded; every "
        "configuration gains from the GPU (to differing extents); and "
        "the same serving tool behaves very differently across stream "
        "processors.",
    ),
    (
        "table2",
        "Table 2 — model characteristics",
        "The FFNN and ResNet-50 are real architectures (`repro.nn.zoo`); "
        "parameter counts and tensor shapes are computed, not configured. "
        "Artifact sizes are analytic: float32 weight bytes plus a fixed "
        "per-format envelope, which is this repo's own ONNX-, Torch-, H5- "
        "and SavedModel-like framing (a design choice, not a measurement); "
        "ResNet-50's column is its weight bytes. Asserted: parameter "
        "counts in the paper's ranges; "
        "artifact-size ordering ONNX <= Torch < H5 << SavedModel with the "
        "~4.5x SavedModel/ONNX ratio for the small model. Note: we count "
        "ResNet-50's full 25.6M parameters where the paper rounds to 23M.",
    ),
    (
        "table4",
        "Table 4 — serving-tool throughput on Flink",
        "Asserted: the paper's exact FFNN ordering ONNX > SavedModel > "
        "DL4J > TF-Serving > TorchServe; TF-Serving ~3x TorchServe; "
        "ResNet50 collapses all tools under ~3 ev/s and closes the "
        "embedded/external gap (ONNX ~ TF-Serving). Measured values land "
        "within 0.8-1.05x of the paper's.",
    ),
    (
        "fig5",
        "Figure 5 — latency vs batch size (Flink, FFNN)",
        "Asserted: latency grows monotonically with bsz for every tool; "
        "the external TF-Serving sits inside the embedded band (below "
        "DL4J, near SavedModel) — the paper's headline surprise; embedded "
        "options stay within ~2x of each other. Our absolute latencies "
        "run ~2x below the paper's (its GCP serde/transport stack is "
        "heavier than our calibrated model at large payloads); the "
        "orderings and growth shape match.",
    ),
    (
        "fig6",
        "Figure 6 — vertical scalability (Flink, FFNN)",
        "Asserted: everything scales to mp=8; DL4J flattens past mp=8 "
        "(its engine's 8-slot internal cap); the rest keep gaining at 16; "
        "TF-Serving scales closer to linear than embedded ONNX (dedicated "
        "vs shared resources); peak ordering ONNX > SavedModel > "
        "TF-Serving > DL4J. Peaks land at 0.9-1.1x the paper's.",
    ),
    (
        "fig7",
        "Figure 7 — vertical scalability (Flink, ResNet50)",
        "Asserted: ONNX keeps scaling; TF-Serving is flat (single-session "
        "execution of large models, <1.4x from mp=1 to 16); TorchServe "
        "starts behind TF-Serving and overtakes it at high parallelism "
        "(paper: past mp=8).",
    ),
    (
        "fig8",
        "Figure 8 — burst recovery (ONNX vs TF-Serving)",
        "Asserted (takeaway 6): TF-Serving's best recovery beats ONNX's "
        "best, and its burst-to-burst variance is >2x ONNX's. Mechanism: "
        "slow service-rate modulation (GC/load swings) on the noisy "
        "server vs the stable embedded library. Rescaled bests: 33.8 s vs "
        "39.8 s (paper: 34.2 s vs 41.4 s).",
    ),
    (
        "fig9",
        "Figure 9 — GPU acceleration (ResNet50, bsz=8)",
        "Asserted: both tools gain from the GPU; the specialized server "
        "gains more (paper: -24.1% vs -16.4%); the GPU-accelerated "
        "external server beats embedded CPU — acceleration amortizes the "
        "network hop.",
    ),
    (
        "table5",
        "Table 5 — throughput across stream processors",
        "Asserted: SPS ordering Spark SS > Kafka Streams > Flink > Ray "
        "for both serving styles; Spark nearly erases the embedded/"
        "external gap (<15%) where Flink keeps >2x; Kafka Streams boosts "
        "ONNX over Flink by more than it boosts TF-Serving (paper: +49.6% "
        "vs +13.7%).",
    ),
    (
        "table5_latency",
        "§5.3.1 — per-event latency, Kafka Streams vs Spark at ir=512",
        "Asserted: Spark's micro-batching costs >5x Kafka Streams' "
        "per-event latency under moderate load (paper: 290.78 ms vs "
        "16.25 ms).",
    ),
    (
        "fig10",
        "Figure 10 — latency across SPSs vs batch size",
        "Asserted: Flink lowest at bsz=32 but beaten by Kafka Streams at "
        "bsz=512 (network-buffer fragmentation of large records); Spark "
        "SS worst at every size (trigger overhead); Ray competitive with "
        "the JVM engines at bsz=128 despite Python + HTTP.",
    ),
    (
        "fig11",
        "Figure 11 — vertical scalability across SPSs",
        "Asserted: Spark sits at the highest, flat ceiling (serialized "
        "driver); Kafka Streams scales steadily and beats Flink at mp=16; "
        "Spark+TF-Serving saturates the server >4x beyond Kafka Streams "
        "at mp=2 (paper: 7.2x); Ray plateaus ~1.2k ev/s (node scheduler) "
        "and its external path pins at ~455 ev/s — the single Ray Serve "
        "HTTP proxy, reproduced exactly.",
    ),
    (
        "fig12",
        "Figure 12 / §6.1 — operator-level parallelism on Flink",
        "Asserted: flink[32-N-32] (unchained, Kafka-facing operators at "
        "partition parallelism) beats flink[N-N-N] at every N for both "
        "tools; at N=1 the gain is 2.5-5x (paper: 3.8x, 5373 vs 1393 "
        "ev/s).",
    ),
    (
        "fig13",
        "Figure 13 / §6.2 — Kafka transport overhead",
        "Asserted: the broker adds <10% throughput overhead (paper: "
        "2.42%) but the standalone pipeline's latency is >35% lower at "
        "every batch size (paper: up to 59% lower) — serde and broker "
        "hops dominate end-to-end latency for small models.",
    ),
    (
        "ablation_async_io",
        "Ablation — Flink Async I/O (the §4.3 fairness decision)",
        "The paper ran all external calls blocking so no SPS got an "
        "unfair advantage, noting Flink's Async I/O operator exists. "
        "Implemented here: an in-flight window multiplies a single "
        "task's external throughput >3x and saturates once it covers "
        "the round-trip/service gap.",
    ),
    (
        "ablation_resource_split",
        "Ablation — non-uniform SPS/server resource allocation (§9)",
        "With a fixed 16-worker budget split between Flink scoring tasks "
        "and TF-Serving workers, the optimum for a cheap model is "
        "heavily client-sided (blocking RPC idles clients on round "
        "trips) but interior — starving the server eventually queues "
        "requests. The paper names this allocation problem as open "
        "future work.",
    ),
    (
        "ablation_producer_batching",
        "Ablation — producer-level batching (§3.5 design decision)",
        "Point throughput (events/s x bsz) rises steeply with batch size "
        "as per-event machinery amortizes — the same mechanism behind "
        "Spark's micro-batch advantage.",
    ),
    (
        "ablation_fault_tolerance",
        "Ablation — processing guarantees under failures (§7.2)",
        "A crash at t=3 s with 1 s checkpoints: at-least-once leaks "
        "replayed batches downstream; an exactly-once (transactional) "
        "sink delivers each batch once but quantizes latency to "
        "checkpoint commits — and the external server is re-queried "
        "either way, the paper's point that inference side effects "
        "escape the SPS's guarantees.",
    ),
    (
        "ablation_chaos",
        "Ablation — client resilience under a serving-server crash (§7.2)",
        "TF-Serving crashes at t=2 s and stays down 0.3 s while Flink "
        "scores at 100 ev/s, under three client policies. The benchmark "
        "asserts that with no policy the crash sheds batches and goodput "
        "falls below 95% of the no-fault run; that exponential-backoff "
        "retries shed nothing and keep at least 90% of it; and that "
        "falling back to an embedded ONNX session after two retries "
        "also sheds nothing and keeps at least 90%.",
    ),
    (
        "ablation_adaptive_batching",
        "Ablation — server-side adaptive batching (related work)",
        "Clipper-style request coalescing multiplies TorchServe's "
        "saturated throughput several times (its per-request Python "
        "handler is the costliest in the study) at a bounded idle-"
        "latency cost.",
    ),
    (
        "ablation_autoscaling",
        "Ablation — external-server autoscaling (§1/§7.2)",
        "A queue-driven autoscaler (1..8 workers, 1 s provisioning "
        "delay) absorbs periodic bursts that a fixed single worker "
        "turns into long queues, cutting p50 by an order of magnitude "
        "and p95 by >2x.",
    ),
    (
        "ablation_gnn",
        "Ablation — GNN serving with k-hop state reads (§9 future work)",
        "Serving a real GCN whose requests read their k-hop "
        "neighborhoods from an embedded state store: by k=3 the state "
        "fetch dominates the request — why the paper flags GNNs as an "
        "open challenge for streaming inference.",
    ),
    (
        "ablation_model_size",
        "Ablation — the model-size spectrum (takeaway 5, extended)",
        "Adding MobileNetV1 (~1.1 GFLOPs) between the paper's FFNN and "
        "ResNet-50 shows the embedded/external gap shrinking "
        "monotonically as compute per point grows.",
    ),
    (
        "ablation_scoring_window",
        "Ablation — SPS-side micro-batching (§7.1's recommendation)",
        "A count window in front of Flink's scoring operator — the "
        "paper's 'Micro-batching Support for External Servers' design "
        "recommendation, implemented. Doubles single-task external "
        "throughput; partial windows flush on idle, so low-rate latency "
        "is untouched.",
    ),
    (
        "ablation_protocol",
        "Ablation — gRPC vs REST for TF-Serving (§3.4.3)",
        "The paper chose TF-Serving's gRPC API; this quantifies the "
        "choice: REST's JSON payloads cost throughput at bsz=1 and "
        "substantially more latency at bsz=128 where payload codecs "
        "dominate.",
    ),
]


def main(output: str = OUTPUT) -> None:
    """Write EXPERIMENTS.md (or ``output``) from ``benchmarks/results/``."""
    blocks = [PREAMBLE]
    missing = []
    for name, title, narrative in SECTIONS:
        path = os.path.join(RESULTS_DIR, f"{name}.txt")
        blocks.append(f"## {title}\n\n{narrative}\n")
        if os.path.exists(path):
            with open(path) as handle:
                blocks.append("```\n" + handle.read().strip() + "\n```\n")
        else:
            missing.append(name)
            blocks.append("*(run the benchmark to fill in this table)*\n")
    extra = sorted(
        f[:-4]
        for f in os.listdir(RESULTS_DIR)
        if f.endswith(".txt") and f[:-4] not in {name for name, *_ in SECTIONS}
    ) if os.path.isdir(RESULTS_DIR) else []
    if extra:
        blocks.append("## Ablations beyond the paper\n")
        for name in extra:
            with open(os.path.join(RESULTS_DIR, f"{name}.txt")) as handle:
                blocks.append("```\n" + handle.read().strip() + "\n```\n")
    with open(output, "w") as handle:
        handle.write("\n".join(blocks))
    print(f"wrote {os.path.abspath(output)}")
    if missing:
        print("missing results for:", ", ".join(missing))


if __name__ == "__main__":
    main()
