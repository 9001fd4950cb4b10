"""Calibrated cost-model constants, with provenance.

Every simulated duration in this repository is computed from a mechanistic
model (queueing, serialization sizes, FLOP counts, network transfers) whose
free constants are pinned here. Each constant records the paper evidence it
was fitted against. The *mechanisms* live in the component modules; this
file is only numbers.

Derivation sketch (all times in seconds unless suffixed):

* Network: §4.2 reports a 0.945 ms ping for a 3 KB payload and 1.565 ms for
  64 KB on a 1 Gbps LAN → round trip = ``0.9 ms + payload / 0.8 Gbps``
  (effective bandwidth below line rate, as usual for small messages).
* Embedded scoring times: Table 4 gives per-event sustainable service times
  on Flink at ``mp=1`` (1/throughput): ONNX 0.728 ms, SavedModel 0.776 ms,
  DL4J 1.270 ms for FFNN; ONNX 351 ms for ResNet50. With Flink's chained
  source+score+sink costing ~0.53 ms of that (fits Fig. 12's 5373 ev/s
  unchained scoring-only rate), the per-library FFNN scoring marginals are
  ONNX ≈ 0.19 ms, SavedModel ≈ 0.25 ms, DL4J ≈ 0.74 ms.
* Engine FLOP rates come from the FFNN→ResNet50 deltas (Δ ≈ 7.75 GFLOP, i.e. 3.87 GMAC at 2 FLOPs/MAC):
  ONNX ≈ 2.21e10 FLOP/s, TF engines ≈ 2.03e10, TorchServe ≈ 7.1e9.
* Embedded scaling contention (`alpha`): Fig. 6 peak throughputs (ONNX
  13.6k @ mp=16 → per-worker service inflated 1.63×; SavedModel 10.4k;
  DL4J flat past mp=8).
* External server behaviour: Fig. 6 (TF-Serving ~9.8k @16 ≈ linear),
  Fig. 7 (TF-Serving flat for ResNet50 → large-model concurrency 1;
  TorchServe overtakes after mp≈8 → contention alpha ≈ 0.25).
* SPS overheads: Table 5 service-time deltas between engines for the same
  tools; Spark's flat 23k ceiling (Fig. 11) → 0.0435 ms/event of
  serialized driver work; Ray's 157 ev/s → ~6 ms actor overhead; Ray
  Serve's 455 ev/s ceiling → 2.2 ms single-proxy cost.
* GPU: Fig. 9 latency reductions (ONNX −16.4%, TF-Serving −24.1% on
  ResNet50 with bsz=8).
"""

from __future__ import annotations

import dataclasses

MS = 1e-3
MB = 1e6

# ---------------------------------------------------------------------------
# Network (fit: §4.2 ping measurements; 1 Gbps LAN)
# ---------------------------------------------------------------------------

#: One-way base latency between two VMs in the cluster.
NET_BASE_LATENCY = 0.45 * MS
#: Effective LAN bandwidth in bytes/second (below the 1 Gbps line rate).
NET_BANDWIDTH = 0.8e9 / 8

# ---------------------------------------------------------------------------
# Serialization (Crayfish uses JSON end to end; gRPC payloads are binary)
# ---------------------------------------------------------------------------

#: Bytes per value once JSON-encoded. §4.2 sizes one FFNN data point
#: (784 values) at ~3 KB, i.e. ~4 bytes per value (small-int pixels).
JSON_BYTES_PER_VALUE = 4.0
#: Fixed JSON envelope per CrayfishDataBatch (keys, timestamps, ids).
JSON_ENVELOPE_BYTES = 200.0
#: JSON encode / decode CPU cost per byte.
JSON_ENCODE_PER_BYTE = 45.0 / 1e6 * MS  # 45 ms per MB
JSON_DECODE_PER_BYTE = 55.0 / 1e6 * MS  # 55 ms per MB
#: Binary (gRPC/protobuf) per-value size and per-byte cost.
BINARY_BYTES_PER_VALUE = 4.0
BINARY_CODEC_PER_BYTE = 8.0 / 1e6 * MS  # 8 ms per MB each direction

# ---------------------------------------------------------------------------
# Message broker (fit: "Kafka is not the bottleneck", §3.5/§4.3)
# ---------------------------------------------------------------------------

#: Broker-side fixed cost to append one record to a partition log.
BROKER_APPEND_OVERHEAD = 0.02 * MS
#: Broker-side throughput for appends/fetches (bytes/s per broker).
BROKER_IO_BANDWIDTH = 2.0e9 / 8
#: Consumer poll round-trip fixed cost.
BROKER_FETCH_OVERHEAD = 0.05 * MS
#: Paper §4.3: request size ceiling raised to 50 MB for latency runs.
BROKER_MAX_REQUEST_BYTES = 50 * 1024 * 1024
#: Number of brokers in the simulated cluster (paper: 4).
BROKER_COUNT = 4

# ---------------------------------------------------------------------------
# Serving-tool engine profiles
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ServingProfile:
    """Cost profile of one serving engine.

    ``apply`` time for a batch of ``n`` points of a model with ``F``
    FLOPs/point and ``v`` input values/point:

    embedded:  call_overhead + n * (convert_per_value*v + F/flops_per_sec)
    external:  server-side request_overhead + the same marginal term;
               transport (serialization + network) is charged by the
               protocol layer, not here.
    """

    name: str
    #: Fixed cost per apply()/request (FFI call or server request handling).
    call_overhead: float
    #: Input conversion cost per input value (tensor marshalling).
    convert_per_value: float
    #: Engine compute rate in FLOP/s on one CPU worker.
    flops_per_sec: float
    #: Service-time contention factor per extra worker sharing a process:
    #: effective time = base * (1 + alpha * (mp - 1)).
    contention_alpha: float
    #: Hard cap on useful internal parallelism (None = unbounded).
    max_parallelism: int | None = None
    #: Concurrency the engine allows for "large" models (>= 1 GFLOP/point).
    #: TF-Serving serialises large-model inference in one session (Fig. 7).
    large_model_concurrency: int | None = None
    #: Extra contention alpha applied only to large models.
    large_model_alpha: float = 0.0
    #: Lognormal sigma of multiplicative per-request service-time noise.
    noise_sigma: float = 0.03
    #: Lognormal sigma of *slow* service-rate modulation (GC pauses, load
    #: swings), resampled every MODULATION_BUCKET of simulated time. This
    #: is what makes TF-Serving's burst recoveries vary run to run
    #: (Fig. 8) while ONNX stays stable.
    slow_sigma: float = 0.0
    #: GPU speedup on compute (Fig. 9; includes kernel efficiency).
    gpu_speedup: float = 1.0
    #: Host->device transfer cost per byte when the GPU is enabled.
    gpu_transfer_per_byte: float = 1.2 * MS / MB


# -- Embedded interoperability libraries (fit: Table 4, Figs. 5/6/7) -------

# ONNX Runtime: the cross-framework engine the paper picks for
# interoperability, and the fastest embedded option (Table 4) thanks to a
# cheap FFI boundary and a well-optimized CPU kernel library.
ONNX_PROFILE = ServingProfile(
    name="onnx",
    call_overhead=0.020 * MS,
    convert_per_value=0.165 * MS / 784.0,  # 0.165 ms for one FFNN point
    flops_per_sec=2.21e10,
    contention_alpha=0.042,  # Fig. 6: 13.6k @ mp=16 from 1373 @ mp=1
    noise_sigma=0.05,  # Fig. 8: ONNX recovery is the stable one
    slow_sigma=0.02,
    gpu_speedup=1.28,  # Fig. 9: -16.4% end-to-end latency
)

# TensorFlow SavedModel: runs SavedModel artifacts in-process through the
# TensorFlow Java bindings; close to ONNX Runtime on throughput (Table 4)
# but with more variance at high parallelism.
SAVEDMODEL_PROFILE = ServingProfile(
    name="savedmodel",
    call_overhead=0.010 * MS,
    convert_per_value=0.240 * MS / 784.0,
    flops_per_sec=2.03e10,
    contention_alpha=0.065,  # Fig. 6: 10.4k @ mp=16 from 1290 @ mp=1
    noise_sigma=0.10,  # Fig. 6: large stddev at high parallelism
    slow_sigma=0.10,
    gpu_speedup=1.40,
)

# DeepLearning4j: the JVM-native engine importing Keras H5 models. Its
# tensor bridge (ND4J) marshals each value at a higher cost than ONNX
# Runtime, and its workspace locking stops useful scaling past 8
# concurrent scorers: an 8-slot engine cap, Fig. 6's flat curve.
DL4J_PROFILE = ServingProfile(
    name="dl4j",
    call_overhead=0.300 * MS,
    convert_per_value=0.430 * MS / 784.0,
    flops_per_sec=1.0e10,
    contention_alpha=0.18,  # Fig. 6: stops scaling at ~2.8k
    max_parallelism=8,  # Fig. 6: no gains past mp=8
    noise_sigma=0.06,
    gpu_speedup=1.15,
)

# -- External serving frameworks (fit: Table 4, Figs. 6/7/9) ----------------

# TensorFlow Serving, over gRPC with binary tensors: the fastest external
# option for small models (Table 4), near embedded latency (Fig. 5).
# Large models execute in one session, so extra workers barely help.
TF_SERVING_PROFILE = ServingProfile(
    name="tf_serving",
    call_overhead=0.100 * MS,
    convert_per_value=0.090 * MS / 784.0,
    flops_per_sec=2.03e10,
    contention_alpha=0.0,  # Fig. 6: scales linearly to mp=16
    large_model_concurrency=1,  # Fig. 7: flat for ResNet50
    noise_sigma=0.30,  # Figs. 8/9: high run-to-run variation
    slow_sigma=0.25,
    gpu_speedup=1.46,  # Fig. 9: -24.1% end-to-end latency
)

# TorchServe, over gRPC: every request passes through Python handler code,
# the highest per-request overhead of the external tools (Table 4), but
# its process-per-worker design keeps scaling for large models where
# TF-Serving flattens (Fig. 7: it overtakes TF-Serving past mp=8).
TORCHSERVE_PROFILE = ServingProfile(
    name="torchserve",
    call_overhead=2.40 * MS,  # Python handler per request
    convert_per_value=0.200 * MS / 784.0,
    flops_per_sec=7.1e9,
    contention_alpha=0.03,
    large_model_alpha=0.25,  # Fig. 7: sublinear but keeps growing
    noise_sigma=0.12,
    slow_sigma=0.08,
    gpu_speedup=1.35,
)

RAY_SERVE_PROFILE = ServingProfile(
    name="ray_serve",
    call_overhead=1.20 * MS,  # Python replica handling
    convert_per_value=0.120 * MS / 784.0,
    flops_per_sec=1.6e10,
    contention_alpha=0.02,
    noise_sigma=0.15,
    slow_sigma=0.10,
    gpu_speedup=1.25,
)

SERVING_PROFILES = {
    profile.name: profile
    for profile in (
        ONNX_PROFILE,
        SAVEDMODEL_PROFILE,
        DL4J_PROFILE,
        TF_SERVING_PROFILE,
        TORCHSERVE_PROFILE,
        RAY_SERVE_PROFILE,
    )
}

#: Models at or above this many FLOPs/point get "large model" treatment
#: (ResNet-50-class; MobileNet's ~1.1 GFLOPs stays below the bar).
LARGE_MODEL_FLOPS = 3.0e9

#: Simulated seconds between redraws of the slow service-rate modulation.
#: Long enough that a capacity swing spans a whole burst-drain window,
#: which is what differentiates recoveries burst to burst (Fig. 8).
MODULATION_BUCKET = 2.0

# ---------------------------------------------------------------------------
# Stream processors
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class SpsProfile:
    """Per-engine fixed operator costs (serde & serving charged separately)."""

    name: str
    #: Fixed per-event cost in the source operator (fetch bookkeeping).
    source_overhead: float
    #: Fixed per-event cost in the scoring operator (framework dispatch).
    score_overhead: float
    #: Fixed per-event cost in the sink operator (produce bookkeeping).
    sink_overhead: float


# Fit: Flink chained [1-1-1] pipeline serves FFNN/ONNX at 1373-1393 ev/s
# (Table 4 / §6.1) while the unchained scoring stage alone sustains
# 5373 ev/s (Fig. 12) → src+sink ≈ 0.53 ms of the 0.72 ms chain, with
# JSON decode of a 3 KB event (~0.165 ms) inside the source.
FLINK_PROFILE = SpsProfile(
    name="flink",
    source_overhead=0.200 * MS,
    score_overhead=0.040 * MS,
    sink_overhead=0.120 * MS,
)

#: Flink network-buffer size; records larger than this pay a per-buffer
#: handling cost (Fig. 10: Flink loses to Kafka Streams at bsz=512).
FLINK_BUFFER_BYTES = 32 * 1024
FLINK_PER_BUFFER_COST = 0.300 * MS

# Fit: Table 5 — Kafka Streams/ONNX 2054 ev/s → 0.487 ms per event, i.e.
# ~0.24 ms less fixed overhead than Flink (pull model, no network stack).
KAFKA_STREAMS_PROFILE = SpsProfile(
    name="kafka_streams",
    source_overhead=0.030 * MS,
    score_overhead=0.020 * MS,
    sink_overhead=0.040 * MS,
)
#: Kafka Streams poll interval: fixed latency floor per record at low rates
#: (Fig. 10: KS slower than Flink for small batches).
KAFKA_STREAMS_POLL_INTERVAL = 3.0 * MS
#: Contention for Kafka Streams stream threads (Fig. 11: ~23k @ mp=16).
KAFKA_STREAMS_ALPHA = 0.027

#: Flink embedded contention comes from the serving profile alpha.

# Fit: Table 5 Spark/ONNX 4045 @ mp=1, Fig. 11 flat ~23k ceiling.
SPARK_PROFILE = SpsProfile(
    name="spark_ss",
    source_overhead=0.004 * MS,  # vectorized reader, amortized
    score_overhead=0.004 * MS,
    sink_overhead=0.004 * MS,
)
#: Serialized driver-side work per event (offsets, progress, commit).
#: Together with the driver's serialized Kafka fetch transfer this caps
#: Spark at a flat high ceiling regardless of mp (Fig. 11).
SPARK_DRIVER_PER_EVENT = 0.010 * MS
#: Fixed overhead per micro-batch trigger (scheduling, planning, commit).
SPARK_TRIGGER_OVERHEAD = 100.0 * MS
#: Vectorized (whole-chunk) scoring hands the engine one contiguous
#: tensor, so per-point marshalling shrinks to a memcpy share. This is the
#: micro-batch advantage behind Spark's Table 5 numbers and its ability to
#: saturate external servers (§7.1 "Micro-batching Support").
VECTORIZED_CONVERT_DISCOUNT = 0.12
#: Upper bound on events drained into one micro-batch.
SPARK_MAX_BATCH_EVENTS = 5000
#: Micro-batches in flight: Spark overlaps planning/fetch of the next
#: trigger with execution of the current one.
SPARK_INFLIGHT_TRIGGERS = 2

# Fit: Table 5 Ray 157 ev/s (ONNX) / 122 ev/s (Ray Serve) at mp=1.
RAY_PROFILE = SpsProfile(
    name="ray",
    source_overhead=0.300 * MS,
    score_overhead=0.100 * MS,
    sink_overhead=0.100 * MS,
)
#: Per-message actor mailbox/scheduling overhead (Python).
RAY_ACTOR_OVERHEAD = 6.0 * MS
#: Node-wide serialized scheduling cost per message: caps the whole node
#: at ~1.28k msg/s through the scoring stage (Fig. 11: Ray peaks at 1.2k).
RAY_NODE_PER_MESSAGE = 0.78 * MS
#: Ray Serve deploys ONE HTTP proxy per node; every request pays this on
#: the proxy before reaching a replica (Fig. 11: external peak 455 ev/s).
RAY_SERVE_PROXY_COST = 2.2 * MS

# ---------------------------------------------------------------------------
# Hosts (paper §4.2)
# ---------------------------------------------------------------------------

#: vCPUs of the data-processor VM.
SPS_HOST_CORES = 60
#: vCPUs of the external-serving VM.
SERVING_HOST_CORES = 16
#: Producer-side cost to generate one data point's values.
GENERATOR_PER_VALUE = 0.00002 * MS
