"""Trace exports are pinned byte for byte.

Every artifact a traced run exports — the Chrome ``trace_event`` JSON,
the span CSV, the breakdown table, the bottleneck ranking and, for
clustered runs, the per-node breakdown — is hashed (sha256) and compared
with a committed digest. A change to how spans are stored or queried
must leave every digest as it is; a change that means to alter an export
updates the digests here and says why.

To print the current digests (e.g. after a deliberate export change)::

    PYTHONPATH=src python tests/tracing/test_export_golden.py
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

import pytest

from repro.cluster.spec import ClusterSpec
from repro.config import ExperimentConfig
from repro.core.report import format_breakdown
from repro.core.runner import ExperimentRunner
from repro.faults import FaultPlan, ResiliencePolicy, ServerCrash
from repro.tracing.analysis import bottleneck_ranking, node_breakdown
from repro.tracing.export import chrome_trace, save_spans_csv
from repro.tracing.spans import TraceOptions

ENGINES = ("flink", "kafka_streams", "spark_ss", "ray")

BASE = dict(model="ffnn", mp=4, ir=2000.0, duration=0.5, seed=1)


def _cases() -> dict[str, tuple[dict, object]]:
    """Case id -> (config fields, ``trace`` argument of ``run``)."""
    cases = {
        f"{sps}-{serving}": (dict(BASE, sps=sps, serving=serving), True)
        for sps in ENGINES
        for serving in ("onnx", "tf_serving")
    }
    cases["cluster-3n"] = (
        dict(
            BASE, sps="flink", serving="tf_serving", ir=1000.0,
            cluster=ClusterSpec(nodes=3), use_broker=True, partitions=32,
        ),
        True,
    )
    cases["server-crash"] = (
        dict(
            BASE, sps="flink", serving="tf_serving", ir=1000.0, duration=1.0,
            fault_plan=FaultPlan(server_crashes=(ServerCrash(at=0.4, downtime=0.2),)),
            resilience=ResiliencePolicy(timeout=0.05, retries=5),
        ),
        True,
    )
    cases["sampled"] = (
        dict(BASE, sps="flink", serving="onnx"),
        TraceOptions(sample_every=7, max_traces=10),
    )
    return cases


CASES = _cases()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def export_digests(case: str) -> dict[str, str]:
    """sha256 of every export of one traced run."""
    fields, trace = CASES[case]
    result = ExperimentRunner(ExperimentConfig(**fields)).run(trace=trace)
    tracer = result.trace
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spans.csv")
        save_spans_csv(tracer, path)
        with open(path, newline="") as handle:
            csv_text = handle.read()
    digests = {
        "chrome": _sha(json.dumps(chrome_trace(tracer), sort_keys=True)),
        "csv": _sha(csv_text),
        "breakdown": _sha(format_breakdown(tracer)),
        "ranking": _sha(repr(bottleneck_ranking(tracer, top=3))),
    }
    if fields.get("cluster") is not None:
        digests["nodes"] = _sha(repr(node_breakdown(tracer)))
    return digests


#: Expected sha256 per case and export.
GOLDEN: dict[str, dict[str, str]] = {
    "cluster-3n": {
        "chrome": "d61c67555b192e7b4060c4250ecc33f658b3c886d1309e06d56b0cebf8f6b4a7",
        "csv": "bb1eee95e591abccf241946b8d6a54649acfc01c527394f74af78ee5619da7d9",
        "breakdown": "f241d50990f98d50ddda9e0a3d72ebe9b051a068005f8ae6fa5b563a2bbe369e",
        "ranking": "128d3c62220c672aa6f2cb5cbdbf95a19b368d30996ce0534f32bc0870ae4802",
        "nodes": "2bf1f590cb9bed91b564271dd360d70a407653b7644954fba6371858a1c54898",
    },
    "flink-onnx": {
        "chrome": "18211e652780bf6b516ef660ddcf66973a787cbb567c351ca88e919bf1ba054b",
        "csv": "97cce11accf842620f72a84cf6761c545a969bdbddecfe8e27038172fd75a8fe",
        "breakdown": "2148777509e0c5d5e07a27e704568fde25cc4773d449c6b50f69dfa9f343355d",
        "ranking": "22679f6cc22f438fd3774a0006037dd6e7f00d855f1ada469647652850ad7a60",
    },
    "flink-tf_serving": {
        "chrome": "6acbe3994f4d9ed4db3f779378e9dda280de5fff83b0fbe1deba0a2a53084b34",
        "csv": "95e85c36120dac163a6ac12833fd479c8882ed6d618a4671a80a1aa406af4b01",
        "breakdown": "d15f941217e85fa5f2562f37e852ffea1f3bddffb834753c5c1c4ce49726ad5d",
        "ranking": "fecf473ac009a2932a37a33ce05db217f5c10bcdbe7f3e24f607409cab5d0ffd",
    },
    "kafka_streams-onnx": {
        "chrome": "cfdb97bba40624a086b73bd7d1677ca4055f9f11d375ff7f0228425f1443da0b",
        "csv": "2ff6cdb4ab4f7f0ddc4ea83b4a03e4e980e747d4c42c1ead42f7c868ec2e734a",
        "breakdown": "b05f77e27c955f677fbc1e23d7b8336f4da57cea50394bd7a28c0dd10885368b",
        "ranking": "941d65157bbb5b75d0d69ff7d81eabe420d67607d5b89c5a78dd876e87cc2222",
    },
    "kafka_streams-tf_serving": {
        "chrome": "7700ba38e128c71ff9f066927e1d0440ea06124c75ebb0417c1ae87d2e5b55f6",
        "csv": "f4d89cfcba34bcdca6a29e3dee02fdb222f243c6fbbae67155dee802b886e431",
        "breakdown": "3b4bcfd5fb07b01a27ab29af44a6142d65ddc56e7e00ef4c8cb96ddec32a4970",
        "ranking": "e8e8b0b93cf3d578695f09cb6454eab6e85038889c186e793c231e3eb4186012",
    },
    "ray-onnx": {
        "chrome": "c30f2575c49f3730d45f14eda9e0575ae8cddbddfe18578fef3cf39ed0b33d2a",
        "csv": "ca62b53460c51bc3c21d0f8fc66e927380d5595c59a54eade03e1bf85e166e7c",
        "breakdown": "009899b03d3825d2ced14175b8ddd1336d791172cf6622a1764ecda4f719e62a",
        "ranking": "ed3beecf63b2d7f1748ffd7510a886b64004cc1b71e5599f8145f9fe527e9d52",
    },
    "ray-tf_serving": {
        "chrome": "6d3a91dfcd80e3850389e2dee2fa604f3fca43e17ef05509e70f02fef22eab2a",
        "csv": "7d9a187f115918079791a70eae683c043bc7a92c861879dfce61e3af239abb3f",
        "breakdown": "a39b16afcd126a17b7b8fc9c85f03c721dd87b975730d7f76cc10db91e47bba1",
        "ranking": "a3ac0093a36d06d2be6ba4b1cfebd124ac0082033eba2e48ff85229406746f51",
    },
    "sampled": {
        "chrome": "fcc5d5986f5d78b2ba46bab0ee7975e742b28ad557d6948bd0e0eac619efa0a4",
        "csv": "d369096ac9f2c84b3196cd4e3f86411ce183c9b12d859cf71aeb39725a03cc8c",
        "breakdown": "e4dcbabb54b84556bab9b652105dbe885a07ee643322ea47d686eaa5886ec594",
        "ranking": "bc76002c8550d620646245ba5b302163ecfabbab6cef87eb37158638efcf39e8",
    },
    "server-crash": {
        "chrome": "40d63bf64b2faedc73dea6cb85ddaa30867c722a9f75908c0d4951ff6847af09",
        "csv": "788bd64b5f6f2977048bee5b7ebbdf8d3fc6b55a430c3dbda5635fdd28036d64",
        "breakdown": "b3b278b07b63fc6eb66a166ab8dfa2ebcec0e616acc26cf878915a0e7203cc1e",
        "ranking": "e08f3cec22853d76529af291c612a50b13ba1b2bcb5ecc28779e11d7324ea9f0",
    },
    "spark_ss-onnx": {
        "chrome": "893210866991e01dc27f8d33e4dc6c92c22f94afe0a9f7ad02611b2c9455fd13",
        "csv": "208fbc6f82fe7af398a0329b4daceec045b920251240ae52784cd2213d7962f3",
        "breakdown": "1682070bbe8bc2bc3fe5ce7c06a1f00cab98f87f8db8396a56584d9db3a493e1",
        "ranking": "e64d548dd39a9948daf4c625aed17db9908ef412dae3fda560d612d7618bf162",
    },
    "spark_ss-tf_serving": {
        "chrome": "32ef005cc7809c07aa6616b057bb980d39ae80a987b30c93e1f2da17a308f924",
        "csv": "8d2baa495b80c07a9600c4d91a15381408d4755b77067e8592d7400a4f074580",
        "breakdown": "a42605b6baa894e1522ba2a0155c91a8c07a60f0b3bacc0c45dbc7fe441e4f2d",
        "ranking": "8f12fd009c5577612c1c57b568cf488dd267298a032ae3221bb497e9ca086fc4",
    },
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_exports_byte_identical(case):
    assert export_digests(case) == GOLDEN[case]


if __name__ == "__main__":
    print(json.dumps({case: export_digests(case) for case in sorted(CASES)}, indent=4))
