"""Trace exports are pinned byte for byte.

Every artifact a traced run exports — the Chrome ``trace_event`` JSON,
the span CSV, the breakdown table, the bottleneck ranking and, for
clustered runs, the per-node breakdown — is hashed (sha256) and compared
with a committed digest. A change to how spans are stored or queried
must leave every digest as it is; a change that means to alter an export
updates the digests here and says why.

To print the current digests (e.g. after a deliberate export change)::

    PYTHONPATH=src python tests/tracing/test_export_golden.py

Span ids come from one counter shared by every trace, so a change that
reorders work across records (not within one) renumbers them and moves
the ``csv`` digest alone. :data:`ID_FREE_CSV` pins each case's span CSV
with its ids replaced by their rank within the trace: a ``csv`` digest
may be re-blessed only while that one stays equal.
"""

from __future__ import annotations

import csv
import hashlib
import io
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


def _traced_run(case: str):
    fields, trace = CASES[case]
    return ExperimentRunner(ExperimentConfig(**fields)).run(trace=trace).trace


def _span_csv(tracer) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "spans.csv")
        save_spans_csv(tracer, path)
        with open(path, newline="") as handle:
            return handle.read()


def rank_span_ids(csv_text: str) -> str:
    """The span CSV with ``span_id`` and ``parent_id`` replaced by their
    rank among the ids the trace's rows mention (1 = lowest)."""
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    ids: dict[str, set[int]] = {}
    for row in rows:
        mentioned = ids.setdefault(row["trace_id"], set())
        mentioned.add(int(row["span_id"]))
        if row["parent_id"]:
            mentioned.add(int(row["parent_id"]))
    ranks = {
        trace: {span: rank for rank, span in enumerate(sorted(spans), 1)}
        for trace, spans in ids.items()
    }
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    for row in rows:
        rank = ranks[row["trace_id"]]
        row["span_id"] = rank[int(row["span_id"])]
        if row["parent_id"]:
            row["parent_id"] = rank[int(row["parent_id"])]
        writer.writerow(row.values())
    return out.getvalue()


def id_free_csv_digest(case: str) -> str:
    return _sha(rank_span_ids(_span_csv(_traced_run(case))))


def export_digests(case: str) -> dict[str, str]:
    """sha256 of every export of one traced run."""
    fields, __ = CASES[case]
    tracer = _traced_run(case)
    digests = {
        "chrome": _sha(json.dumps(chrome_trace(tracer), sort_keys=True)),
        "csv": _sha(_span_csv(tracer)),
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
        "csv": "51a2158e9dac580d2dddf117061db32d56483099a4c880104c10358d7947b3fc",
        "breakdown": "f241d50990f98d50ddda9e0a3d72ebe9b051a068005f8ae6fa5b563a2bbe369e",
        "ranking": "128d3c62220c672aa6f2cb5cbdbf95a19b368d30996ce0534f32bc0870ae4802",
        "nodes": "2bf1f590cb9bed91b564271dd360d70a407653b7644954fba6371858a1c54898",
    },
    "flink-onnx": {
        "chrome": "18211e652780bf6b516ef660ddcf66973a787cbb567c351ca88e919bf1ba054b",
        "csv": "ed00aaa3153e3b04565327c57f6bbfacdf814d3883a80ca18f351e436be54655",
        "breakdown": "2148777509e0c5d5e07a27e704568fde25cc4773d449c6b50f69dfa9f343355d",
        "ranking": "22679f6cc22f438fd3774a0006037dd6e7f00d855f1ada469647652850ad7a60",
    },
    "flink-tf_serving": {
        "chrome": "6acbe3994f4d9ed4db3f779378e9dda280de5fff83b0fbe1deba0a2a53084b34",
        "csv": "4eca16964499ce551f5d869e6b8707f2660c36a20459aacf29d2167efd424f40",
        "breakdown": "d15f941217e85fa5f2562f37e852ffea1f3bddffb834753c5c1c4ce49726ad5d",
        "ranking": "fecf473ac009a2932a37a33ce05db217f5c10bcdbe7f3e24f607409cab5d0ffd",
    },
    "kafka_streams-onnx": {
        "chrome": "cfdb97bba40624a086b73bd7d1677ca4055f9f11d375ff7f0228425f1443da0b",
        "csv": "b229f8ad8665959bf87c62595670680e61941f7e5309dae3927c4eec312cd272",
        "breakdown": "b05f77e27c955f677fbc1e23d7b8336f4da57cea50394bd7a28c0dd10885368b",
        "ranking": "941d65157bbb5b75d0d69ff7d81eabe420d67607d5b89c5a78dd876e87cc2222",
    },
    "kafka_streams-tf_serving": {
        "chrome": "7700ba38e128c71ff9f066927e1d0440ea06124c75ebb0417c1ae87d2e5b55f6",
        "csv": "9ceabad2e7887bac40c653e9b75f5554e50aee11ffb49f4ef72f28b473701305",
        "breakdown": "3b4bcfd5fb07b01a27ab29af44a6142d65ddc56e7e00ef4c8cb96ddec32a4970",
        "ranking": "e8e8b0b93cf3d578695f09cb6454eab6e85038889c186e793c231e3eb4186012",
    },
    "ray-onnx": {
        "chrome": "c30f2575c49f3730d45f14eda9e0575ae8cddbddfe18578fef3cf39ed0b33d2a",
        "csv": "43ef2db8257fc5d7a51b97d236436dbbc815976d9c9bb1e011bbcb2f0fa485bc",
        "breakdown": "009899b03d3825d2ced14175b8ddd1336d791172cf6622a1764ecda4f719e62a",
        "ranking": "ed3beecf63b2d7f1748ffd7510a886b64004cc1b71e5599f8145f9fe527e9d52",
    },
    "ray-tf_serving": {
        "chrome": "6d3a91dfcd80e3850389e2dee2fa604f3fca43e17ef05509e70f02fef22eab2a",
        "csv": "0484b7e945e9af72252b0a586c94d10aab9841c23d363369dacc5bf5284f73fc",
        "breakdown": "a39b16afcd126a17b7b8fc9c85f03c721dd87b975730d7f76cc10db91e47bba1",
        "ranking": "a3ac0093a36d06d2be6ba4b1cfebd124ac0082033eba2e48ff85229406746f51",
    },
    "sampled": {
        "chrome": "fcc5d5986f5d78b2ba46bab0ee7975e742b28ad557d6948bd0e0eac619efa0a4",
        "csv": "1a4bacab0d6ecda44d0c475107b4c9626ae19ce52cbfdeca52846dde989d9d29",
        "breakdown": "e4dcbabb54b84556bab9b652105dbe885a07ee643322ea47d686eaa5886ec594",
        "ranking": "bc76002c8550d620646245ba5b302163ecfabbab6cef87eb37158638efcf39e8",
    },
    "server-crash": {
        "chrome": "40d63bf64b2faedc73dea6cb85ddaa30867c722a9f75908c0d4951ff6847af09",
        "csv": "6bc115ba3c232c276f7c218ccb6e21f1bd8e1680e4fdbbb4bde2f2c019961dda",
        "breakdown": "b3b278b07b63fc6eb66a166ab8dfa2ebcec0e616acc26cf878915a0e7203cc1e",
        "ranking": "e08f3cec22853d76529af291c612a50b13ba1b2bcb5ecc28779e11d7324ea9f0",
    },
    "spark_ss-onnx": {
        "chrome": "893210866991e01dc27f8d33e4dc6c92c22f94afe0a9f7ad02611b2c9455fd13",
        "csv": "5f5f9865c9caf0585c485a0978f3ec3dd1a12a25ae9201bd21d9fd06545e30b5",
        "breakdown": "1682070bbe8bc2bc3fe5ce7c06a1f00cab98f87f8db8396a56584d9db3a493e1",
        "ranking": "e64d548dd39a9948daf4c625aed17db9908ef412dae3fda560d612d7618bf162",
    },
    "spark_ss-tf_serving": {
        "chrome": "32ef005cc7809c07aa6616b057bb980d39ae80a987b30c93e1f2da17a308f924",
        "csv": "e3cb78e87b742e2c650304a1bce4bfaef61c36cc95a2f731091c4552199c4621",
        "breakdown": "a42605b6baa894e1522ba2a0155c91a8c07a60f0b3bacc0c45dbc7fe441e4f2d",
        "ranking": "8f12fd009c5577612c1c57b568cf488dd267298a032ae3221bb497e9ca086fc4",
    },
}


#: sha256 of each case's span CSV under :func:`rank_span_ids`.
ID_FREE_CSV: dict[str, str] = {
    "cluster-3n": "f6830d3d9c382713f4e3afab3f687a26f853e910183cee0bd32ab56607a84393",
    "flink-onnx": "b8c25c1c6760bd3d040f828798bd23e6cedee5120016021c57bd5cf6f0d116a3",
    "flink-tf_serving": "0aba5d605cad2c68190d5021cdffcb317705b5f999cd143a709bb695d6e97a11",
    "kafka_streams-onnx": "9accc156e116e7b73dfa76d4fa84732961d21e619e03c89791cddaf0d432e3c9",
    "kafka_streams-tf_serving": "cf445e3ad72913d53c753337cfeb82f938de693d91bb7c50095c058a9be7bc9f",
    "ray-onnx": "ca2baac95928c4ae49e80983d6fa58c2bfaa77504125e27ab7b4cd897fe618eb",
    "ray-tf_serving": "8cb2395aed3343ca12ae0cd1b1acb14f8f0188d1b7f3628e7e77492d918212d5",
    "sampled": "3174b70981ad2775dadc09287ebacbf10831c975ce9fccf006562bd1274b6d80",
    "server-crash": "f2ad349f473045bf4151a5928b6fce92d7a153a7a6339b7b9f0f261f1524943a",
    "spark_ss-onnx": "916199885a1d4e568d6f904442fb6c1d15d295c4c3ef3b948d52e19c788ec233",
    "spark_ss-tf_serving": "6f1184ab1ec0fb46ec8858c3b060259d19230372b14156dd50a78c7938f541b8",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_exports_byte_identical(case):
    assert export_digests(case) == GOLDEN[case]


@pytest.mark.parametrize("case", sorted(CASES))
def test_span_csv_identical_up_to_span_ids(case):
    assert id_free_csv_digest(case) == ID_FREE_CSV[case]


def test_rank_span_ids_keeps_order_within_each_trace():
    text = (
        "trace_id,span_id,parent_id,name,start,end,duration\n"
        "1,3,,a,0,1,1\n"
        "1,9,3,b,0,1,1\n"
        "2,5,,c,0,1,1\n"
        "2,7,4,d,0,1,1\n"
    )
    assert rank_span_ids(text) == (
        "1,1,,a,0,1,1\n1,2,1,b,0,1,1\n2,2,,c,0,1,1\n2,3,1,d,0,1,1\n"
    )


if __name__ == "__main__":
    print(json.dumps({case: export_digests(case) for case in sorted(CASES)}, indent=4))
    print(json.dumps({case: id_free_csv_digest(case) for case in sorted(CASES)}, indent=4))
