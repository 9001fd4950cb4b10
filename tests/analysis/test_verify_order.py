"""Schedule-perturbation proof harness: tie-order independence per engine."""

import dataclasses

import pytest

from repro.analysis.order import verify_engine_order, verify_order
from repro.cluster.spec import ClusterSpec
from repro.config import SPS_NAMES, ExperimentConfig

SMALL = ExperimentConfig(
    sps="flink", serving="onnx", model="ffnn", ir=30.0, duration=0.6
)


@pytest.mark.parametrize("sps", SPS_NAMES)
def test_engine_order_independent(sps):
    """Seeded permutations of tie-class pop order must not move a single
    export byte."""
    verdict = verify_engine_order(dataclasses.replace(SMALL, sps=sps), permutations=2)
    assert verdict.identical, f"{sps} order-dependent: {verdict.mismatched}"
    assert [p.seed for p in verdict.permutations] == [None, 1, 2]
    assert verdict.tie_accesses is None  # the tracker reruns only on a diff


def test_clustered_two_nodes_order_independent():
    config = dataclasses.replace(
        SMALL,
        sps="kafka_streams",
        duration=0.5,
        cluster=ClusterSpec(nodes=2),
        use_broker=True,
        partitions=32,
    )
    verdict = verify_engine_order(config, permutations=2)
    assert verdict.identical, f"clustered mismatch: {verdict.mismatched}"


def test_verify_order_covers_requested_engines():
    verdicts = verify_order(
        dataclasses.replace(SMALL, duration=0.4),
        engines=("flink", "ray"),
        permutations=1,
    )
    assert [v.sps for v in verdicts] == ["flink", "ray"]
    assert all(v.identical for v in verdicts)


def test_verdict_reports_baseline_digests():
    verdict = verify_engine_order(dataclasses.replace(SMALL, duration=0.4), permutations=1)
    names = [name for name, __ in verdict.baseline]
    assert "results.json" in names
    assert all(len(digest) == 64 for __, digest in verdict.baseline)


def test_negative_permutations_rejected():
    with pytest.raises(ValueError):
        verify_engine_order(SMALL, permutations=-1)


def test_mismatch_is_detectable():
    """The proof must be falsifiable: comparing against a different-seed
    run's artifacts must NOT come out identical."""
    from repro.analysis.order import run_fingerprints

    first = run_fingerprints(dataclasses.replace(SMALL, duration=0.4))
    second = run_fingerprints(dataclasses.replace(SMALL, duration=0.4, seed=3))
    assert first["results.json"] != second["results.json"]


def test_known_load_hazard_is_diagnosed():
    """Pins a known tie-order hazard at load (docs/ordering.md): Ray's
    per-node scheduler slot is requested by two scoring actors in one
    tie class. The permutation moves the published results, and the
    tracker's rerun names the request site. Fixing it moves exported
    bits, so it needs its own change that re-blesses the goldens.

    Which permutation seeds expose the hazard depends on the tie pools,
    so a kernel change that adds or removes a same-time event anywhere
    before it re-draws them (seeds 2, 6 and 8-10 of 1-10 move
    ``results.json`` today). The check asks only that some seed of ten
    moves it, so such a change needs no re-pin."""
    config = ExperimentConfig(
        sps="ray", serving="tf_serving", model="ffnn", mp=2, ir=500.0, duration=0.5
    )
    verdict = verify_engine_order(config, permutations=10)
    assert verdict.reproducible
    assert any("results.json" in perm.mismatched for perm in verdict.permutations[1:])
    assert verdict.tie_accesses
    sites = {
        str(site.path).replace("\\", "/")
        for conflict in verdict.conflicts
        for site in (conflict.site_a, conflict.site_b)
    }
    assert any(path.endswith("sps/ray_actors/engine.py") for path in sites), sites
