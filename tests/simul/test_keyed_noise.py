"""Keyed noise is bit-for-bit the per-draw SeedSequence construction.

``RandomStreams.keyed_lognormal_factor`` caches the SeedSequence pool
mixed from every entropy word but the key's, and replays numpy's
remaining steps in integer arithmetic. The oracle below is the
construction it replaced, written out: two ``SeedSequence`` objects and a
fresh ``Generator`` per draw. The factors must be equal floats, not close.
"""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simul.rng import RandomStreams


def _oracle(seed: int, name: str, sigma: float, key: int) -> float:
    if sigma <= 0:
        return 1.0
    child = np.random.SeedSequence(
        entropy=np.random.SeedSequence(seed).entropy,
        spawn_key=(
            zlib.crc32(f"{name}.keyed".encode("utf-8")),
            zlib.crc32(str(int(key)).encode("utf-8")),
        ),
    )
    return float(np.random.default_rng(child).lognormal(mean=0.0, sigma=sigma))


# Seed word counts from 1 to 7: short seeds are padded to the pool size,
# long ones add entropy words past it.
seeds = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64, 2**128 - 1, 2**128, 2**200]),
    st.integers(min_value=0, max_value=2**200),
)
names = st.one_of(
    st.sampled_from(["serving.onnx", "serving.tf_serving", "x", ""]),
    st.text(max_size=16),
)
keys = st.one_of(
    st.sampled_from([0, -1, 1, 2**64, 2**64 + 1, -(2**64)]),
    st.integers(min_value=-(2**80), max_value=2**80),
)
sigmas = st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=3.0))


@settings(max_examples=300, deadline=None)
@given(seed=seeds, name=names, key=keys, sigma=sigmas)
def test_keyed_factor_equals_seed_sequence_construction(seed, name, key, sigma):
    streams = RandomStreams(seed)
    assert streams.keyed_lognormal_factor(name, sigma, key) == _oracle(
        seed, name, sigma, key
    )


@settings(max_examples=50, deadline=None)
@given(
    seed=seeds,
    name=names,
    draws=st.lists(st.tuples(keys, sigmas), min_size=2, max_size=20),
)
def test_cached_prefix_serves_every_later_draw(seed, name, draws):
    streams = RandomStreams(seed)
    got = [streams.keyed_lognormal_factor(name, sigma, key) for key, sigma in draws]
    assert got == [_oracle(seed, name, sigma, key) for key, sigma in draws]


def test_names_do_not_share_a_prefix():
    streams = RandomStreams(3)
    for key in range(5):
        for name in ("serving.onnx", "serving.dl4j"):
            assert streams.keyed_lognormal_factor(name, 0.4, key) == _oracle(
                3, name, 0.4, key
            )


@pytest.mark.parametrize("sigma", [0.0, -0.5])
def test_non_positive_sigma_returns_exactly_one(sigma):
    assert RandomStreams(1).keyed_lognormal_factor("serving.onnx", sigma, 42) == 1.0


def test_sequential_and_keyed_draws_leave_each_other_unchanged():
    alone = RandomStreams(7)
    sequential = [
        float(alone.stream("serving.onnx").lognormal(0.0, 0.2)) for __ in range(10)
    ]
    mixed = RandomStreams(7)
    interleaved, keyed = [], []
    for key in range(10):
        keyed.append(mixed.keyed_lognormal_factor("serving.onnx", 0.2, key))
        interleaved.append(float(mixed.stream("serving.onnx").lognormal(0.0, 0.2)))
    assert interleaved == sequential
    assert keyed == [_oracle(7, "serving.onnx", 0.2, key) for key in range(10)]


def test_negative_seed_is_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        RandomStreams(-1)
