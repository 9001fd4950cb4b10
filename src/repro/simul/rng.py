"""Seeded, named random streams for reproducible simulations.

Each component draws from its own named stream so adding a new source of
randomness never perturbs the draws of existing components — a standard
variance-reduction discipline for simulation studies.

Keyed noise (:meth:`RandomStreams.keyed_lognormal_factor`) is a pure
function of ``(seed, name, key)``. Its generator is the PCG64 that
``np.random.default_rng`` would build from a child ``SeedSequence`` with
``entropy=seed`` and ``spawn_key=(crc32(name + ".keyed"), crc32(str(key)))``.
Only the last entropy word depends on the key, so the pool mixed from
every earlier word is computed once per name and cached; each draw mixes
in the key word, expands the pool into the PCG64 seed and increment, and
seeds one reused ``Generator`` — all in plain integer arithmetic that
replays numpy's steps exactly, so every draw has the same bits as the
per-draw ``SeedSequence`` construction.
"""

from __future__ import annotations

# crayfish: allow-file[global-random]: this module IS the sanctioned randomness root every other component must route through

import typing
import zlib

import numpy as np

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715

# PCG64's 128-bit LCG (numpy/random/src/pcg64/pcg64.h).
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _words(n: int) -> list[int]:
    """``n`` as little-endian uint32 words, as SeedSequence splits it."""
    if n < 0:
        raise ValueError(f"seed must be a non-negative integer, got {n}")
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _hash_consts(init: int, mult: int, count: int) -> list[tuple[int, int]]:
    """The ``(xor, multiply)`` constant pairs of ``count`` hash steps.

    SeedSequence's hash constant advances identically on every call, so
    the pair each step uses depends only on the step's position.
    """
    pairs = []
    const = init
    for __ in range(count):
        nxt = (const * mult) & _MASK32
        pairs.append((const, nxt))
        const = nxt
    return pairs


def _hashmix(value: int, pair: tuple[int, int]) -> int:
    value = ((value ^ pair[0]) * pair[1]) & _MASK32
    return value ^ (value >> 16)


def _mix(x: int, y: int) -> int:
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> 16)


#: generate_state(4, uint64) reads 8 words with the INIT_B hash chain.
_STATE_CONSTS = _hash_consts(_INIT_B, _MULT_B, 8)


def _keyed_draw(seed_words: list[int], name: str) -> typing.Callable[[int, float], float]:
    """``draw(key_word, sigma)`` for one ``(seed, name)``.

    Mixes every SeedSequence entropy word but the last (the key's crc32)
    once, up front; ``draw`` finishes the sequence for one key word and
    seeds a reused PCG64 ``Generator`` with the state numpy would build.
    """
    # Spawned sequences pad the run entropy to the pool size.
    entropy = seed_words + [0] * (_POOL_SIZE - len(seed_words))
    entropy.append(zlib.crc32(f"{name}.keyed".encode("utf-8")))
    # Hash steps: 4 seeding, 12 cross mixes, then 4 per entropy word past
    # the pool, the key word included.
    extra = len(entropy) - _POOL_SIZE + 1
    consts = iter(_hash_consts(_INIT_A, _MULT_A, 16 + 4 * extra))
    pool = [_hashmix(entropy[i], next(consts)) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], next(consts)))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(word, next(consts)))

    # Per-draw work, unrolled over locals: the key word's hashmix and mix
    # into each pool word (mix's left product is fixed per name), then
    # generate_state's 8 words.
    l0, l1, l2, l3 = (_MIX_MULT_L * word for word in pool)
    (a0, b0), (a1, b1), (a2, b2), (a3, b3) = consts
    (c0, d0), (c1, d1), (c2, d2), (c3, d3), (c4, d4), (c5, d5), (c6, d6), (c7, d7) = (
        _STATE_CONSTS
    )
    m32, mix_r, m128, pcg_mult = _MASK32, _MIX_MULT_R, _MASK128, _PCG_MULT

    generator = np.random.default_rng(0)
    bit_generator = generator.bit_generator
    lognormal = generator.lognormal
    state = {"bit_generator": "PCG64", "state": {}, "has_uint32": 0, "uinteger": 0}
    pcg = state["state"]

    def draw(k: int, sigma: float) -> float:
        v = ((k ^ a0) * b0) & m32
        w0 = (l0 - mix_r * (v ^ (v >> 16))) & m32
        w0 ^= w0 >> 16
        v = ((k ^ a1) * b1) & m32
        w1 = (l1 - mix_r * (v ^ (v >> 16))) & m32
        w1 ^= w1 >> 16
        v = ((k ^ a2) * b2) & m32
        w2 = (l2 - mix_r * (v ^ (v >> 16))) & m32
        w2 ^= w2 >> 16
        v = ((k ^ a3) * b3) & m32
        w3 = (l3 - mix_r * (v ^ (v >> 16))) & m32
        w3 ^= w3 >> 16
        s0 = ((w0 ^ c0) * d0) & m32
        s1 = ((w1 ^ c1) * d1) & m32
        s2 = ((w2 ^ c2) * d2) & m32
        s3 = ((w3 ^ c3) * d3) & m32
        s4 = ((w0 ^ c4) * d4) & m32
        s5 = ((w1 ^ c5) * d5) & m32
        s6 = ((w2 ^ c6) * d6) & m32
        s7 = ((w3 ^ c7) * d7) & m32
        # Little-endian uint32 pairs make uint64 words; PCG64 seeds from
        # (high, low) word pairs, then pcg_setseq_128_srandom_r steps the
        # LCG from 0, adds the seed, and steps again.
        initstate = (
            ((s1 ^ (s1 >> 16)) << 96)
            | ((s0 ^ (s0 >> 16)) << 64)
            | ((s3 ^ (s3 >> 16)) << 32)
            | (s2 ^ (s2 >> 16))
        )
        inc = (
            ((s5 ^ (s5 >> 16)) << 97)
            | ((s4 ^ (s4 >> 16)) << 65)
            | ((s7 ^ (s7 >> 16)) << 33)
            | ((s6 ^ (s6 >> 16)) << 1)
            | 1
        ) & m128
        pcg["state"] = ((inc + initstate) * pcg_mult + inc) & m128
        pcg["inc"] = inc
        bit_generator.state = state
        return float(lognormal(0.0, sigma))

    return draw


class RandomStreams:
    """A family of independent RNG streams derived from one root seed."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._seed_words = _words(self.seed)
        self._streams: dict[str, np.random.Generator] = {}
        self._keyed: dict[str, typing.Callable[[int, float], float]] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the stream called ``name``."""
        if name not in self._streams:
            root = np.random.SeedSequence(self.seed)
            # zlib.crc32 is stable across processes, unlike hash() which
            # is salted by PYTHONHASHSEED.
            child = np.random.SeedSequence(
                entropy=root.entropy,
                spawn_key=(zlib.crc32(name.encode("utf-8")),),
            )
            self._streams[name] = np.random.default_rng(child)
        return self._streams[name]

    def lognormal_factor(self, name: str, sigma: float) -> float:
        """A multiplicative noise factor with median 1.0.

        Used to perturb service times; ``sigma=0`` returns exactly 1.0 so
        deterministic runs stay deterministic.
        """
        if sigma <= 0:
            return 1.0
        return float(self.stream(name).lognormal(mean=0.0, sigma=sigma))

    def keyed_lognormal_factor(self, name: str, sigma: float, key: int) -> float:
        """Content-keyed variant of :meth:`lognormal_factor`.

        The factor is a pure function of ``(seed, name, key)`` instead of
        of how many draws preceded it on the stream. That matters when
        two simulation processes consume one named stream concurrently:
        a sequential stream assigns variates to requests in *pop order*,
        so any event-tie flip silently re-pairs requests with noise — the
        exact hazard class ``crayfish verify-order`` exists to catch.
        Keying by stable content identity (e.g. a batch id) makes the
        assignment schedule-independent.

        ".keyed" separates the keyed namespace from the sequential stream
        of the same name, and the crc32 of the key text sidesteps
        spawn_key's uint32 bound. See the module docstring for how the
        per-name prefix keeps the bits of the per-draw construction.
        """
        if sigma <= 0:
            return 1.0
        draw = self._keyed.get(name)
        if draw is None:
            draw = self._keyed[name] = _keyed_draw(self._seed_words, name)
        return draw(zlib.crc32(str(int(key)).encode("utf-8")), sigma)
