"""Deterministic RNG derivation.

Every random draw in the package flows from a 64-bit seed through numpy
SeedSequence spawning, so a rerun with the same seed reproduces identical
bytes no matter how work is scheduled across processes.

``make_rng(seed, *keys)`` builds one PCG64 stream from
``SeedSequence(seed, spawn_key=keys)``. ``make_rngs(seed, keys)`` builds
the streams of many one-word keys at once, for synthesis, which needs one
stream per example: it runs the same SeedSequence hash (O'Neill's
``seed_seq``, adopted by numpy in NEP 19) as uint32 array arithmetic over
all keys, and hands each key's four state words to PCG64 through numpy's
public ``ISeedSequence`` interface. PCG64 reads nothing from a seed
sequence but those four words, so each stream is ``make_rng(seed, key)``
to the last bit; ``tests/test_seeding.py`` checks this against numpy's own
SeedSequence.
"""

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# numpy's SeedSequence constants: the entropy pool holds four uint32 words,
# hashed with the A constants as entropy goes in and with the B constants
# as state comes out
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
_WORD = 0xFFFFFFFF


def seed_sequence(seed: int, *keys: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in keys))


def make_rng(seed: int, *keys: int) -> np.random.Generator:
    """Fresh PCG64 generator for (seed, keys)."""
    return np.random.Generator(np.random.PCG64(seed_sequence(seed, *keys)))


def derive_seed(seed: int, *keys: int) -> int:
    """Collapse (seed, keys) into a fresh 64-bit seed."""
    return int(seed_sequence(seed, *keys).generate_state(1, dtype=np.uint64)[0])


def _hasher(const: int, mult: int):
    """SeedSequence's ``hashmix`` with its running constant. Words are
    Python ints or uint32 arrays below 2**32; each call hashes them with
    the next constant of the sequence."""

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _WORD
        value = value * const & _WORD
        return value ^ value >> _XSHIFT

    return hashmix


def _mix(x, y):
    value = (_MIX_MULT_L * x & _WORD) - (_MIX_MULT_R * y & _WORD) & _WORD
    return value ^ value >> _XSHIFT


class _PCG64State(ISeedSequence):
    """The ``generate_state(4, uint64)`` words of one SeedSequence, computed
    beforehand: the one request that PCG64 makes of its seed sequence."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("only the 4 uint64 words that seed a PCG64 were computed")
        return self.words


def make_rngs(seed: int, keys) -> list[np.random.Generator]:
    """``[make_rng(seed, k) for k in keys]``, each stream the same to the
    last bit, for keys in [0, 2**32).

    The pool mixing of SeedSequence runs once on the seed's words (zero-
    padded to the pool size) and then per key as uint32 array arithmetic,
    as does the output hash, so only the generators are made one by one.
    The hash costs about 150 us per call at any number of keys (2-vCPU
    Xeon VM), ten times a ``make_rng``, so single streams keep ``make_rng``.
    """
    keys = np.asarray(keys)
    if keys.size and not (keys.min() >= 0 and keys.max() <= _WORD):
        raise ValueError("make_rngs keys must lie in [0, 2**32)")
    seed = int(seed)
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    words = []
    while True:  # the seed's uint32 words, least significant first
        words.append(seed & _WORD)
        seed >>= 32
        if not seed:
            break
    words += [0] * (_POOL_SIZE - len(words))
    words.append(keys.astype(np.uint32))  # a one-word spawn key
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hasher(_INIT_B, _MULT_B)
    state = np.stack([hashmix(pool[i % _POOL_SIZE]) for i in range(8)], axis=1)
    # as SeedSequence assembles uint64 words: little-endian pairs of uint32
    state = state.astype("<u4").view("<u8").astype(np.uint64)
    return [np.random.Generator(np.random.PCG64(_PCG64State(words))) for words in state]
