import numpy as np
import pytest

from radarml.seeding import _PCG64State, derive_seed, make_rng, make_rngs, seed_sequence


def test_same_args_same_stream():
    a = make_rng(7, 1, 2).integers(0, 2**32, 16)
    b = make_rng(7, 1, 2).integers(0, 2**32, 16)
    np.testing.assert_array_equal(a, b)


def test_key_changes_stream():
    base = make_rng(7, 1, 2).integers(0, 2**32, 16)
    for args in [(7, 1, 3), (7, 2, 2), (8, 1, 2), (7, 1), (7, 1, 2, 0)]:
        assert not np.array_equal(make_rng(*args).integers(0, 2**32, 16), base)


def test_derive_seed_deterministic_uint64():
    s = derive_seed(0, 301, 5)
    assert s == derive_seed(0, 301, 5)
    assert 0 <= s < 2**64
    assert s != derive_seed(0, 301, 6)


def test_spawned_children_differ_from_parent():
    parent = seed_sequence(3)
    kids = parent.spawn(4)
    states = [tuple(k.generate_state(2)) for k in kids]
    assert len(set(states)) == 4
    assert tuple(seed_sequence(3).generate_state(2)) not in states


class TestMakeRngs:
    """``make_rngs`` runs SeedSequence's hash as array arithmetic; each of
    its streams must be the one numpy's own SeedSequence seeds."""

    # seeds of 1 to 5 uint32 words, so the pool is zero-padded or overflows
    SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**128 + 1]
    KEYS = [0, 1, *range(7, 5000, 977), 2**32 - 1]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_streams_equal_make_rng(self, seed):
        rngs = make_rngs(seed, self.KEYS)
        assert len(rngs) == len(self.KEYS)
        for key, rng in zip(self.KEYS, rngs):
            want = make_rng(seed, key)
            assert rng.random(5).tobytes() == want.random(5).tobytes()
            assert rng.standard_normal(9).tobytes() == want.standard_normal(9).tobytes()

    def test_streams_equal_spawned_children(self):
        # synthesis draws example i from the i-th child of seed_sequence(seed)
        children = seed_sequence(2**63 + 5).spawn(40)
        for rng, child in zip(make_rngs(2**63 + 5, range(40)), children):
            want = np.random.Generator(np.random.PCG64(child))
            assert rng.standard_normal(6).tobytes() == want.standard_normal(6).tobytes()

    def test_no_keys_no_streams(self):
        assert make_rngs(3, []) == []

    @pytest.mark.parametrize("keys", [[2**32], [0, 2**64 - 1], [-1]])
    def test_keys_outside_one_word_rejected(self, keys):
        with pytest.raises(ValueError, match="keys must lie in"):
            make_rngs(3, keys)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            make_rngs(-1, [0])

    @pytest.mark.parametrize("n_words, dtype", [(4, np.uint32), (2, np.uint64), (8, np.uint64), (1, np.uint64)])
    def test_precomputed_state_refuses_other_requests(self, n_words, dtype):
        words = seed_sequence(9, 4).generate_state(4, np.uint64)
        state = _PCG64State(words)
        assert state.generate_state(4, np.uint64) is words
        with pytest.raises(ValueError, match="only the 4 uint64 words"):
            state.generate_state(n_words, dtype)
