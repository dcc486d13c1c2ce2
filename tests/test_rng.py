"""Seed derivation builds numpy's own entropy words, so every stream keeps its bits."""

import numpy as np
import pytest

from r2rcontrol.rng import _entropy_words, _tag_to_int, derive_int_seed, derive_seed_sequence, make_rng

# 0, and either side of the one-word/two-word (2**32) and 63/64-bit boundaries
VALUES = (0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**63 - 1, 2**63, 2**64 - 1, 2**64, 20260826)


@pytest.mark.parametrize("a", VALUES)
def test_entropy_words_equal_numpy_coercion(a):
    for b, c in ((0, 0), (a, 7), (2**32, 2**63 - 1), (5, 0)):
        words = _entropy_words(a, b, c)
        assert words.dtype == np.uint32
        want = np.random.SeedSequence((a, b, c))
        got = np.random.SeedSequence(words)
        np.testing.assert_array_equal(got.generate_state(8), want.generate_state(8))
        np.testing.assert_array_equal(got.generate_state(4, dtype=np.uint64), want.generate_state(4, dtype=np.uint64))


def test_entropy_words_split_least_significant_word_first():
    assert _entropy_words(0).tolist() == [0]
    assert _entropy_words(2**32).tolist() == [0, 1]
    assert _entropy_words(2**63 + 5, 0, 2**32 - 1).tolist() == [5, 2**31, 0, 2**32 - 1]


@pytest.mark.parametrize("a", VALUES)
def test_streams_equal_those_from_int_tuples(a):
    tag = "path"
    want = np.random.SeedSequence((a, 3, _tag_to_int(tag)))
    np.testing.assert_array_equal(derive_seed_sequence(a, replication=3, tag=tag).generate_state(8),
                                  want.generate_state(8))
    np.testing.assert_array_equal(make_rng(a, replication=3, tag=tag).random(16),
                                  np.random.Generator(np.random.Philox(want)).random(16))
    four = np.random.SeedSequence((a, 3, _tag_to_int(tag), 2**32 + 2))
    assert derive_int_seed(a, replication=3, tag=tag, index=2**32 + 2) == int(
        four.generate_state(1, dtype=np.uint64)[0] >> 1)


def test_negative_value_is_rejected_as_numpy_rejects_it():
    with pytest.raises(ValueError, match="expected non-negative integer"):
        np.random.SeedSequence((1, -2, 3))
    with pytest.raises(ValueError, match="expected non-negative integer"):
        make_rng(1, replication=-2)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        derive_int_seed(-1)
