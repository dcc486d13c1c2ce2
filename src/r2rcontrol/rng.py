"""Seed derivation for reproducible, parallel-safe random streams.

Streams are built on the counter-based Philox generator.  A replication
stream is derived from (master_seed, replication_index, stage_tag), so
replications can run in any order or on any thread and still draw the
same numbers.
"""

from __future__ import annotations

import zlib

import numpy as np


def _tag_to_int(tag: str) -> int:
    return zlib.crc32(tag.encode("utf-8"))


def _entropy_words(*values) -> np.ndarray:
    """The uint32 words ``SeedSequence`` makes from the tuple of ``int(value)``s, built directly.

    numpy splits each int into 32-bit words, least significant first, and
    makes 0 one word; a ``uint32`` array is taken as it stands, so the
    sequence is the same and numpy's per-int coercion is skipped.
    """
    words = []
    for v in map(int, values):
        if v < 0:
            raise ValueError("expected non-negative integer")
        words.append(v & 0xFFFFFFFF)
        while v := v >> 32:
            words.append(v & 0xFFFFFFFF)
    return np.array(words, dtype=np.uint32)


def derive_seed_sequence(master_seed: int, *, replication: int = 0, tag: str = "") -> np.random.SeedSequence:
    """Seed sequence keyed by (master_seed, replication, tag)."""
    return np.random.SeedSequence(_entropy_words(master_seed, replication, _tag_to_int(tag)))


def make_rng(master_seed: int, *, replication: int = 0, tag: str = "") -> np.random.Generator:
    """Philox generator for one replication/stage stream."""
    ss = derive_seed_sequence(master_seed, replication=replication, tag=tag)
    return np.random.Generator(np.random.Philox(ss))


def derive_int_seed(master_seed: int, *, replication: int = 0, tag: str = "", index: int = 0) -> int:
    """Stable 63-bit integer seed keyed by (master_seed, replication, tag, index)."""
    ss = np.random.SeedSequence(_entropy_words(master_seed, replication, _tag_to_int(tag), index))
    return int(ss.generate_state(1, dtype=np.uint64)[0] >> 1)
