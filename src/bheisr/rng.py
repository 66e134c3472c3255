"""Deterministic random stream derivation.

Every stochastic component draws from its own named substream derived from the
run seed, so adding users, steps, or components never perturbs the draws of
existing ones.
"""

import hashlib
from functools import lru_cache

import numpy as np


def stable_hash(text: str) -> int:
    """Process-independent 128-bit integer digest of a string."""
    return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:16], "big")


@lru_cache(maxsize=4096)
def _words(part) -> tuple:
    """The uint32 words SeedSequence takes from one part: the part's
    integer in 32-bit words, least significant first, and 0 as one word."""
    n = stable_hash(part) if isinstance(part, str) else int(part)
    if n < 0:
        raise ValueError("expected non-negative integer")
    words = [n & 0xFFFFFFFF]
    while n > 0xFFFFFFFF:
        n >>= 32
        words.append(n & 0xFFFFFFFF)
    return tuple(words)


def substream(*parts) -> np.random.Generator:
    """Generator keyed by a tuple of ints and strings.

    Strings are hashed with sha256 (not Python's salted hash), ints pass
    through, so streams are reproducible across processes and platforms.
    The entropy is the parts' uint32 words, the array SeedSequence would
    make of the list of their integers.
    """
    words = [w for part in parts for w in _words(part)]
    return np.random.default_rng(np.random.SeedSequence(np.array(words, np.uint32)))
