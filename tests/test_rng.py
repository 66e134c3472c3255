"""Named random substreams."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bheisr.rng import stable_hash, substream


def seed_sequence_of_ints(*parts) -> np.random.Generator:
    """The stream as SeedSequence makes it of the parts' integers."""
    entropy = [stable_hash(p) if isinstance(p, str) else int(p) for p in parts]
    return np.random.default_rng(np.random.SeedSequence(entropy))


parts = st.one_of(st.text(max_size=12), st.just(0),
                  st.integers(0, 2**32 + 1), st.integers(0, 2**128 - 1))


class TestSubstream:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(parts, min_size=1, max_size=5))
    def test_equals_the_seed_sequence_of_the_parts_integers(self, key):
        ours, reference = substream(*key), seed_sequence_of_ints(*key)
        assert ours.bit_generator.state == reference.bit_generator.state
        assert ours.random(3).tolist() == reference.random(3).tolist()

    def test_word_boundaries_and_zero(self):
        for key in [(0,), (0, 0), (2**32 - 1,), (2**32,), (2**64, "x"),
                    (2**128 - 1, 7, "decide")]:
            assert substream(*key).bit_generator.state == \
                seed_sequence_of_ints(*key).bit_generator.state

    def test_negative_int_raises(self):
        with pytest.raises(ValueError):
            substream(0, -1)
        with pytest.raises(ValueError):
            seed_sequence_of_ints(0, -1)

    def test_parts_are_ordered_and_typed(self):
        a = substream(0, "decide", "u", 1).random()
        assert a == substream(0, "decide", "u", 1).random()
        assert a != substream(0, "u", "decide", 1).random()
        assert a != substream(0, "decide", "u", "1").random()
