"""Named random substreams."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bheisr.rng import stable_hash, substream, uniforms


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


class TestUniforms:
    def test_equal_generator_random_on_2000_substreams(self):
        # the decision draws' keys, feed sizes 0-16 included
        for n in range(2000):
            key, size = (n % 3, "decide", f"u{n % 50:04d}", n // 50 + 1), n % 17
            assert uniforms(substream(*key).bit_generator, size) == \
                substream(*key).random(size).tolist(), key

    def test_raw_words_of_one_substream_are_pinned(self):
        # decisions rest on PCG64's raw stream, which NEP 19 keeps fixed: a
        # numpy that changed it would change every draw, so it fails here
        raw = substream(0, "decide", "u0000", 1).bit_generator.random_raw(4)
        assert raw.tolist() == [15642918454680764438, 5429001641256645948,
                                8427297500153581884, 2273584072019501556]
