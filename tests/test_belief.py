"""Belief networks: entropy over globally normalized click probabilities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bheisr.belief import (
    BeliefNetwork,
    build_all,
)
from bheisr.corpus import (
    ORIGIN_GENERATED,
    Item,
    generated_subcategory,
)
from bheisr.folds import fold_sum
from oracle import click_probs, corpus_of, entropy_bits


class TestEntropyBits:
    def test_known_values(self):
        assert entropy_bits([1.0]) == 0.0
        assert entropy_bits([0.5, 0.5]) == pytest.approx(1.0, abs=1e-12)
        assert entropy_bits([0.25] * 4) == pytest.approx(2.0, abs=1e-12)

    def test_zero_terms_contribute_nothing(self):
        assert entropy_bits([0.5, 0.5, 0.0, 0.0]) == pytest.approx(1.0, abs=1e-12)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            entropy_bits([0.5, -0.1])

    def test_matches_direct_sum_on_random_distributions(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            p = rng.dirichlet(np.ones(rng.integers(2, 12)))
            expect = -sum(x * math.log2(x) for x in p if x > 0)
            assert entropy_bits(p) == pytest.approx(expect, abs=1e-12)


TINY_ROWS = [
    ("u", "i1", 0, 1.0),
    ("u", "i2", 1, 1.0),
    ("u", "i1", 2, 1.0),
    ("u", "i3", 3, 1.0),
    ("u", "i3", 4, 0.0),   # not interested, must be ignored
]


def tiny_corpus(rows=TINY_ROWS):
    """Two categories; user u clicks a/s1 twice, a/s2 once, b/s1 once."""
    items = {
        "i1": Item("i1", "a", "a/s1", "t1", "", {"a": 1.0}),
        "i2": Item("i2", "a", "a/s2", "t2", "", {"a": 1.0}),
        "i3": Item("i3", "b", "b/s1", "t3", "", {"b": 1.0}),
    }
    return corpus_of(items, rows,
                     taxonomy={"a": ("a/s1", "a/s2"), "b": ("b/s1",)},
                     users=("u", "v"))


class TestGlobalNormalization:
    def test_hand_computed_beliefs(self):
        network = build_all(tiny_corpus())["u"]
        # probs over all touched subcats: a/s1=0.5, a/s2=0.25, b/s1=0.25
        assert click_probs(network) == pytest.approx(
            {"a/s1": 0.5, "a/s2": 0.25, "b/s1": 0.25})
        assert network.belief["a"] == pytest.approx(
            -(0.5 * math.log2(0.5) + 0.25 * math.log2(0.25)))
        assert network.belief["b"] == pytest.approx(
            -0.25 * math.log2(0.25))

    def test_category_beliefs_sum_to_total_entropy(self):
        network = build_all(tiny_corpus())["u"]
        total = entropy_bits(list(click_probs(network).values()))
        assert sum(network.belief.values()) == pytest.approx(total, abs=1e-12)

    def test_scaling_all_counts_leaves_beliefs_unchanged(self):
        network = build_all(tiny_corpus())["u"]
        before = dict(network.belief)
        network.click_counts = {s: 7 * c for s, c in network.click_counts.items()}
        network.recompute()
        assert network.belief == pytest.approx(before, abs=1e-12)

    def test_untouched_category_has_zero_belief(self):
        corpus = tiny_corpus(TINY_ROWS[:3])   # only category a
        network = build_all(corpus)["u"]
        assert network.belief["b"] == 0.0
        assert network.positive_category_count() == 1

    def test_empty_history_gives_zero_everywhere(self):
        network = build_all(tiny_corpus())["v"]
        assert network.total_mass() == 0.0
        assert network.belief == {"a": 0.0, "b": 0.0}
        assert click_probs(network) == {}


class TestHistorySeeding:
    def test_accepted_follows_timestamp_order(self):
        corpus = tiny_corpus(list(reversed(TINY_ROWS)))
        network = build_all(corpus)["u"]
        assert network.accepted == ["i1", "i2", "i1", "i3"]

    def test_uninterested_rows_excluded(self):
        network = build_all(tiny_corpus())["u"]
        assert network.click_counts["b/s1"] == 1.0


def generated_item(id, weights):
    cats = sorted(weights)
    return Item(id=id, category=cats[0], subcategory=f"{cats[0]}/generated",
                title="gi", abstract="", category_weights=weights,
                origin=ORIGIN_GENERATED)


class TestFeedback:
    def test_accept_dataset_item_adds_unit_mass(self):
        corpus = tiny_corpus()
        network = build_all(corpus)["u"]
        network.update_on_feedback(corpus.items["i2"])
        assert network.click_counts["a/s2"] == 2.0
        assert network.accepted[-1] == "i2"

    def test_accept_generated_item_routes_to_synthetic_subcat(self):
        network = build_all(tiny_corpus())["u"]
        network.update_on_feedback(generated_item("g1", {"a": 0.5, "b": 0.5}))
        assert network.click_counts["a/generated"] == 0.5
        assert network.click_counts["b/generated"] == 0.5
        assert network.subcat_to_cat["b/generated"] == "b"

    def test_generated_mass_shifts_belief_toward_spanned_category(self):
        network = build_all(tiny_corpus())["u"]
        before = network.belief["b"]
        network.update_on_feedback(generated_item("g1", {"b": 1.0}))
        assert network.belief["b"] > before

    def test_zero_weight_on_another_category_credits_nothing_there(self):
        # a zero weight credits no mass, so it binds no subcategory: the
        # item's own subcategory is not rebound to the other category
        network = build_all(tiny_corpus())["u"]
        item = Item("i4", "a", "a/s2", "t4", "", {"a": 1.0, "b": 0.0})
        network.update_on_feedback(item)
        assert network.click_counts["a/s2"] == 2.0
        assert network.subcat_to_cat["a/s2"] == "a"


class TestIncrementalConsistency:
    def test_feedback_stream_matches_scratch_recompute(self):
        rng = np.random.default_rng(3)
        corpus = tiny_corpus()
        network = build_all(corpus)["u"]
        for n in range(60):
            if rng.random() < 0.5:
                item = corpus.items[["i1", "i2", "i3"][rng.integers(3)]]
            else:
                cat = ["a", "b"][rng.integers(2)]
                item = generated_item(f"g{n}", {cat: 1.0})
            network.update_on_feedback(item)
        scratch = BeliefNetwork(user_id="u", categories=network.categories,
                                subcat_to_cat=dict(network.subcat_to_cat),
                                click_counts=dict(network.click_counts))
        scratch.recompute()
        for cat in network.categories:
            assert network.belief[cat] == pytest.approx(
                scratch.belief[cat], abs=1e-12)
        assert network.positive_category_count() == sum(
            1 for m in network.mass_by_category().values() if m > 0.0)



# an accept of a corpus item or of a generated item with these weights, or
# a read of the beliefs or of the positive-category count
feedback_ops = st.lists(st.one_of(
    st.tuples(st.just("corpus"), st.sampled_from(["i1", "i2", "i3"])),
    st.tuples(st.just("generated"), st.sampled_from([
        {"a": 1.0}, {"b": 1.0}, {"a": 0.5, "b": 0.5}, {"a": 1.0, "b": 0.0}])),
    st.tuples(st.just("read"), st.sampled_from(["belief", "positive"]))),
    max_size=25)


def assert_beliefs_match_scratch(network):
    scratch = BeliefNetwork(user_id=network.user_id,
                            categories=network.categories,
                            subcat_to_cat=dict(network.subcat_to_cat),
                            click_counts=dict(network.click_counts))
    scratch.recompute()
    # == on every belief, in category order
    assert list(network.belief.items()) == list(scratch.belief.items())


def assert_positive_count_matches_its_definition(network):
    assert network.positive_category_count() == len(
        {network.subcat_to_cat[s] for s, c in network.click_counts.items()
         if c > 0.0})


class TestLazyBelief:
    @settings(max_examples=200, deadline=None)
    @given(user=st.sampled_from(["u", "v"]), ops=feedback_ops)
    def test_any_interleaving_reads_a_scratch_recompute(self, user, ops):
        """Accepts mark the beliefs stale and extend the positive
        categories; whatever reads come between them, the beliefs read
        equal a from-scratch recompute of the same click counts, and the
        count equals the set definition."""
        corpus = tiny_corpus()
        network = build_all(corpus)[user]
        for n, (op, arg) in enumerate(ops):
            if op == "corpus":
                network.update_on_feedback(corpus.items[arg])
            elif op == "generated":
                network.update_on_feedback(generated_item(f"g{n}", arg))
            elif arg == "belief":
                assert_beliefs_match_scratch(network)
            else:
                assert_positive_count_matches_its_definition(network)
        assert_positive_count_matches_its_definition(network)
        assert_beliefs_match_scratch(network)

    def test_accepts_fold_no_belief_until_read(self, monkeypatch):
        network = build_all(tiny_corpus())["u"]
        folds = []
        recompute = BeliefNetwork.recompute
        monkeypatch.setattr(BeliefNetwork, "recompute",
                            lambda self: folds.append(1) or recompute(self))
        for n in range(3):
            network.update_on_feedback(generated_item(f"g{n}", {"b": 1.0}))
        assert folds == []
        network.belief["a"]
        network.belief["b"]
        assert folds == [1]


# click masses as the loop credits them: whole clicks, a generated item's
# 1/len(prompt) shares, and zeros
click_masses = st.one_of(st.just(0.0), st.integers(1, 40).map(float),
                         st.sampled_from([1 / 2, 1 / 3, 1 / 5, 1 / 7]),
                         st.floats(1e-3, 50.0))


@st.composite
def click_counts(draw):
    """(categories, subcategory -> category, click counts in touch order).
    A category may have no subcategories; the labels include each
    category's generated one."""
    categories = tuple(sorted(draw(st.sets(st.sampled_from("abcdef"),
                                           min_size=1, max_size=5))))
    subcat_to_cat = {}
    for cat in categories:
        for n in range(draw(st.integers(0, 4))):
            subcat_to_cat[f"{cat}/s{n}"] = cat
        subcat_to_cat[generated_subcategory(cat)] = cat
    labels = draw(st.permutations(sorted(subcat_to_cat)))
    touched = labels[:draw(st.integers(0, len(labels)))]
    counts = {sub: draw(click_masses) for sub in touched}
    return categories, subcat_to_cat, counts


class TestOnePassRecompute:
    @settings(max_examples=300, deadline=None)
    @given(drawn=click_counts())
    def test_equals_entropy_bits_per_category(self, drawn):
        """recompute's one pass gives every category the bits of entropy_bits
        over that category's probabilities in click_counts order."""
        categories, subcat_to_cat, counts = drawn
        network = BeliefNetwork(user_id="u", categories=categories,
                                subcat_to_cat=subcat_to_cat,
                                click_counts=dict(counts))
        network.recompute()
        total = fold_sum(counts.values())
        probs = {s: c / total for s, c in counts.items()} if total > 0.0 else {}
        assert list(network.belief.items()) == [
            (cat, entropy_bits([p for s, p in probs.items()
                                if subcat_to_cat[s] == cat]))
            for cat in categories]
