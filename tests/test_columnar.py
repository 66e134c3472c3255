"""The columnar interaction log: histories and scoring state built from the
columns equal the per-row builds they replace, and a walk of the rows
decodes the columns a chunk at a time."""

import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bheisr import corpus as corpus_module
from bheisr import recommenders, simulate
from bheisr.belief import BeliefNetwork, build_all
from bheisr.corpus import Interaction, Item, SynthSpec, synth_corpus
from bheisr.simulate import SimConfig
from oracle import click_probs, context_for, corpus_of, rebuilt_by_fold


def per_row_build_all(corpus) -> dict:
    """The per-row build: each user's interested rows, sorted by timestamp
    (a stable sort, so equal stamps keep file order), credited one at a
    time."""
    histories = {u: [] for u in corpus.users}
    for inter in corpus.interactions:
        if corpus.interested(inter):
            histories[inter.user_id].append(inter)
    subcat_to_cat = {sub: cat for cat, subs in corpus.taxonomy.items() for sub in subs}
    networks = {}
    for user in corpus.users:
        network = BeliefNetwork(user_id=user, categories=corpus.categories(),
                                subcat_to_cat=dict(subcat_to_cat))
        for inter in sorted(histories[user], key=lambda x: x.timestamp):
            item = corpus.items[inter.item_id]
            network.accepted.append(item.id)
            network.add_click_mass(item.subcategory, 1.0)
        network.recompute()
        networks[user] = network
    return networks


WORDS = ("apple", "chip", "opera", "soup", "news", "notes")


@st.composite
def logs(draw):
    """Small corpora with shuffled item order, users in no sorted order,
    repeated (user, item) rows, equal timestamps, uninterested rows and
    users without history, under either signal scheme."""
    taxonomy = {}
    for c in range(draw(st.integers(1, 3))):
        taxonomy[f"c{c}"] = tuple(f"c{c}/s{s}" for s in range(draw(st.integers(1, 3))))
    pairs = [(c, s) for c, subs in taxonomy.items() for s in subs]
    n_items = draw(st.integers(1, 8))
    items = {}
    for j in draw(st.permutations(range(n_items))):
        cat, sub = draw(st.sampled_from(pairs))
        words = draw(st.lists(st.sampled_from(WORDS), min_size=1, max_size=3))
        items[f"i{j}"] = Item(f"i{j}", cat, sub, " ".join(words), "", {cat: 1.0})
    n_users = draw(st.integers(1, 5))
    users = tuple(f"u{k}" for k in draw(st.permutations(range(n_users))))
    scheme = draw(st.sampled_from(["click", "rating"]))
    signals = [0.0, 1.0] if scheme == "click" else [0.0, 1.5, 2.5, 3.0, 5.0]
    log = draw(st.lists(st.tuples(st.sampled_from(users),
                                  st.sampled_from(sorted(items)),
                                  st.integers(0, 3), st.sampled_from(signals)),
                        max_size=30))
    return corpus_of(items, log, taxonomy, users, signal_scheme=scheme)


def assert_networks_equal(got, want):
    assert list(got) == list(want)
    for user, network in got.items():
        expect = want[user]
        assert network.accepted == expect.accepted, user
        assert list(network.click_counts.items()) == \
            list(expect.click_counts.items()), user
        assert list(click_probs(network).items()) == \
            list(click_probs(expect).items()), user
        assert network.belief == expect.belief, user


TIED = [("u1", "i1", 0, 1.0), ("u0", "i2", 0, 1.0), ("u1", "i0", 0, 1.0),
        ("u1", "i1", 0, 0.0), ("u1", "i2", 0, 1.0)]


class TestColumnsEqualThePerRowBuild:
    @settings(max_examples=150, deadline=None)
    @given(corpus=logs())
    # equal stamps, a repeated item, an uninterested row, a user without
    # history and unsorted users, over items in shuffled order
    @example(corpus=corpus_of(
        {f"i{j}": Item(f"i{j}", "c0", f"c0/s{j % 2}", "apple soup", "", {"c0": 1.0})
         for j in (2, 0, 1)},
        TIED, {"c0": ("c0/s0", "c0/s1")}, ("u1", "u2", "u0")))
    def test_networks_and_scoring_state(self, corpus):
        assert_networks_equal(build_all(corpus), per_row_build_all(corpus))
        for baseline in ("rd", "cb", "uc"):
            ctx = context_for(corpus, baseline)
            folded = rebuilt_by_fold(ctx)
            assert np.array_equal(ctx.accept_matrix, folded.accept_matrix)
            if baseline == "cb":
                assert np.array_equal(ctx.profile_sums, folded.profile_sums)
                # folding in slices of a few accepts continues the same folds
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(recommenders, "FOLD_CHUNK_ROWS", 3)
                    sliced = context_for(corpus, baseline)
                assert np.array_equal(sliced.profile_sums, folded.profile_sums)
            if baseline == "uc":
                assert np.array_equal(ctx.mass_matrix, folded.mass_matrix)
                assert np.array_equal(ctx.mass_norms, folded.mass_norms)

    def test_synth_corpus(self):
        corpus = synth_corpus(SynthSpec(n_users=12, n_categories=5,
                                        subcats_per_category=3, n_items=90,
                                        bias_profile=3, seed=4))
        assert_networks_equal(build_all(corpus), per_row_build_all(corpus))
        ctx = context_for(corpus, "cb")
        assert np.array_equal(ctx.profile_sums, rebuilt_by_fold(ctx).profile_sums)


class TestNoRowObjects:
    def test_synth_corpus_and_run_loop_build_no_interaction(self, monkeypatch):
        made = []
        init = Interaction.__init__

        def counting_init(self, *args, **kwargs):
            made.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Interaction, "__init__", counting_init)
        corpus = synth_corpus(SynthSpec(n_users=20, bias_profile=10))
        for model in ("bheisr", "cb_w", "uc_w"):
            simulate.run_loop(SimConfig(model=model, feeds=3, seed=0, track_fb=True),
                              corpus)
        assert made == []
        # the spy sees a row decoded from the columns
        assert next(corpus.interactions) == Interaction(
            "u0000", list(corpus.items)[int(corpus.log_item[0])], 0, 1.0)
        assert made == [1, 1]


class TestRowWalk:
    def test_walk_holds_no_whole_column(self):
        # 233,320 rows; decoding whole columns at once peaked near 30 MB
        corpus = synth_corpus(SynthSpec(n_users=400, bias_profile=20))
        tracemalloc.start()
        try:
            rows = sum(1 for _ in corpus.interactions)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rows == len(corpus.log_user)
        assert peak < 2 * 2**20

    def test_rows_across_chunks_are_the_columns(self, monkeypatch):
        corpus = synth_corpus(SynthSpec(n_users=3, n_categories=3,
                                        subcats_per_category=2, n_items=30))
        monkeypatch.setattr(corpus_module, "ROW_CHUNK", 7)
        ids = list(corpus.items)
        assert [astuple(row) for row in corpus.interactions] == [
            (corpus.users[u], ids[i], t, s) for u, i, t, s in zip(
                corpus.log_user.tolist(), corpus.log_item.tolist(),
                corpus.log_ts.tolist(), corpus.log_signal.tolist())]
