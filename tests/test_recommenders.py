"""Baseline recommenders, the matrix scoring state, and feed assembly."""

import json
import math
import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bheisr import recommenders
from bheisr.corpus import (
    ORIGIN_GENERATED,
    Item,
    SynthSpec,
    synth_corpus,
)
from bheisr.features import (
    CategoryGraph,
    GraphUpdateBuffer,
    ItemTable,
    entry_norms,
)
from bheisr.nudge import NudgeSession
from bheisr.pathfinder import RejectionLedger
from bheisr.recommenders import (
    FeedContext,
    _baseline_scores,
    acceptance_share,
    assemble_feed,
    baseline_ranking,
    n_generated,
)
from bheisr.rng import substream
from bheisr.simulate import SimConfig, build_assets
from oracle import (
    assert_equals_the_oracle,
    cb_score,
    context_for,
    corpus_of,
    featurize,
    path_of,
    rebuilt_by_fold,
    spy_featurize_texts,
    tokenize,
    uc_score,
)


class TestNGenerated:
    def test_round_half_up(self):
        assert n_generated(0.6, 10) == 6
        assert n_generated(0.45, 10) == 5    # 4.5 + 0.5 -> 5
        assert n_generated(0.44, 10) == 4
        assert n_generated(0.5, 5) == 3      # 2.5 rounds up
        assert n_generated(0.0, 10) == 0
        assert n_generated(1.0, 10) == 10

    def test_small_feeds(self):
        assert n_generated(0.2, 2) == 0      # 0.4 rounds down
        assert n_generated(0.3, 2) == 1


def small_corpus():
    """Three users over three categories with overlapping accepts."""
    items = {
        "i1": Item("i1", "a", "a/s", "apple soup story", "apple soup", {"a": 1.0}),
        "i2": Item("i2", "a", "a/s", "apple pie story", "pie apple", {"a": 1.0}),
        "i3": Item("i3", "b", "b/s", "chip news flash", "chip news", {"b": 1.0}),
        "i4": Item("i4", "b", "b/s", "chip soup crossover", "chip soup", {"b": 1.0}),
        "i5": Item("i5", "c", "c/s", "opera review notes", "opera notes", {"c": 1.0}),
    }
    log = [
        ("u1", "i1", 0, 1.0),
        ("u1", "i2", 1, 1.0),
        ("u2", "i1", 2, 1.0),
        ("u2", "i3", 3, 1.0),
        ("u3", "i5", 4, 1.0),
    ]
    return corpus_of(items, log,
                     taxonomy={"a": ("a/s",), "b": ("b/s",), "c": ("c/s",)},
                     users=("u1", "u2", "u3"))


def vectors_of(ctx, *extra):
    """featurize of every corpus item and of the `extra` items, by id: the
    oracle vectors cb_score takes."""
    items = [*ctx.corpus.items.values(), *extra]
    return {item.id: featurize(item, ctx.table.index.vocab) for item in items}


def share(item, network):
    return acceptance_share(item, network, sum(network.belief.values()))


class TestCandidateIndex:
    def test_matrix_rows_match_featurize(self):
        # CB's context holds the index items' term rows and norms
        corpus = small_corpus()
        ctx = context_for(corpus, "cb")
        vocab, index = ctx.table.index.vocab, ctx.table.index
        for item_id, item in corpus.items.items():
            row = ctx.item_matrix.getrow(index.pos[item_id]).toarray().ravel()
            vec = featurize(item, vocab)
            for tid, w in vec.entries.items():
                assert row[tid] == pytest.approx(w)
            assert np.count_nonzero(row) == len(vec.entries)
            assert ctx.item_norms[index.pos[item_id]] == pytest.approx(vec.norm)

    def test_categories_aligned(self):
        corpus = small_corpus()
        index = build_assets(corpus)
        cats = corpus.categories()
        for item_id, item in corpus.items.items():
            assert cats[index.cat_index[index.pos[item_id]]] == item.category


class TestCbTermMatrix:
    """Only a CB context builds the items' term-ordered CSR rows and norms,
    and only it loads scipy.sparse."""

    def test_scores_equal_a_csr_product_built_from_the_entries(self):
        from scipy import sparse
        corpus = synth_corpus(SynthSpec(n_users=10, n_categories=6,
                                        subcats_per_category=2, n_items=120,
                                        bias_profile=3, seed=2))
        ctx = context_for(corpus, "cb")
        entries, n = ctx.table.index.entries, len(corpus.items)
        rows = np.repeat(np.arange(n), entries.counts)
        order = np.lexsort((entries.terms, rows))      # each row in term order
        matrix = sparse.csr_matrix(
            (entries.weights[order], entries.terms[order],
             np.append(entries.starts, len(entries.terms))),
            shape=(n, len(ctx.table.index.vocab.term_ids)))
        assert np.array_equal(ctx.item_matrix.indices, matrix.indices)
        assert np.array_equal(ctx.item_matrix.data, matrix.data)
        norms = entry_norms(entries)
        scored = 0
        for user in corpus.users:
            count = len(ctx.networks[user].accepted)
            if count == 0:
                continue
            dense = ctx.profile_sums[ctx.user_pos[user]] / count
            denom = norms * float(np.linalg.norm(dense))
            with np.errstate(divide="ignore", invalid="ignore"):
                expected = np.clip(np.where(denom > 0.0, (matrix @ dense) / denom,
                                            0.0), -1.0, 1.0)
            assert np.array_equal(_baseline_scores(ctx, user), expected)
            scored += 1
        assert scored > 0

    def test_only_cb_runs_load_scipy_sparse(self):
        # a fresh process: this one has scipy.sparse loaded already
        script = (
            "import json, sys\n"
            "import bheisr.cli\n"
            "from bheisr.corpus import SynthSpec, synth_corpus\n"
            "from bheisr.simulate import SimConfig, run_loop\n"
            "corpus = synth_corpus(SynthSpec(n_users=20, bias_profile=10))\n"
            "loaded = [['import', 'scipy.sparse' in sys.modules]]\n"
            "for model in ('uc_w', 'rd', 'bheisr', 'cb'):\n"
            "    run_loop(SimConfig(model=model, k=4, feeds=2), corpus)\n"
            "    loaded.append([model, 'scipy.sparse' in sys.modules])\n"
            "print(json.dumps(loaded))\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(recommenders.__file__)))
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, (
                   src, os.environ.get("PYTHONPATH"))))}
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        assert json.loads(done.stdout) == [["import", False], ["uc_w", False],
                                           ["rd", False], ["bheisr", False],
                                           ["cb", True]]


class TestCbScore:
    def test_cold_user_scores_zero(self):
        ctx = context_for(small_corpus())
        network = ctx.networks["u3"]
        network.accepted = []
        assert cb_score(ctx.corpus.items["i1"], network, vectors_of(ctx)) == 0.0

    def test_matches_hand_cosine(self):
        ctx = context_for(small_corpus())
        network = ctx.networks["u1"]   # accepted i1, i2
        vectors = vectors_of(ctx)
        v1 = vectors["i1"]
        v2 = vectors["i2"]
        acc = {}
        for vec in (v1, v2):
            for tid, w in vec.entries.items():
                acc[tid] = acc.get(tid, 0.0) + w / 2
        target = vectors["i4"]
        dot = sum(w * target.entries.get(tid, 0.0) for tid, w in acc.items())
        norm = math.sqrt(sum(w * w for w in acc.values()))
        expect = dot / (norm * target.norm)
        assert cb_score(ctx.corpus.items["i4"], network, vectors) == \
            pytest.approx(expect, abs=1e-12)

    def test_item_without_text_scores_zero_and_ranks_by_id(self):
        # an item with no terms has norm 0: its cosine is 0.0, not 0 / 0,
        # and it ranks among the other zero scores by ascending id
        corpus = small_corpus()
        corpus.items["i0"] = Item("i0", "c", "c/s", "", "", {"c": 1.0})
        ctx = context_for(corpus)
        scores = _baseline_scores(ctx, "u1")
        assert scores[ctx.table.index.pos["i0"]] == 0.0
        assert baseline_ranking(ctx, "u1", 4, step=1, seed=0) == \
            ["i4", "i0", "i3", "i5"]

    def test_prefers_same_topic_items(self):
        ctx = context_for(small_corpus())
        network = ctx.networks["u1"]
        vectors = vectors_of(ctx)
        apple = cb_score(ctx.corpus.items["i2"], network, vectors)
        opera = cb_score(ctx.corpus.items["i5"], network, vectors)
        assert apple > opera


class TestAcceptanceShare:
    def test_single_category_item(self):
        ctx = context_for(small_corpus())
        network = ctx.networks["u2"]   # belief mass split between a and b
        total = sum(network.belief.values())
        expect = network.belief["a"] / total
        assert share(ctx.corpus.items["i1"], network) == \
            pytest.approx(expect, abs=1e-12)

    def test_weighted_item_mixes_categories(self):
        ctx = context_for(small_corpus())
        network = ctx.networks["u2"]
        item = Item("g", "a", "a/generated", "t", "", {"a": 0.5, "b": 0.5},
                    origin=ORIGIN_GENERATED)
        total = sum(network.belief.values())
        expect = 0.5 * (network.belief["a"] + network.belief["b"]) / total
        assert share(item, network) == pytest.approx(expect, abs=1e-12)

    def test_zero_belief_user(self):
        ctx = context_for(small_corpus())
        network = ctx.networks["u1"]
        network.click_counts.clear()   # no mass, so every belief is zero
        network.recompute()
        assert set(network.belief.values()) == {0.0}
        assert share(ctx.corpus.items["i1"], network) == 0.0


class TestUcScore:
    def test_no_other_accepter_scores_zero(self):
        ctx = context_for(small_corpus())
        assert uc_score(ctx.corpus.items["i4"], "u1", ctx.networks) == 0.0

    def test_hand_computed_value(self):
        ctx = context_for(small_corpus())
        networks = ctx.networks
        # i1 accepted by u1 and u2; score for u1 counts only u2
        me = networks["u1"].mass_by_category()
        other = networks["u2"].mass_by_category()
        a = np.array([me[c] for c in ("a", "b", "c")])
        b = np.array([other[c] for c in ("a", "b", "c")])
        cos = float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
        belief_share = share(ctx.corpus.items["i1"], networks["u1"])
        assert uc_score(ctx.corpus.items["i1"], "u1", networks) == \
            pytest.approx(cos * belief_share, abs=1e-12)

    def test_single_subcategory_user_scores_zero(self):
        # u3 clicked only c/s: its belief total, an entropy, is 0, so UC
        # has no share to weight by and scores every item 0
        ctx = context_for(small_corpus(), "uc")
        assert sum(ctx.networks["u3"].belief.values()) == 0.0
        assert (_baseline_scores(ctx, "u3") == 0.0).all()

    def test_self_acceptance_not_counted(self):
        ctx = context_for(small_corpus())
        # i2 accepted only by u1 itself
        assert uc_score(ctx.corpus.items["i2"], "u1", ctx.networks) == 0.0


def every_item_eligible(ctx):
    """Clear every accept row, so ranking may return any item."""
    ctx.accept_matrix[:] = 0.0


class TestRdCandidates:
    """The RD branch of baseline_ranking: a seeded uniform sample."""

    def test_deterministic_and_excluding(self):
        ctx = context_for(small_corpus(), "rd")
        excluded = baseline_ranking(ctx, "u1", 5, step=1, seed=5)
        assert set(excluded) == {"i3", "i4", "i5"}   # u1 accepted i1 and i2
        every_item_eligible(ctx)
        first = baseline_ranking(ctx, "u1", 3, step=1, seed=5)
        second = baseline_ranking(ctx, "u1", 3, step=1, seed=5)
        assert first == second
        assert len(set(first)) == 3

    def test_seed_and_user_vary_the_sample(self):
        ctx = context_for(small_corpus(), "rd")
        every_item_eligible(ctx)
        pools = {tuple(baseline_ranking(ctx, u, 5, step=1, seed=s))
                 for u in ("u1", "u2") for s in (0, 1)}
        assert len(pools) > 1


class TestBaselineRanking:
    def test_rd_varies_by_step_and_stays_seeded(self):
        ctx = context_for(small_corpus(), "rd")
        every_item_eligible(ctx)
        a = baseline_ranking(ctx, "u1", 3, step=1, seed=7)
        b = baseline_ranking(ctx, "u1", 3, step=1, seed=7)
        c = baseline_ranking(ctx, "u1", 3, step=2, seed=7)
        assert a == b
        assert a != c or len(ctx.table.index.ids) <= 3

    def test_cb_orders_by_score_then_id(self):
        ctx = context_for(small_corpus())
        every_item_eligible(ctx)
        ranked = baseline_ranking(ctx, "u1", 5, step=1, seed=0)
        scores = _baseline_scores(ctx, "u1")
        keys = [(-scores[ctx.table.index.pos[i]], i) for i in ranked]
        assert keys == sorted(keys)

    def test_exclusion_respected(self):
        ctx = context_for(small_corpus())
        ranked = baseline_ranking(ctx, "u1", 5, step=1, seed=0)
        assert "i1" not in ranked and "i2" not in ranked   # u1's history
        ctx.note_accept({"u1": [ctx.corpus.items["i4"]]})
        ranked = baseline_ranking(ctx, "u1", 5, step=1, seed=0)
        assert sorted(ranked) == ["i3", "i5"]

    def test_no_baseline_slot_ranks_nothing(self, monkeypatch):
        contexts = [context_for(small_corpus(), kind) for kind in ("rd", "cb", "uc")]
        monkeypatch.setattr(recommenders, "substream", None)
        monkeypatch.setattr(recommenders, "_baseline_scores", None)
        for ctx in contexts:
            assert baseline_ranking(ctx, "u1", 0, step=1, seed=0) == []


def sorted_ranking(ctx, scores, k, exclude):
    """Reference ranking: descending score, ties by ascending id."""
    pos = ctx.table.index.pos
    return sorted((i for i in ctx.table.index.ids if i not in exclude),
                  key=lambda i: (-scores[pos[i]], i))[:k]


def rd_ranking(ctx, user_id, k, step, seed, exclude):
    """Reference RD sample over the eligible items in index order."""
    eligible = [i for i in ctx.table.index.ids if i not in exclude]
    order = substream(seed, "rd", user_id, step).permutation(len(eligible))
    return [eligible[i] for i in order[:k]]


@st.composite
def ranking_cases(draw):
    n = draw(st.integers(1, 40))
    # "i10" sorts before "i2": index order, numeric order and id order differ
    ids = [f"i{j}" for j in draw(st.permutations(range(n)))]
    tied = st.sampled_from([0.0, 0.0, -0.0, 0.5, 1.0, -0.25])
    scores = draw(st.lists(tied | st.floats(-1.0, 1.0), min_size=n, max_size=n))
    exclude = draw(st.sets(st.sampled_from(ids)))
    k = draw(st.integers(0, n + 3))
    return ids, np.array(scores), exclude, k


def ranking_context(ids):
    items = {i: Item(i, "a", "a/s", f"story {i}", "plain words", {"a": 1.0})
             for i in ids}
    return context_for(corpus_of(items, [], taxonomy={"a": ("a/s",)},
                                 users=("u1",)))


@st.composite
def tie_block_cases(draw):
    """Up to 300 items whose scores take two or three values, with k on, just
    inside or just outside the edge of a block of tied eligible scores."""
    n = draw(st.integers(1, 300))
    ids = [f"i{j}" for j in draw(st.permutations(range(n)))]
    values = draw(st.lists(st.sampled_from([0.0, -0.0, 0.5, 1.0, -0.25]),
                           min_size=2, max_size=3))
    scores = np.array(draw(st.lists(st.sampled_from(values), min_size=n,
                                    max_size=n)))
    exclude = draw(st.sets(st.sampled_from(ids), max_size=n // 3))
    eligible = sorted(-scores[j] for j, i in enumerate(ids) if i not in exclude)
    edges = [b for b in range(1, len(eligible) + 1)
             if b == len(eligible) or eligible[b] != eligible[b - 1]]
    k = max(0, draw(st.sampled_from(edges)) + draw(st.sampled_from([-1, 0, 1])))
    return ids, scores, exclude, k


# index order differs from id order; "i10" sorts before "i2"
MIXED_IDS = ["i3", "i10", "i1", "i2", "i0", "i5"]


class TestRankingMatchesSortedOracle:
    def check(self, case, step):
        ids, scores, exclude, k = case
        ctx = ranking_context(ids)
        ctx.note_accept({"u1": [ctx.corpus.items[i] for i in sorted(exclude)]})
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(recommenders, "_baseline_scores",
                       lambda ctx, user_id: scores)
            ranked = baseline_ranking(ctx, "u1", k, step, 3)
        assert ranked == sorted_ranking(ctx, scores, k, exclude)
        ctx.baseline = "rd"
        assert (baseline_ranking(ctx, "u1", k, step, 3)
                == rd_ranking(ctx, "u1", k, step, 3, exclude))

    @settings(max_examples=200, deadline=None)
    @given(case=ranking_cases(), step=st.integers(1, 5))
    # every score equal: the ranking is the id order
    @example(case=(MIXED_IDS, np.full(6, 0.5), set(), 4), step=1)
    # 0.0 and -0.0 tie at the k-th value
    @example(case=(MIXED_IDS, np.array([1.0, 0.0, -0.0, 0.0, -0.0, -0.5]), set(), 2),
             step=1)
    @example(case=(MIXED_IDS, np.array([-0.0, 0.0, 1.0, -0.0, 0.0, 0.0]), {"i5"}, 3),
             step=2)
    # k equal to, then above, the number of eligible items
    @example(case=(MIXED_IDS, np.array([0.5, 1.0, 0.5, -1.0, 0.0, 1.0]),
                   {"i3", "i0"}, 4), step=1)
    @example(case=(MIXED_IDS, np.array([0.5, 1.0, 0.5, -1.0, 0.0, 1.0]),
                   {"i3", "i0"}, 6), step=1)
    def test_scored_and_rd_rankings_match_the_reference(self, case, step):
        self.check(case, step)

    @settings(max_examples=60, deadline=None)
    @given(case=tie_block_cases(), step=st.integers(1, 5))
    def test_large_tie_blocks_match_the_reference(self, case, step):
        self.check(case, step)


def oracle_scores(kind, ctx, user):
    """cb_score or uc_score of every index item, in index order."""
    items = [ctx.corpus.items[i] for i in ctx.table.index.ids]
    if kind == "cb":
        vectors = vectors_of(ctx)
        return [cb_score(it, ctx.networks[user], vectors) for it in items]
    return [uc_score(it, user, ctx.networks) for it in items]


class TestAccelerationAgreesWithReference:
    """The matrix scoring state must agree with the scalar oracles."""

    def context(self, baseline="cb"):
        """(context, graph, corpus)"""
        corpus = synth_corpus(SynthSpec(n_users=10, n_categories=6,
                                        subcats_per_category=2, n_items=120,
                                        bias_profile=3, seed=2))
        ctx = context_for(corpus, baseline)
        return ctx, CategoryGraph.build(corpus, ctx.table), corpus

    def test_cb_and_uc_scores_match(self):
        for kind in ("cb", "uc"):
            ctx, _, corpus = self.context(kind)
            for user in corpus.users:
                np.testing.assert_allclose(_baseline_scores(ctx, user),
                                           oracle_scores(kind, ctx, user), rtol=0,
                                           atol=1e-9, err_msg=f"{kind} {user}")

    def test_reference_ops_match_scalar_functions(self):
        # after incremental accepts the matrix scores still match the oracles
        for kind in ("cb", "uc"):
            self.check_after_an_accept(kind)

    def check_after_an_accept(self, kind):
        ctx, _, corpus = self.context(kind)
        user = corpus.users[0]
        fresh = next(i for i in corpus.items
                     if i not in ctx.networks[user].accepted)
        ctx.networks[user].update_on_feedback(corpus.items[fresh])
        ctx.note_accept({user: [corpus.items[fresh]]})
        np.testing.assert_allclose(_baseline_scores(ctx, user),
                                   oracle_scores(kind, ctx, user),
                                   rtol=0, atol=1e-9)

    def test_note_accept_refreshes_uc_masses_and_drops_batched_rows(self):
        ctx, graph, corpus = self.context("uc")
        ctx.batch_neighbor_mass(list(ctx.user_pos))
        assert ctx.neighbor_mass
        gi = Item("gi:x:1", "cat00", "cat00/generated", "cat00 meets cat01",
                  "bridging piece", {"cat00": 0.5, "cat01": 0.5},
                  origin=ORIGIN_GENERATED)
        accepts = {}
        for user in corpus.users[:2]:
            fresh = next(corpus.items[i] for i in corpus.items
                         if i not in ctx.networks[user].accepted)
            accepts[user] = [fresh, gi]
            for item in accepts[user]:
                ctx.networks[user].update_on_feedback(item)
        graph.accept_items([it for items in accepts.values() for it in items])
        ctx.note_accept(accepts)
        assert ctx.neighbor_mass == {}
        rebuilt = FeedContext(corpus=corpus, networks=ctx.networks,
                              table=ctx.table, baseline="uc")
        rebuilt.enable_acceleration()
        assert np.array_equal(ctx.mass_matrix, rebuilt.mass_matrix)
        assert np.array_equal(ctx.mass_norms, rebuilt.mass_norms)

    def test_note_accept_matches_rebuild(self):
        for kind in ("rd", "cb", "uc"):
            self.check_rebuild(kind)

    def check_rebuild(self, kind):
        acc, graph, corpus = self.context(kind)
        user = corpus.users[0]
        # accept one dataset item and one generated item
        fresh = next(i for i in corpus.items
                     if i not in acc.networks[user].accepted)
        acc.networks[user].update_on_feedback(corpus.items[fresh])
        acc.note_accept({user: [corpus.items[fresh]]})
        gi = Item("gi:x:1", "cat00", "cat00/generated", "cat00 meets cat01",
                  "bridging piece", {"cat00": 0.5, "cat01": 0.5},
                  origin=ORIGIN_GENERATED)
        graph.accept_items([gi])
        acc.networks[user].update_on_feedback(gi)
        acc.note_accept({user: [gi]})

        rebuilt = rebuilt_by_fold(acc, gi)
        assert np.array_equal(acc.accept_matrix, rebuilt.accept_matrix)
        if kind == "cb":
            assert np.array_equal(acc.profile_sums, rebuilt.profile_sums)
        if kind == "uc":
            assert np.array_equal(acc.mass_matrix, rebuilt.mass_matrix)
            assert np.array_equal(acc.mass_norms, rebuilt.mass_norms)
        if kind != "rd":
            assert np.allclose(_baseline_scores(acc, user),
                               _baseline_scores(rebuilt, user), atol=1e-12)

    def test_scoring_state_only_for_the_baseline(self):
        for kind in ("rd", "cb", "uc"):
            ctx, _, _ = self.context(kind)
            assert (ctx.profile_sums is not None) == (kind == "cb"), kind
            assert (ctx.mass_matrix is not None) == (kind == "uc"), kind
            assert (ctx.mass_norms is not None) == (kind == "uc"), kind

    def test_profile_sums_are_the_left_fold_of_accepts(self):
        ctx, graph, corpus = self.context("cb")
        user = corpus.users[0]
        gi = Item("gi:x:1", "cat00", "cat00/generated", "cat00 meets cat01",
                  "bridging piece", {"cat00": 0.5, "cat01": 0.5},
                  origin=ORIGIN_GENERATED)
        graph.accept_items([gi])
        accepts = [gi, corpus.items[ctx.table.index.ids[0]]]
        for item in accepts:
            ctx.networks[user].update_on_feedback(item)
        ctx.note_accept({user: accepts})
        vectors = vectors_of(ctx, gi)
        for u in corpus.users:
            expected = np.zeros(ctx.profile_sums.shape[1])
            for item_id in ctx.networks[u].accepted:
                for tid, w in vectors[item_id].entries.items():
                    expected[tid] += w
            row = ctx.user_pos[u]
            assert np.array_equal(ctx.profile_sums[row], expected), u
            in_index = {ctx.table.index.pos[i] for i in ctx.networks[u].accepted
                        if i in ctx.table.index.pos}
            assert set(np.flatnonzero(ctx.accept_matrix[row])) == in_index, u


# generated texts; the two empty ones repeat one text, and one text has no
# term in the vocabulary
GENERATED_TEXTS = [("cat00 meets cat01", "A piece connecting cat00, cat01."),
                   ("cat02", "cat02 angle: topic1 daily."),
                   ("", ""), ("", " "), ("zz qq", "unknown words only")]
ONE_ENTRIES_SPEC = SynthSpec(n_users=10, n_categories=6, subcats_per_category=2,
                             n_items=120, bias_profile=3, seed=2)
# one accept: a user and either an index item by position or a generated
# item with one of the texts over one or two categories
entries_accepts = st.tuples(
    st.integers(0, ONE_ENTRIES_SPEC.n_users - 1),
    st.one_of(
        st.tuples(st.just("index"), st.integers(0, ONE_ENTRIES_SPEC.n_items - 1)),
        st.tuples(st.just("generated"), st.integers(0, len(GENERATED_TEXTS) - 1),
                  st.lists(st.sampled_from([f"cat{j:02d}" for j in range(6)]),
                           min_size=1, max_size=2, unique=True))))


class TestOneEntriesPath:
    """Index rows and generated items' arrays are the one store of item
    vectors: the graph and CB's profile sums read them through one path."""

    @settings(max_examples=60, deadline=None)
    @given(steps=st.lists(st.lists(entries_accepts, max_size=8), max_size=5))
    def test_graph_and_profile_sums_equal_the_oracle(self, steps):
        corpus = synth_corpus(ONE_ENTRIES_SPEC)
        ctx = context_for(corpus, "cb")
        graph = CategoryGraph.build(corpus, ctx.table)
        with pytest.MonkeyPatch.context() as mp:
            calls = spy_featurize_texts(mp)
            accepted, generated = list(corpus.items.values()), []
            for n, batch in enumerate(steps):
                # the step barrier: credit every accept, flush, then fold each
                # user's accepts into the scoring state
                by_user, buffer = {}, GraphUpdateBuffer(graph)
                for m, (u, pick) in enumerate(batch):
                    user = corpus.users[u]
                    if pick[0] == "index":
                        item = corpus.items[ctx.table.index.ids[pick[1]]]
                    else:
                        _, text, cats = pick
                        item = Item(f"gi:{user}:{n}.{m}", cats[0],
                                    f"{cats[0]}/generated", *GENERATED_TEXTS[text],
                                    {c: 1.0 / len(cats) for c in cats},
                                    origin=ORIGIN_GENERATED)
                        generated.append(item)
                    ctx.networks[user].update_on_feedback(item)
                    buffer.accept_items([item])
                    by_user.setdefault(user, []).append(item)
                    accepted.append(item)
                assert buffer.flush() == len(batch)
                ctx.note_accept(by_user)
        assert_equals_the_oracle(graph, accepted)
        # every distinct generated text is featurized once in the run
        texts = {item.text() for item in generated}
        assert sorted(tuple(t) for call in calls for t in call) == \
            sorted(tuple(tokenize(t)) for t in texts)
        vectors = vectors_of(ctx, *generated)
        for user in corpus.users:
            expected = np.zeros(ctx.profile_sums.shape[1])
            for item_id in ctx.networks[user].accepted:
                for tid, w in vectors[item_id].entries.items():
                    expected[tid] += w
            assert np.array_equal(ctx.profile_sums[ctx.user_pos[user]], expected)


def uc_state(mass, accept, beliefs, item_cats):
    """A UC scoring state built straight from arrays: users u00, u01, ...
    with these mass rows, accept rows and per-category beliefs, and items
    whose index order differs from their id order ("i10" sorts before
    "i2"). Ranking reads nothing else of a network than its beliefs."""
    n_users, n_cats = mass.shape
    n_items = accept.shape[1]
    users = [f"u{r:02d}" for r in range(n_users)]
    cats = [f"c{j}" for j in range(n_cats)]
    ids = [f"i{j}" for j in reversed(range(n_items))]
    id_rank = np.empty(n_items, dtype=np.intp)
    id_rank[sorted(range(n_items), key=ids.__getitem__)] = np.arange(n_items)
    index = recommenders.CandidateIndex(
        ids=ids, pos={i: r for r, i in enumerate(ids)},
        cat_index=np.asarray(item_cats, dtype=np.intp), id_rank=id_rank,
        entries=None, vocab=None)
    networks = {u: SimpleNamespace(belief=dict(zip(cats, map(float, row))))
                for u, row in zip(users, beliefs)}
    ctx = FeedContext(corpus=None, networks=networks, table=ItemTable(index),
                      baseline="uc", user_pos={u: r for r, u in enumerate(users)},
                      accept_matrix=np.asarray(accept, dtype=float),
                      mass_matrix=np.asarray(mass, dtype=float))
    # row-wise, as refresh_mass takes them
    ctx.mass_norms = np.linalg.norm(ctx.mass_matrix, axis=1)
    return ctx


def exact_rankings(ctx, k):
    """Every user's UC ranking from the exact per-user scores alone."""
    saved, ctx.neighbor_mass = ctx.neighbor_mass, {}
    ranked = {u: baseline_ranking(ctx, u, k, 1, 0) for u in ctx.user_pos}
    ctx.neighbor_mass = saved
    return ranked


@st.composite
def uc_populations(draw):
    """Random small UC states. Small-integer masses and beliefs make many
    exact ties, in the neighbour masses and in the scores; float ones make
    near ties only."""
    n_users = draw(st.integers(8, 40))
    n_cats = draw(st.integers(3, 8))
    n_items = draw(st.integers(20, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    present = rng.random((n_users, n_cats)) < draw(st.sampled_from([0.3, 0.6, 1.0]))
    if draw(st.booleans()):
        mass = rng.integers(1, 4, (n_users, n_cats)) * present
        beliefs = rng.integers(0, 3, (n_users, n_cats))
    else:
        mass = rng.random((n_users, n_cats)) * present
        beliefs = rng.random((n_users, n_cats))
    density = draw(st.sampled_from([0.05, 0.2, 0.5]))
    accept = rng.random((n_users, n_items)) < density
    item_cats = rng.integers(0, n_cats, n_items)
    k = draw(st.integers(1, 12))
    return uc_state(mass, accept, beliefs, item_cats), k, rng


class TestCertifiedUcRanking:
    """UC ranks from a batched neighbour-mass row only where the exact
    per-user scores provably rank the same (README §7)."""

    @settings(max_examples=150, deadline=None)
    @given(case=uc_populations())
    def test_every_fed_user_gets_the_exact_ranking(self, case):
        ctx, k, rng = case
        exact = exact_rankings(ctx, k)
        ctx.batch_neighbor_mass(list(ctx.user_pos))
        assert set(ctx.neighbor_mass) == set(ctx.user_pos)
        for user in ctx.user_pos:
            assert baseline_ranking(ctx, user, k, 1, 0) == exact[user]
        # another kernel's fold: each entry a few units in the last place off
        for user, row in ctx.neighbor_mass.items():
            ulps = rng.integers(-4, 5, len(row))
            ctx.neighbor_mass[user] = row * (1.0 + ulps * 2.0 ** -52)
        for user in ctx.user_pos:
            assert baseline_ranking(ctx, user, k, 1, 0) == exact[user]

    @pytest.mark.parametrize("nudge", [math.inf, -math.inf])
    def test_a_last_bit_difference_falls_back_to_the_exact_ranking(self, nudge):
        # u01 alone is like u00, and accepted i1 and i0 (index order), so
        # both score exactly its similarity: one term plus zeros in any
        # order. The tie ranks by id. A batched row one unit in the last
        # place off on either item reverses them, and must not be trusted.
        mass = np.array([[1.0, 2.0, 0.0], [2.0, 3.0, 0.0], [0.0, 0.0, 1.0]])
        accept = np.zeros((3, 4))
        accept[1, [2, 3]] = 1.0
        accept[2, 0] = 1.0
        beliefs = np.array([[1.5, 0.0, 0.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
        ctx = uc_state(mass, accept, beliefs, item_cats=[0, 0, 0, 0])
        exact = exact_rankings(ctx, 2)
        assert exact["u00"] == ["i0", "i1"]
        scores = _baseline_scores(ctx, "u00")
        tied = scores[ctx.table.index.pos["i0"]]
        assert tied > 0.0 and scores[ctx.table.index.pos["i1"]] == tied
        row = scores.copy()            # every share is 1.0: scores are masses
        moved = ctx.table.index.pos["i1" if nudge > 0 else "i0"]
        row[moved] = np.nextafter(tied, nudge)
        ctx.neighbor_mass = {"u00": row}
        assert baseline_ranking(ctx, "u00", 2, 1, 0) == exact["u00"]

    def test_a_clear_gap_and_zero_ties_are_certified(self, monkeypatch):
        mass = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
        accept = np.zeros((3, 6))
        accept[1, [5, 4]] = 1.0
        accept[2, 4] = 1.0
        beliefs = np.ones((3, 3))
        ctx = uc_state(mass, accept, beliefs, item_cats=[0, 1, 2, 0, 0, 0])
        exact = exact_rankings(ctx, 4)
        # i1 (two neighbours) over i0 (one), then zeros in id order
        assert exact["u00"] == ["i1", "i0", "i2", "i3"]
        ctx.batch_neighbor_mass(list(ctx.user_pos))
        monkeypatch.setattr(recommenders, "_baseline_scores", None)
        assert baseline_ranking(ctx, "u00", 4, 1, 0) == exact["u00"]

    def test_masses_outside_the_covered_range_are_not_batched(self):
        mass = np.array([[1.0, 2.0 ** -70], [1.0, 1.0]])
        ctx = uc_state(mass, np.eye(2, 5), np.ones((2, 2)), item_cats=[0] * 5)
        ctx.batch_neighbor_mass(list(ctx.user_pos))
        assert ctx.neighbor_mass == {}
        assert exact_rankings(ctx, 3)["u00"] == \
            baseline_ranking(ctx, "u00", 3, 1, 0)

    def test_only_uc_and_more_than_one_user_are_batched(self):
        ctx = context_for(small_corpus(), "uc")
        ctx.batch_neighbor_mass(["u1"])
        assert ctx.neighbor_mass == {}
        ctx.batch_neighbor_mass(["u1", "u3"])
        assert set(ctx.neighbor_mass) == {"u1", "u3"}
        ctx = context_for(small_corpus(), "cb")
        ctx.batch_neighbor_mass(["u1", "u3"])
        assert ctx.neighbor_mass == {}

    def test_tolerance_grows_with_the_population(self):
        # 4 * (n_users + 3 * n_cats + 5) units of 2^-53
        assert recommenders.uc_tolerance(100, 17) == 4 * 156 * 2.0 ** -53
        assert recommenders.uc_tolerance(2000, 17) > \
            recommenders.uc_tolerance(100, 17)


def session_for(ctx, user_id):
    path = path_of("a", "b", "c")
    return NudgeSession(user_id=user_id, path=path,
                        queue=[path_of("a", "b"), path_of("b", "c")],
                        ledger=RejectionLedger(), extremes=((), ()))


class TestAssembleFeed:
    def test_mix_counts(self):
        ctx = context_for(small_corpus())
        session = session_for(ctx, "u1")
        feed = assemble_feed(ctx, True, 0.4, 5, session, "u1", step=1, seed=0)
        assert feed.generated_count == 2
        assert sum(it.origin == "dataset" for it in feed.items) == 3
        assert len(feed.items) == 5
        origins = [it.origin for it in feed.items]
        assert origins == ["dataset"] * 3 + [ORIGIN_GENERATED] * 2

    def test_generated_items_cycle_prompts_with_fresh_ids(self):
        ctx = context_for(small_corpus())
        session = session_for(ctx, "u1")
        feed = assemble_feed(ctx, True, 1.0, 5, session, "u1", step=1, seed=0)
        gen = feed.items
        assert [g.prompt.key for g in gen] == \
            ["a->b", "b->c", "a->b", "b->c", "a->b"]
        assert len({g.id for g in gen}) == 5

    def test_accepted_items_never_reappear(self):
        ctx = context_for(small_corpus())
        feed = assemble_feed(ctx, False, 0.0, 5, None, "u1", step=1, seed=0)
        assert {it.id for it in feed.items}.isdisjoint(ctx.networks["u1"].accepted)
        assert len(feed.items) == 3   # only three unaccepted items exist

    def test_without_nudging_all_slots_are_baseline(self):
        ctx = context_for(small_corpus(), "uc")
        feed = assemble_feed(ctx, False, 0.6, 3, None, "u2", step=1, seed=0)
        assert feed.generated_count == 0
        assert sum(it.origin == "dataset" for it in feed.items) == len(feed.items)

    def test_inactive_session_falls_back_to_baseline(self):
        ctx = context_for(small_corpus())
        session = session_for(ctx, "u1")
        session.queue = []
        feed = assemble_feed(ctx, True, 0.6, 3, session, "u1", step=1, seed=0)
        assert feed.generated_count == 0
        assert sum(it.origin == "dataset" for it in feed.items) == 3

    def test_validation(self):
        # k and w reach assemble_feed only through a validated SimConfig
        with pytest.raises(ValueError, match="k must be positive"):
            SimConfig(model="cb", w=0.5, k=0).validate()
        with pytest.raises(ValueError, match=r"w must be in \[0, 1\]"):
            SimConfig(model="cb", w=1.5, k=3).validate()
