"""Tokenizing, tf-idf vectors, and the category correlation graph."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bheisr.corpus import Item, SynthSpec, load_corpus, save_corpus, synth_corpus
from bheisr.features import (
    SEPARATOR,
    CategoryGraph,
    GraphUpdateBuffer,
    ItemTable,
    entry_norms,
    featurize_texts,
    tokenize_texts,
)
from bheisr.recommenders import CandidateIndex
from bheisr.simulate import build_assets
from oracle import (
    FeatureVector,
    assert_equals_the_oracle,
    corpus_of,
    correlation,
    featurize,
    featurize_reference,
    featurize_tokens,
    item_vocabulary,
    node_entries,
    node_vectors,
    row_lists,
    tokenize,
)


def make_item(id, cat, sub, title, abstract="", weights=None):
    return Item(id=id, category=cat, subcategory=sub, title=title,
                abstract=abstract,
                category_weights=weights or {cat: 1.0})


def make_corpus(items, taxonomy):
    return corpus_of({it.id: it for it in items}, [],
                     taxonomy=taxonomy, users=())


def graph_of(corpus, vocab=None):
    """CategoryGraph.build over the corpus's candidate index; the vocabulary
    is the corpus's own unless given."""
    vocab, entries = featurize_texts(
        [item.text() for item in corpus.items.values()], vocab)
    return CategoryGraph.build(
        corpus, ItemTable(CandidateIndex.build(corpus, vocab, entries)))


def member_counts(graph) -> dict:
    """category -> the graph's count of its members."""
    return dict(zip(graph.categories, graph.member_counts.tolist()))


def appended_rows(graph):
    """text -> (term ids, weights) of every row the graph's table appended
    after the index rows, as lists."""
    return {text: row_lists(graph.table, row)
            for text, row in graph.table.text_rows.items()}


def batch_tokens(texts: list) -> list:
    """Each text's tokens as tokenize_texts finds them: its runs between
    separators, less the runs shorter than 2."""
    docs = [[]]
    for run in tokenize_texts(texts):
        if run == SEPARATOR:
            docs.append([])
        elif len(run) > 1:
            docs[-1].append(run)
    return docs if texts else []


# characters whose lowercase is ASCII (the Kelvin sign, dotted capital I),
# str.split whitespace the regex splits on too, NUL, a combining mark, a
# ligature and fullwidth letters
TOKEN_ALPHABET = "aZ09 -x.\u212a\u0130\0\x1c\x1d\x1e\x1f\x85\xa0\u0301\ufb01\uff21\uff41"
token_texts = st.lists(st.text(alphabet=st.sampled_from(TOKEN_ALPHABET)) | st.text(),
                       max_size=8)


class TestTokenize:
    def test_lowercases_and_splits(self):
        assert batch_tokens(["Hello, WORLD-news 2024!"]) == \
            [["hello", "world", "news", "2024"]]

    def test_single_char_tokens_dropped(self):
        assert batch_tokens(["a b cd e9 x"]) == [["cd", "e9"]]

    def test_empty(self):
        assert batch_tokens([]) == []
        assert batch_tokens(["", "!?.", ""]) == [[], [], []]

    @settings(max_examples=300, deadline=None)
    @given(texts=token_texts)
    @example(texts=["ab", "cd"])                 # runs touch the separator
    @example(texts=["ab\0cd", "\0", "e\0f", "gh\0"])   # NUL inside texts
    @example(texts=["", "", "x", ""])            # empty texts
    @example(texts=["\u212a\u212a", "i\u0130", "\ufb01x \uff21\uff21"])
    def test_batch_tokens_equal_the_oracle_text_by_text(self, texts):
        assert batch_tokens(texts) == [tokenize(text) for text in texts]
        runs = [re.findall(r"[a-z0-9]+", text.lower()) for text in texts]
        assert batch_tokens(texts) == [[t for t in r if len(t) >= 2] for r in runs]


class TestVocabulary:
    def test_idf_formula(self):
        items = [make_item("1", "c", "c/s", "apple banana"),
                 make_item("2", "c", "c/s", "apple cherry"),
                 make_item("3", "c", "c/s", "apple banana cherry")]
        vocab = item_vocabulary(items)
        # df: apple 3, banana 2, cherry 2
        tid = vocab.term_ids
        assert vocab.idf[tid["apple"]] == pytest.approx(math.log(4 / 4) + 1.0)
        assert vocab.idf[tid["banana"]] == pytest.approx(math.log(4 / 3) + 1.0)
        assert vocab.idf[tid["cherry"]] == pytest.approx(math.log(4 / 3) + 1.0)

    def test_df_counts_documents_not_occurrences(self):
        items = [make_item("1", "c", "c/s", "echo echo echo"),
                 make_item("2", "c", "c/s", "other")]
        vocab = item_vocabulary(items)
        assert vocab.idf[vocab.term_ids["echo"]] == pytest.approx(math.log(3 / 2) + 1.0)

    def test_terms_ordered_by_id(self):
        vocab = item_vocabulary([make_item("1", "c", "c/s", "zz aa mm")])
        assert list(vocab.term_ids) == ["aa", "mm", "zz"]


class TestFeaturize:
    def test_hand_computed_entries(self):
        items = [make_item("1", "c", "c/s", "apple banana apple"),
                 make_item("2", "c", "c/s", "banana cherry")]
        vocab = item_vocabulary(items)
        vec = featurize(items[0], vocab)
        tid = vocab.term_ids
        idf_a = math.log(3 / 2) + 1.0
        idf_b = math.log(3 / 3) + 1.0
        assert vec.entries[tid["apple"]] == pytest.approx((2 / 3) * idf_a)
        assert vec.entries[tid["banana"]] == pytest.approx((1 / 3) * idf_b)
        assert tid["cherry"] not in vec.entries
        expect = math.sqrt(((2 / 3) * idf_a) ** 2 + ((1 / 3) * idf_b) ** 2)
        assert vec.norm == pytest.approx(expect)

    def test_unknown_tokens_ignored_but_count_in_length(self):
        items = [make_item("1", "c", "c/s", "apple")]
        vocab = item_vocabulary(items)
        outside = make_item("2", "c", "c/s", "apple mystery mystery mystery")
        vec = featurize(outside, vocab)
        assert vec.entries[vocab.term_ids["apple"]] == pytest.approx(0.25 * 1.0 * (math.log(2 / 2) + 1.0))

    def test_empty_text_zero_vector(self):
        vocab = item_vocabulary([make_item("1", "c", "c/s", "apple")])
        assert featurize(make_item("2", "c", "c/s", ""), vocab).is_zero()


# tokens from a small pool, so documents repeat terms and share them
CORPUS_WORDS = ["aa", "bb", "cc", "dd", "ee", "ff", "gg", "hh", "ii", "jj",
                "kk", "ll"]
documents = st.lists(st.lists(st.sampled_from(CORPUS_WORDS), max_size=30),
                     max_size=12)


class TestFeaturizeTexts:
    @settings(max_examples=300, deadline=None)
    @given(docs=documents, known=st.integers(0, 12))
    @example(docs=[], known=0)                       # no items
    @example(docs=[[], ["aa", "aa"], []], known=3)   # empty token lists
    @example(docs=[["aa", "bb"], ["cc", "aa"]], known=0)   # empty vocabulary
    def test_equals_featurize_tokens_item_by_item(self, docs, known):
        """Entries in order, weights and norms equal featurize_tokens with ==;
        the vocabulary comes from the first `known` documents, so the others
        may hold tokens outside it."""
        texts = [" ".join(tokens) for tokens in docs]
        vocab, _ = featurize_texts(texts[:known])
        vocab_again, entries = featurize_texts(texts, vocab)
        assert vocab_again is vocab
        norms = entry_norms(entries)
        assert len(entries.counts) == len(norms) == len(docs)
        starts = entries.starts
        for r, tokens in enumerate(docs):
            vec = featurize_tokens(tokens, vocab)
            span = slice(starts[r], starts[r] + entries.counts[r])
            got = list(zip(entries.terms[span].tolist(),
                           entries.weights[span].tolist()))
            assert got == list(vec.entries.items()), r
            assert norms[r] == vec.norm, r

    @settings(max_examples=200, deadline=None)
    @given(texts=token_texts, known=st.integers(0, 8))
    def test_equals_the_per_text_pipeline(self, texts, known):
        """The vocabulary, idf bits and entry arrays equal featurize_reference's,
        over the texts' own vocabulary and over one from the first `known`."""
        assert_same_features(featurize_texts(texts), featurize_reference(texts))
        vocab = featurize_texts(texts[:known])[0]
        entries = featurize_texts(texts, vocab)[1]
        for r, text in enumerate(texts):
            vec = featurize_tokens(tokenize(text), vocab)
            span = slice(entries.starts[r], entries.starts[r] + entries.counts[r])
            assert list(zip(entries.terms[span].tolist(),
                            entries.weights[span].tolist())) == \
                list(vec.entries.items()), r


def assert_same_features(got, expected):
    """Equal term ids in order, idf bits, and entry arrays with their dtypes."""
    (vocab, entries), (ref_vocab, ref_entries) = got, expected
    assert list(vocab.term_ids.items()) == list(ref_vocab.term_ids.items())
    assert vocab.idf.dtype == ref_vocab.idf.dtype
    assert vocab.idf.tobytes() == ref_vocab.idf.tobytes()
    for name, array, ref in zip(entries._fields, entries, ref_entries):
        assert array.dtype == ref.dtype, name
        assert array.shape == ref.shape, name
        assert array.tobytes() == ref.tobytes(), name


class TestBuildAssets:
    @pytest.mark.parametrize("spec", [
        SynthSpec(n_users=20, bias_profile=10),
        SynthSpec(n_users=30, bias_profile=10),     # the nudge workload
        SynthSpec(n_users=100, bias_profile=10),    # the population workload
        SynthSpec(n_users=2000, bias_profile=200),  # paper shape
    ], ids=["20-10", "30-10", "100-10", "paper"])
    def test_equals_the_per_text_pipeline(self, spec):
        corpus = synth_corpus(spec)
        index = build_assets(corpus)
        assert_same_features((index.vocab, index.entries), featurize_reference(
            [item.text() for item in corpus.items.values()]))

    def test_equals_the_per_text_pipeline_on_a_loaded_corpus(self, tmp_path):
        # titles with NUL, characters whose lowercase is ASCII, a combining
        # mark, a ligature, fullwidth letters and separators str.split knows
        corpus = synth_corpus(SynthSpec(n_users=20, bias_profile=10))
        marks = ["na\u00efve caf\u00e9", "ab\0cd", "\u212aelvin \u0130stanbul",
                 "e\u0301t\u00e9 \ufb01le", "\uff21\uff22 ab\x1ccd\x85ef\xa0gh",
                 "\0", "X\0"]
        for n, item in enumerate(corpus.items.values()):
            item.title = f"{marks[n % len(marks)]}{item.title}"
        save_corpus(corpus, tmp_path / "marked.json")
        loaded = load_corpus(tmp_path / "marked.json")
        texts = [item.text() for item in loaded.items.values()]
        assert any("\0" in text for text in texts)
        index = build_assets(loaded)
        assert_same_features((index.vocab, index.entries), featurize_reference(texts))


class TestCorrelation:
    def test_identical_vectors_give_one(self):
        v = FeatureVector.from_entries({0: 0.3, 1: 0.4})
        assert correlation(v, v) == pytest.approx(1.0)

    def test_orthogonal_vectors_give_zero(self):
        a = FeatureVector.from_entries({0: 1.0})
        b = FeatureVector.from_entries({1: 1.0})
        assert correlation(a, b) == 0.0

    def test_hand_value(self):
        a = FeatureVector.from_entries({0: 1.0, 1: 2.0})
        b = FeatureVector.from_entries({1: 3.0, 2: 4.0})
        assert correlation(a, b) == pytest.approx(6.0 / (math.sqrt(5) * 5.0))

    def test_zero_norm_short_circuits(self):
        assert correlation(FeatureVector.from_entries({}),
                           FeatureVector.from_entries({0: 1.0})) == 0.0

    def test_clamped_to_unit_interval(self):
        # accumulated float error can push cosine of a vector with itself
        # past 1; the clamp keeps downstream scores bounded
        entries = {i: 0.1 + 0.001 * i for i in range(50)}
        v = FeatureVector.from_entries(entries)
        assert correlation(v, v) <= 1.0


def two_category_corpus():
    items = [
        make_item("i1", "food", "food/s", "soup recipe", "warm soup recipe"),
        make_item("i2", "food", "food/s", "bread recipe", "oven bread"),
        make_item("i3", "tech", "tech/s", "chip design", "silicon chip design"),
        make_item("i4", "tech", "tech/s", "chip recipe", "a recipe for chips"),
    ]
    return make_corpus(items, {"food": ("food/s",), "tech": ("tech/s",)})


class TestCategoryGraph:
    def test_category_vector_is_mean_of_members(self):
        corpus = two_category_corpus()
        graph = graph_of(corpus)
        v1 = featurize(corpus.items["i1"], graph.table.index.vocab)
        v2 = featurize(corpus.items["i2"], graph.table.index.vocab)
        food = node_vectors(graph)["food"]
        for tid in set(v1.entries) | set(v2.entries):
            expect = (v1.entries.get(tid, 0.0) + v2.entries.get(tid, 0.0)) / 2
            assert food.entries.get(tid, 0.0) == pytest.approx(expect)

    def test_rho_symmetric_and_bounded(self):
        graph = graph_of(two_category_corpus())
        r = graph.rho_row("food")[graph.rows["tech"]]
        assert r == graph.rho_row("tech")[graph.rows["food"]]
        assert 0.0 < r <= 1.0   # shared "recipe" token links them

    def test_rho_self_is_one(self):
        graph = graph_of(two_category_corpus())
        assert graph.rho_row("food")[graph.rows["food"]] == 1.0

    def test_index_of_another_item_order_rejected(self):
        # corpus item r must be index row r: a reordered corpus shares every
        # item with the index but not the order
        corpus = two_category_corpus()
        table = graph_of(corpus).table
        reordered = make_corpus(reversed(corpus.items.values()),
                                corpus.taxonomy)
        with pytest.raises(ValueError, match="candidate index was built from "
                                             "another corpus"):
            CategoryGraph.build(reordered, table)

    def test_multi_category_item_joins_both(self):
        corpus = two_category_corpus()
        corpus.items["i5"] = make_item("i5", "food", "food/s", "fusion",
                                       weights={"food": 0.5, "tech": 0.5})
        graph = graph_of(corpus)
        assert member_counts(graph) == {"food": 3, "tech": 3}
        assert_equals_the_oracle(graph, list(corpus.items.values()))

    def test_zero_weight_category_excluded(self):
        corpus = two_category_corpus()
        corpus.items["i5"] = make_item("i5", "food", "food/s", "pure food",
                                       weights={"food": 1.0, "tech": 0.0})
        graph = graph_of(corpus)
        assert member_counts(graph) == {"food": 3, "tech": 2}
        assert_equals_the_oracle(graph, list(corpus.items.values()))

    def test_only_items_outside_the_index_are_featurized(self):
        corpus = two_category_corpus()
        graph = graph_of(corpus)
        new = make_item("new", "food", "food/s", "pie recipe")
        graph.accept_items([new])
        assert_same_graph(graph, graph_of(
            make_corpus([*corpus.items.values(), new],
                        {"food": ("food/s",), "tech": ("tech/s",)}), graph.table.index.vocab))
        # a corpus item accepted again folds its index row
        graph.accept_items([corpus.items["i3"], new])
        assert list(graph.table.text_rows) == [new.text()]
        assert len(graph.table.entries.counts) == len(corpus.items) + 1
        assert_equals_the_oracle(
            graph, [*corpus.items.values(), new, corpus.items["i3"], new])


    def test_build_folds_corpus_item_r_as_index_row_r(self):
        # the table finds corpus item r at index row r
        corpus = two_category_corpus()
        graph = graph_of(corpus)
        assert_equals_the_oracle(graph, list(corpus.items.values()))


class TestIncrementalUpdate:
    def test_matches_full_rebuild_bit_for_bit(self):
        corpus = two_category_corpus()
        graph = graph_of(corpus)
        new = make_item("i9", "tech", "tech/s", "solar panel design",
                        "panel design recipe")
        graph.accept_items([new])

        corpus.items["i9"] = new
        rebuilt = graph_of(corpus, graph.table.index.vocab)
        assert node_vectors(graph)["tech"].entries == \
            node_vectors(rebuilt)["tech"].entries
        assert graph.edges == rebuilt.edges

    def test_random_update_sequences_match_rebuild(self):
        rng = np.random.default_rng(7)
        corpus = two_category_corpus()
        vocab = item_vocabulary(corpus.items.values())
        graph = graph_of(corpus, vocab)
        words = ["soup", "chip", "recipe", "panel", "bread", "design"]
        for n in range(40):
            cat = ["food", "tech"][rng.integers(2)]
            title = " ".join(rng.choice(words, size=3))
            item = make_item(f"x{n}", cat, f"{cat}/s", title)
            graph.accept_items([item])
            corpus.items[item.id] = item
        rebuilt = graph_of(corpus, vocab)
        vectors, rebuilt_vectors = node_vectors(graph), node_vectors(rebuilt)
        for cat in graph.categories:
            assert vectors[cat].entries == rebuilt_vectors[cat].entries
        assert graph.edges == rebuilt.edges

    def test_three_generated_items_give_the_rebuilt_edges(self):
        # food and tech end with six terms each, in different orders, and
        # FeatureVector.dot sums in its first argument's order: taking the
        # last-folded endpoint (tech) first gives 0.6506297430699626, one ulp
        # off the rebuild's sorted-order 0.6506297430699625
        items = three_category_items()
        graph = graph_of(make_corpus(items, THREE_CATEGORIES))
        generated = [make_item("gi:u:0", "food", "food/generated", ""),
                     make_item("gi:u:1", "arts", "arts/generated", ""),
                     make_item("gi:u:2", "tech", "tech/generated", "chip soup")]
        for item in generated:
            graph.accept_items([item])
        rebuilt = graph_of(
            make_corpus(items + generated, THREE_CATEGORIES), graph.table.index.vocab)
        assert graph.edges[("food", "tech")] == rebuilt.edges[("food", "tech")]
        assert list(graph.edges.items()) == list(rebuilt.edges.items())

    def test_to_json_dict_shape(self):
        doc = graph_of(two_category_corpus()).to_json_dict()
        assert {n["category"] for n in doc["nodes"]} == {"food", "tech"}
        assert doc["edges"][0]["a"] == "food"
        assert 0.0 <= doc["edges"][0]["rho"] <= 1.0


GRAPH_WORDS = ["soup", "chip", "recipe", "panel", "bread", "design", "opera"]
THREE_CATEGORIES = {"food": ("food/s",), "tech": ("tech/s",), "arts": ("arts/s",)}


def three_category_items():
    return [
        make_item("i1", "food", "food/s", "soup recipe", "warm soup recipe"),
        make_item("i2", "tech", "tech/s", "chip design", "silicon chip"),
        make_item("i3", "arts", "arts/s", "opera review", "opera notes"),
        make_item("i4", "food", "food/s", "bread chip", "oven bread",
                  weights={"food": 0.5, "tech": 0.5}),
    ]


# one accept: a new item over one or two categories (weights may be 0), or a
# repeat of an earlier accept
accept_steps = st.one_of(
    st.tuples(st.just("new"),
              st.lists(st.sampled_from(sorted(THREE_CATEGORIES)), min_size=1,
                       max_size=2, unique=True),
              st.lists(st.sampled_from(GRAPH_WORDS), min_size=0, max_size=4),
              st.sampled_from([0.0, 0.3, 0.5, 1.0])),
    st.tuples(st.just("again"), st.integers(0, 10**6)))


class TestIncrementalGraphMatchesOracle:
    @settings(max_examples=150, deadline=None)
    @given(steps=st.lists(accept_steps, max_size=25))
    def test_vectors_and_edges_equal_the_mean_of_members(self, steps):
        items = three_category_items()
        graph = graph_of(make_corpus(items, THREE_CATEGORIES))
        members = {"food": ["i1", "i4"], "tech": ["i2", "i4"], "arts": ["i3"]}
        accepted = list(items)
        for n, step in enumerate(steps):
            if step[0] == "new":
                _, cats, words, second = step
                weights = {cats[0]: 1.0 - second if len(cats) == 2 else 1.0}
                if len(cats) == 2:
                    weights[cats[1]] = second
                item = make_item(f"gi:u:{n}", cats[0], f"{cats[0]}/generated",
                                 " ".join(words), weights=weights)
            else:
                item = accepted[step[1] % len(accepted)]
            graph.accept_items([item])
            accepted.append(item)
            for cat, w in item.category_weights.items():
                if w > 0.0:
                    members[cat].append(item.id)
        assert member_counts(graph) == {c: len(ids) for c, ids in members.items()}
        assert_equals_the_oracle(graph, accepted)


FOUR_CATEGORIES = dict(THREE_CATEGORIES, sport=("sport/s",))


class TestArrayEdgeCases:
    def test_tie_in_term_count_sums_in_the_smaller_categorys_order(self):
        # arts and food end with six terms each; summed in food's order the
        # dot product is one ulp above the one summed in arts' order
        items = [make_item("i0", "arts", "arts/s", "design opera warm panel"),
                 make_item("i1", "food", "food/s", "warm chip recipe warm"),
                 make_item("i2", "arts", "arts/s", "chip soup opera"),
                 make_item("i3", "food", "food/s", "soup silicon chip panel")]
        taxonomy = {"arts": ("arts/s",), "food": ("food/s",)}
        built = graph_of(make_corpus(items, taxonomy))
        vectors = node_vectors(built)
        arts, food = vectors["arts"], vectors["food"]
        assert len(arts.entries) == len(food.entries)
        assert correlation(food, arts) != correlation(arts, food)
        assert built.edges[("arts", "food")] == correlation(arts, food)
        assert_equals_the_oracle(built, items)
        folded = graph_of(make_corpus(items[:1], taxonomy), built.table.index.vocab)
        for item in items[1:]:
            folded.accept_items([item])
        assert_same_graph(folded, built)
        assert_equals_the_oracle(folded, items)

    def test_empty_text_item_is_a_member_without_terms(self):
        # arts gains a member that halves its node; sport holds only an
        # empty-text item, so its node is the zero vector and its edges 0.0
        items = three_category_items() + [
            make_item("e1", "arts", "arts/s", ""),
            make_item("e2", "sport", "sport/s", "")]
        built = graph_of(make_corpus(items, FOUR_CATEGORIES))
        assert node_vectors(built)["sport"].is_zero()
        assert all(rho == 0.0 for (a, b), rho in built.edges.items()
                   if "sport" in (a, b))
        assert member_counts(built)["arts"] == 2
        assert member_counts(built)["sport"] == 1
        assert node_vectors(built)["arts"].entries == {
            tid: w / 2 for tid, w in featurize(items[2], built.table.index.vocab).entries.items()}
        assert_equals_the_oracle(built, items)
        folded = graph_of(make_corpus(items[:4], FOUR_CATEGORIES), built.table.index.vocab)
        folded.accept_items(items[4:])
        assert_same_graph(folded, built)
        assert_equals_the_oracle(folded, items)

# one accept: a new item over one to three categories with weights that may
# be 0, or a repeat of an earlier accept
batch_accepts = st.one_of(
    st.tuples(st.just("new"),
              st.lists(st.tuples(st.sampled_from(sorted(FOUR_CATEGORIES)),
                                 st.sampled_from([0.0, 0.3, 0.5, 1.0])),
                       min_size=1, max_size=3, unique_by=lambda cw: cw[0]),
              st.lists(st.sampled_from(GRAPH_WORDS), min_size=0, max_size=4)),
    st.tuples(st.just("again"), st.integers(0, 10**6)))


def assert_same_graph(graph, other):
    """Equal member counts, sums, nodes and edges, in the same orders; the
    graphs may hold different item vectors, as their indexes may differ."""
    assert np.array_equal(graph.member_counts, other.member_counts)
    vectors, twins = node_vectors(graph), node_vectors(other)
    sums, twin_sums = node_entries(graph, graph.term_sums), \
        node_entries(other, other.term_sums)
    for cat in graph.categories:
        assert list(sums[cat].items()) == list(twin_sums[cat].items())
        vec, twin = vectors[cat], twins[cat]
        assert list(vec.entries.items()) == list(twin.entries.items())
        assert vec.norm == twin.norm
    assert list(vectors) == list(twins)
    assert list(graph.edges.items()) == list(other.edges.items())


class TestBatchingDoesNotChangeTheGraph:
    @settings(max_examples=150, deadline=None)
    @given(accepts=st.lists(batch_accepts, max_size=16), data=st.data())
    def test_any_split_into_batches_is_bit_identical(self, accepts, data):
        """The same accepts, split into any batches (the first one folded by
        build), give equal members, sums, vectors and edges in the same key
        order, and every edge is correlation(vectors[a], vectors[b]), a < b."""
        sequence = [
            make_item("i1", "food", "food/s", "soup recipe", "warm soup recipe"),
            make_item("i2", "tech", "tech/s", "chip design", "silicon chip"),
            make_item("i3", "arts", "arts/s", "opera review", "opera notes"),
            make_item("i4", "sport", "sport/s", "bread panel", "oven panel",
                      weights={"sport": 0.5, "tech": 0.5}),
        ]
        vocab = item_vocabulary(sequence)
        for n, accept in enumerate(accepts):
            if accept[0] == "new":
                _, weights, words = accept
                cat = weights[0][0]
                sequence.append(make_item(f"gi:u:{n}", cat, f"{cat}/generated",
                                          " ".join(words), weights=dict(weights)))
            else:
                sequence.append(sequence[accept[1] % len(sequence)])
        # build folds the first batch, which a corpus holds only while no id
        # repeats
        ids = [item.id for item in sequence]
        distinct = next((n for n in range(len(ids)) if ids[n] in ids[:n]),
                        len(ids))

        def fold(n_built, cuts):
            graph = graph_of(
                make_corpus(sequence[:n_built], FOUR_CATEGORIES), vocab)
            bounds = [n_built, *cuts, len(sequence)]
            for lo, hi in zip(bounds, bounds[1:]):
                graph.accept_items(sequence[lo:hi])
            return graph

        n_built = data.draw(st.integers(0, distinct), label="n_built")
        cuts = sorted(data.draw(st.sets(st.integers(n_built, len(sequence))),
                                label="cuts"))
        split = fold(n_built, cuts)
        vectors = node_vectors(split)
        for (a, b), rho in split.edges.items():
            assert a < b and rho == correlation(vectors[a], vectors[b])
        assert_equals_the_oracle(split, sequence)
        assert_same_graph(split, fold(distinct, []))
        assert_same_graph(split, fold(0, range(len(sequence))))
        # every row of the hop table holds the correlation oracle, and on
        # the diagonal whether the node's vector is nonzero
        for a in split.categories:
            assert split.rho_row(a) == [split.rho_row(a)[split.rows[c]]
                                        for c in split.categories]
            assert split.rho_row(a) == [
                (0.0 if vectors[a].is_zero() else 1.0) if a == c
                else correlation(vectors[min(a, c)], vectors[max(a, c)])
                for c in split.categories]


class TestGraphUpdateBuffer:
    def test_reads_see_frozen_graph_until_flush(self):
        graph = graph_of(two_category_corpus())
        before = graph.rho_row("food")[graph.rows["tech"]]
        buffer = GraphUpdateBuffer(graph)
        buffer.accept_items([make_item("z", "food", "food/s", "chip design")])
        assert graph.rho_row("food")[graph.rows["tech"]] == before
        assert buffer.flush() == 1
        assert graph.rho_row("food")[graph.rows["tech"]] != before
        assert buffer.flush() == 0

    def test_multi_item_flush_folds_all_and_returns_count(self):
        corpus = two_category_corpus()
        graph = graph_of(corpus)
        before = graph.member_counts.copy()
        items = [make_item("z1", "food", "food/s", "chip design"),
                 make_item("z2", "tech", "tech/s", "soup panel"),
                 make_item("z3", "food", "food/s", "bread chip",
                           weights={"food": 0.5, "tech": 0.5})]
        buffer = GraphUpdateBuffer(graph)
        buffer.accept_items(items[:2])
        buffer.accept_items(items[2:])
        assert np.array_equal(graph.member_counts, before)
        assert buffer.flush() == 3
        corpus.items.update((item.id, item) for item in items)
        assert_same_graph(graph, graph_of(corpus, graph.table.index.vocab))
        assert buffer.flush() == 0


    def test_member_counts_count_every_positive_weight(self):
        # after build and after each flush, a category counts every item
        # folded in with a positive weight on it, repeats included
        corpus = two_category_corpus()
        graph = graph_of(corpus)
        folded = list(corpus.items.values())
        buffer = GraphUpdateBuffer(graph)
        batches = [[make_item("z1", "food", "food/s", "chip design",
                              weights={"food": 0.5, "tech": 0.5})],
                   [make_item("z2", "tech", "tech/s", "soup",
                              weights={"food": 0.0, "tech": 1.0}),
                    corpus.items["i1"]],
                   [],
                   [make_item("z3", "food", "food/s", "", weights={"food": 1.0})] * 2]
        for batch in [[], *batches]:
            buffer.accept_items(batch)
            buffer.flush()
            folded.extend(batch)
            assert member_counts(graph) == {
                c: sum(item.category_weights.get(c, 0.0) > 0.0 for item in folded)
                for c in graph.categories}
        assert member_counts(graph) == {"food": 6, "tech": 4}


class TestItemTable:
    @settings(max_examples=40, deadline=None)
    @given(batches=st.lists(st.lists(st.lists(st.sampled_from(GRAPH_WORDS + ["zz"]),
                                              max_size=4), max_size=6),
                            max_size=12))
    @example(batches=[[["soup"]] * 3] + [[[a, b]] for a in GRAPH_WORDS
                                          for b in GRAPH_WORDS])
    def test_rows_equal_featurize_however_the_table_grows(self, batches):
        # the arrays behind the appended rows run out of room and grow again
        # and again; every row still equals featurize of its text, a text
        # keeps one row, and the candidate index is never written
        corpus = two_category_corpus()
        vocab, entries = featurize_texts(
            [item.text() for item in corpus.items.values()])
        index = CandidateIndex.build(corpus, vocab, entries)
        before = [array.copy() for array in index.entries]
        table, seen = ItemTable(index), []
        for n, batch in enumerate(batches):
            items = [make_item(f"gi:u:{n}.{m}", "food", "food/generated",
                               " ".join(words)) for m, words in enumerate(batch)]
            items.append(corpus.items["i1"])
            rows = table.rows(items)
            assert rows[-1] == index.pos["i1"]
            seen.extend(zip(items, rows.tolist()))
            assert len(table.entries.counts) == len(index.ids) + len(table.text_rows)
            for item, row in seen:
                assert row == table.rows([item])[0]
                assert list(zip(*row_lists(table, row))) == \
                    list(featurize(item, vocab).entries.items())
        assert set(table.text_rows) == {item.text() for item, row in seen
                                        if item.id.startswith("gi:")}
        assert all(np.array_equal(was, now) and was.dtype == now.dtype
                   for was, now in zip(before, index.entries))
