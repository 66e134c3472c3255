"""Dataset loaders, synthetic corpus, and the JSON round trip."""

import collections
import dataclasses
import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bheisr.belief import build_all
from bheisr.corpus import (
    ORIGIN_DATASET,
    ORIGIN_GENERATED,
    JSON_KEYS,
    Item,
    ParseError,
    SynthSpec,
    _ordinalize,
    _pool_size,
    corpus_from_json,
    corpus_to_json,
    load_behaviors,
    load_corpus,
    load_ratings,
    save_corpus,
    synth_corpus,
)
from bheisr.recommenders import acceptance_share
from oracle import corpus_of, log_rows

BEHAVIORS = """\
u1\t100\tsports\tsports/soccer\tCup final recap\tA long match report\t1
u1\t90\tsports\tsports/soccer\tCup final recap\tA long match report\t0
u2\t95\tnews\tnews/world\tSummit opens\t\t1
u2\t100\tnews\tnews/world\tSummit opens\t\t1
"""


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadBehaviors:
    def test_items_deduplicate_on_content(self, tmp_path):
        corpus = load_behaviors(write(tmp_path / "b.tsv", BEHAVIORS))
        assert len(corpus.items) == 2
        assert len(corpus.log_user) == 4
        assert corpus.users == ("u1", "u2")

    def test_timestamps_become_sort_ordinals(self, tmp_path):
        corpus = load_behaviors(write(tmp_path / "b.tsv", BEHAVIORS))
        # raw stamps 100, 90, 95, 100; ties keep file order
        assert [x.timestamp for x in corpus.interactions] == [2, 0, 1, 3]

    def test_six_field_rows_get_empty_abstract(self, tmp_path):
        text = "u1\t1\tnews\tnews/world\tShort row\t1\n"
        corpus = load_behaviors(write(tmp_path / "b.tsv", text))
        (item,) = corpus.items.values()
        assert item.abstract == ""
        assert item.category_weights == {"news": 1.0}

    def test_taxonomy_collects_subcategories(self, tmp_path):
        corpus = load_behaviors(write(tmp_path / "b.tsv", BEHAVIORS))
        assert corpus.taxonomy == {"news": ("news/world",),
                                   "sports": ("sports/soccer",)}

    def test_click_signal_interest(self, tmp_path):
        corpus = load_behaviors(write(tmp_path / "b.tsv", BEHAVIORS))
        flags = [corpus.interested(x) for x in corpus.interactions]
        assert flags == [True, False, True, True]

    def test_blank_lines_skipped(self, tmp_path):
        corpus = load_behaviors(write(tmp_path / "b.tsv", "\n" + BEHAVIORS + "\n"))
        assert len(corpus.log_user) == 4

    def test_wrong_field_count_raises_with_line(self, tmp_path):
        path = write(tmp_path / "b.tsv", "u1\t1\tnews\n")
        with pytest.raises(ParseError, match="line 1"):
            load_behaviors(path)

    def test_bad_click_value_raises(self, tmp_path):
        path = write(tmp_path / "b.tsv", "u1\t1\tnews\tnews/world\tT\tA\t2\n")
        with pytest.raises(ParseError, match="click"):
            load_behaviors(path)

    def test_empty_category_lands_in_rejects(self, tmp_path):
        text = "u1\t1\t\tnews/world\tT\tA\t1\n" + BEHAVIORS
        corpus = load_behaviors(write(tmp_path / "b.tsv", text))
        assert corpus.rejects == [(1, "empty category")]
        assert len(corpus.log_user) == 4

    def test_rejected_row_between_kept_rows_equals_the_oracle(self, tmp_path):
        # the rejected row's user, item, category and stamp go nowhere
        text = ("u2\t5\tnews\tnews/world\tSummit opens\t\t1\n"
                "u3\t3\tarts\t\tGallery\tNew wing\t1\n"
                "u1\t4\tsports\tsports/soccer\tCup final\tRecap\t0\n")
        corpus = load_behaviors(write(tmp_path / "b.tsv", text))
        items = {"n000000": Item("n000000", "news", "news/world", "Summit opens",
                                 "", {"news": 1.0}),
                 "n000001": Item("n000001", "sports", "sports/soccer",
                                 "Cup final", "Recap", {"sports": 1.0})}
        oracle = corpus_of(items, [("u2", "n000000", 1, 1.0),
                                   ("u1", "n000001", 0, 0.0)],
                           {"news": ("news/world",), "sports": ("sports/soccer",)},
                           ("u1", "u2"))
        assert list(corpus.items) == list(oracle.items)
        assert corpus.items == oracle.items
        assert list(corpus.taxonomy.items()) == list(oracle.taxonomy.items())
        assert corpus.users == oracle.users
        for column in ("log_user", "log_item", "log_ts", "log_signal"):
            assert getattr(corpus, column).dtype == getattr(oracle, column).dtype
            assert np.array_equal(getattr(corpus, column), getattr(oracle, column))
        assert corpus.rejects == [(2, "empty subcategory")]


RATINGS_MOVIES = """\
id,genres,title,overview
m1,Action|Thriller|Crime,Heist night,Crew plans one last job
m2,Drama,Quiet rooms,Two siblings settle an estate
m3,,No genre film,Should be rejected
"""

RATINGS_ROWS = """\
user_id,movie_id,rating,timestamp
a,m1,4.0,10
a,m1,1.0,20
b,m2,2.0,5
b,m9,5.0,6
c,m2,9.0,7
"""


class TestLoadRatings:
    def build(self, tmp_path, rows=RATINGS_ROWS):
        write(tmp_path / "movies.csv", RATINGS_MOVIES)
        write(tmp_path / "ratings.csv", rows)
        return load_ratings(str(tmp_path))

    def test_genres_split_into_taxonomy(self, tmp_path):
        corpus = self.build(tmp_path)
        assert corpus.taxonomy["Action"] == ("Action/Crime", "Action/Thriller")
        assert corpus.taxonomy["Drama"] == ("Drama/general",)

    def test_rejects_no_genre_bad_rating_unknown_movie(self, tmp_path):
        corpus = self.build(tmp_path)
        reasons = [r for _, r in corpus.rejects]
        assert any("no genres" in r for r in reasons)
        assert any("unknown movie" in r for r in reasons)
        assert any("outside" in r for r in reasons)

    def test_duplicate_pair_keeps_latest_timestamp(self, tmp_path):
        corpus = self.build(tmp_path)
        a_rows = [x for x in corpus.interactions if x.user_id == "a"]
        assert len(a_rows) == 1
        assert a_rows[0].signal == 1.0

    def test_rating_interest_threshold(self, tmp_path):
        corpus = self.build(tmp_path, RATINGS_ROWS + "d,m2,2.5,8\ne,m1,2.6,9\n")
        by_user = {x.user_id: x for x in corpus.interactions}
        assert not corpus.interested(by_user["a"])   # kept rating 1.0
        assert not corpus.interested(by_user["b"])   # rating 2.0
        # interested means a rating above 2.5, not at it
        assert by_user["d"].signal == 2.5
        assert not corpus.interested(by_user["d"])
        assert corpus.interested(by_user["e"])
        history_users = {corpus.users[u] for u in corpus.history[0].tolist()}
        assert history_users == {"e"}
        assert corpus.signal_scheme == "rating"

    def test_missing_file_raises(self, tmp_path):
        write(tmp_path / "movies.csv", RATINGS_MOVIES)
        with pytest.raises(FileNotFoundError):
            load_ratings(str(tmp_path))

    def test_unreadable_csv_raises_parse_error(self, tmp_path):
        write(tmp_path / "movies.csv", RATINGS_MOVIES.replace("Heist night",
                                                              "x" * 200_000))
        write(tmp_path / "ratings.csv", RATINGS_ROWS)
        with pytest.raises(ParseError, match="line 2: field larger than"):
            load_ratings(str(tmp_path))

    def test_repeated_movie_id_raises(self, tmp_path):
        # the later row used to replace the earlier, leaving Drama in the
        # taxonomy with no items
        write(tmp_path / "movies.csv", "id,genres,title,overview\n"
              "m1,Drama|Crime,First,a\nm2,Comedy,Second,b\nm1,Horror,Third,c\n")
        write(tmp_path / "ratings.csv", RATINGS_ROWS)
        with pytest.raises(ParseError,
                           match=r"line 4: duplicate movie 'm1' \(first on line 2\)"):
            load_ratings(str(tmp_path))

    def test_bad_header_raises(self, tmp_path):
        write(tmp_path / "movies.csv", "id,title\nm1,x\n")
        write(tmp_path / "ratings.csv", RATINGS_ROWS)
        with pytest.raises(ParseError, match="header"):
            load_ratings(str(tmp_path))


class TestOrdinalize:
    def test_numeric_before_text_and_stable(self):
        assert _ordinalize(["10", "2", "b", "2", "a"]) == [2, 0, 4, 1, 3]

    def test_empty(self):
        assert _ordinalize([]) == []


class TestValidate:
    def base(self):
        items = {"i1": Item(id="i1", category="c", subcategory="c/s",
                            title="t", abstract="", category_weights={"c": 1.0})}
        return corpus_of(items, [("u", "i1", 0, 1.0)],
                         taxonomy={"c": ("c/s",)}, users=("u",))

    def test_ok(self):
        self.base().validate()

    def test_unknown_category(self):
        corpus = self.base()
        corpus.items["i1"].category = "zzz"
        with pytest.raises(ValueError, match="unknown category"):
            corpus.validate()

    def test_subcategory_under_another_category_rejected(self):
        corpus = self.base()
        corpus.taxonomy["d"] = ("d/s",)
        corpus.items["i1"].subcategory = "d/s"
        with pytest.raises(ValueError, match="subcategory 'd/s' not under 'c'"):
            corpus.validate()

    def test_weights_must_sum_to_one(self):
        corpus = self.base()
        corpus.items["i1"].category_weights = {"c": 0.7}
        with pytest.raises(ValueError, match="weights sum"):
            corpus.validate()

    @pytest.mark.parametrize("weights, message", [
        ({"c": 1.5, "d": -0.5}, "not in \\[0, 1\\]"),
        ({"c": math.nan}, "not in \\[0, 1\\]"),
        ({"c": math.inf, "d": -math.inf}, "not in \\[0, 1\\]"),
        ({"c": 0.5, "d": 0.5}, "not on its own category"),
        ({"d": 1.0}, "not on its own category"),
        ({"c": 1.0, "e": 0.0}, "weight on unknown category 'e'"),
    ])
    def test_weights_the_loop_cannot_credit_rejected(self, weights, message):
        corpus = self.base()
        corpus.taxonomy["d"] = ("d/s",)
        corpus.items["i1"].category_weights = weights
        with pytest.raises(ValueError, match=message):
            corpus_from_json(corpus_to_json(corpus))

    @pytest.mark.parametrize("weight", ["x", "1.0", None, True, [1.0]])
    def test_weight_that_is_not_a_number_rejected(self, weight):
        corpus = self.base()
        corpus.items["i1"].category_weights = {"c": weight}
        with pytest.raises(ValueError, match="is not a number"):
            corpus_from_json(corpus_to_json(corpus))

    def test_zero_weight_on_another_category_accepted(self):
        # [0, 1] is closed: only a positive weight must sit on the item's
        # own category
        corpus = self.base()
        corpus.taxonomy["d"] = ("d/s",)
        corpus.items["i1"].category_weights = {"c": 1.0, "d": 0.0}
        text = corpus_to_json(corpus)
        assert corpus_to_json(corpus_from_json(text)) == text

    def test_integer_weight_accepted(self):
        corpus = self.base()
        corpus.items["i1"].category_weights = {"c": 1}
        text = corpus_to_json(corpus)
        assert corpus_to_json(corpus_from_json(text)) == text

    def test_generated_item_may_span_categories(self):
        # in the loop, where the network credits every category it spans;
        # a corpus holds dataset items only
        corpus = self.base()
        corpus.taxonomy["d"] = ("d/s",)
        network = build_all(corpus)["u"]
        spanning = dataclasses.replace(corpus.items["i1"], id="g1",
                                       origin=ORIGIN_GENERATED,
                                       category_weights={"c": 0.5, "d": 0.5})
        network.update_on_feedback(spanning)
        assert network.click_counts["c/generated"] == 0.5
        assert network.click_counts["d/generated"] == 0.5
        corpus.items["i1"] = dataclasses.replace(spanning, id="i1")
        with pytest.raises(ValueError, match="origin 'generated' is not 'dataset'"):
            corpus.validate()

    @pytest.mark.parametrize("origin", [ORIGIN_GENERATED, "bogus"])
    def test_origin_other_than_dataset_rejected(self, origin):
        # the loop reads a generated item's prompt, which a corpus item has
        # not got: a loaded one crashed the cb and bheisr runs mid-run
        corpus = self.base()
        corpus.items["i1"].origin = origin
        message = f"item i1: origin {origin!r} is not 'dataset'"
        with pytest.raises(ValueError, match=message):
            corpus.validate()
        with pytest.raises(ValueError, match=message):
            corpus_from_json(corpus_to_json(corpus))

    @pytest.mark.parametrize("scheme", ["ratings", "Click", ""])
    def test_unknown_signal_scheme_rejected(self, scheme):
        # any scheme but "rating" would read signals as clicks, so a rating
        # of 1.0 to 2.5 would count as interested
        corpus = self.base()
        corpus.signal_scheme = scheme
        message = f"unknown signal scheme {scheme!r}"
        with pytest.raises(ValueError, match=message):
            corpus.validate()
        with pytest.raises(ValueError, match=message):
            corpus_from_json(corpus_to_json(corpus))

    def document(self, scheme, signals):
        """The base corpus's JSON, with one row per signal under `scheme`."""
        doc = json.loads(corpus_to_json(self.base()))
        doc["signal_scheme"] = scheme
        doc["interactions"] = [{"user_id": "u", "item_id": "i1", "timestamp": t,
                                "signal": signal} for t, signal in enumerate(signals)]
        return json.dumps(doc)

    @pytest.mark.parametrize("scheme, signal, message", [
        # each of these used to load, and corpus_to_json then wrote a bare
        # NaN, which is not JSON, or a signal no loader takes
        ("click", math.nan, "signal nan is not a click of 0 or 1"),
        ("click", -3.0, "signal -3.0 is not a click of 0 or 1"),
        ("click", 7.5, "signal 7.5 is not a click of 0 or 1"),
        ("click", 0.5, "signal 0.5 is not a click of 0 or 1"),
        ("click", math.inf, "signal inf is not a click of 0 or 1"),
        ("rating", -3.0, r"signal -3.0 is not a rating in \[0, 5\]"),
        ("rating", 7.5, r"signal 7.5 is not a rating in \[0, 5\]"),
        ("rating", math.nan, r"signal nan is not a rating in \[0, 5\]"),
        ("rating", -math.inf, r"signal -inf is not a rating in \[0, 5\]"),
    ])
    def test_signal_outside_its_scheme_rejected(self, scheme, signal, message):
        # the first bad row is named
        with pytest.raises(ValueError, match=f"interaction row 1: {message}"):
            corpus_from_json(self.document(scheme, [1.0, signal, signal]))

    @pytest.mark.parametrize("scheme, signals", [
        ("click", [0.0, 1.0, -0.0, 0, 1]),
        ("rating", [0.0, 2.5, 5.0, -0.0, 0, 5, 1e-300]),
    ])
    def test_signal_at_the_edges_of_its_scheme_accepted(self, scheme, signals):
        corpus = corpus_from_json(self.document(scheme, signals))
        assert corpus.log_signal.tolist() == signals

    @settings(max_examples=150, deadline=None)
    @given(scheme=st.sampled_from(["click", "rating"]), signals=st.lists(
        st.sampled_from([math.nan, math.inf, -math.inf, -3.0, -0.0, 0.0, 0.5,
                         1.0, 2.5, 5.0, 7.5])
        | st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=4))
    def test_an_accepted_document_writes_json(self, scheme, signals):
        text = self.document(scheme, signals)
        if scheme == "click":
            valid = all(s in (0.0, 1.0) for s in signals)
        else:
            valid = all(0.0 <= s <= 5.0 for s in signals)
        if not valid:
            with pytest.raises(ValueError, match="interaction row"):
                corpus_from_json(text)
            return
        corpus = corpus_from_json(text)

        def no_constant(name):
            raise AssertionError(f"{name} is not JSON")

        written = corpus_to_json(corpus)
        json.loads(written, parse_constant=no_constant)
        assert corpus_to_json(corpus_from_json(written)) == written

    def test_subcategory_under_two_categories_rejected(self):
        corpus = self.base()
        corpus.taxonomy["d"] = ("d/s", "c/s")
        with pytest.raises(ValueError, match="'c/s' is under both 'c' and 'd'"):
            corpus.validate()

    @pytest.mark.parametrize("label", ["c/generated", "d/generated"])
    def test_generated_label_is_reserved(self, label):
        corpus = self.base()
        corpus.taxonomy["c"] = ("c/s", label)
        with pytest.raises(ValueError, match="reserved for generated items"):
            corpus.validate()

    def test_generated_id_is_reserved(self):
        # an item in the candidate index takes its vector by id, so a corpus
        # item named as a generated one would lend it its row
        corpus = self.base()
        corpus.items["i1"].id = "gi:u:1"
        with pytest.raises(ValueError, match="'gi:' are reserved for generated"):
            corpus.validate()

    @pytest.mark.parametrize("name", ["x->y", "->", "y->"])
    def test_prompt_key_separator_in_a_category_rejected(self, name):
        # the paths (x->y, y) and (x, y->y) would both key as "x->y->y",
        # and so share a rejection count
        corpus = self.base()
        corpus.taxonomy[name] = ("d/s",)
        with pytest.raises(ValueError, match=f"category {re.escape(repr(name))}"):
            corpus.validate()

    def test_repeated_user_rejected(self):
        doc = json.loads(corpus_to_json(self.base()))
        doc["users"].append("u")
        with pytest.raises(ValueError, match="duplicate user 'u'"):
            corpus_from_json(json.dumps(doc))

    def test_repeated_item_id_rejected(self):
        # the later record would otherwise silently replace the first
        doc = json.loads(corpus_to_json(self.base()))
        doc["items"].append(dict(doc["items"][0], title="other"))
        with pytest.raises(ValueError, match="duplicate item 'i1'"):
            corpus_from_json(json.dumps(doc))

    @pytest.mark.parametrize("user", ["", ".", "..", "team/u19", "../x", "a\0b"])
    def test_user_id_that_cannot_name_a_file_rejected(self, user):
        # simulate writes networks/<user>.json; "../x" would land outside it
        corpus = self.base()
        corpus = corpus_of(corpus.items, [(user, "i1", 0, 1.0)],
                           taxonomy=corpus.taxonomy, users=(user,))
        with pytest.raises(ValueError, match=f"user id {re.escape(repr(user))}"):
            corpus.validate()
        doc = json.loads(corpus_to_json(self.base()))
        doc["users"] = [user]
        doc["interactions"][0]["user_id"] = user
        with pytest.raises(ValueError, match="cannot name a file"):
            corpus_from_json(json.dumps(doc))

    @pytest.mark.parametrize("records, key", [
        (name, key) for name, keys in JSON_KEYS.items() for key in keys])
    def test_record_missing_a_key_is_a_parse_error(self, records, key):
        doc = json.loads(corpus_to_json(self.base()))
        del doc[records][0][key]
        with pytest.raises(ParseError, match=re.escape(
                f"{records}[0]: missing key {key!r}")):
            corpus_from_json(json.dumps(doc))

    @pytest.mark.parametrize("change, message", [
        (lambda doc: doc.update(items=5), "'items' is not a list"),
        (lambda doc: doc.pop("users"), "missing key 'users'"),
        (lambda doc: doc["taxonomy"].append(["c"]), "taxonomy[1]: not an object"),
        (lambda doc: doc["items"][0].update(category_weights=3),
         "a value of the wrong type"),
        (lambda doc: doc["interactions"][0].update(timestamp=None),
         "a value of the wrong type"),
        # each of these used to load, and some failed mid-run or loaded as
        # another value
        (lambda doc: doc["users"].__setitem__(0, 7),
         "users[0]: a value of the wrong type: 7 is not a string"),
        (lambda doc: doc["interactions"][0].update(user_id=7),
         "interactions[0]: 'user_id' holds a value of the wrong type: 7"),
        (lambda doc: doc["interactions"][0].update(item_id=3),
         "interactions[0]: 'item_id' holds a value of the wrong type: 3"),
        (lambda doc: doc["items"][0].update(id=3),
         "items[0]: 'id' holds a value of the wrong type: 3 is not a string"),
        (lambda doc: doc["items"][0].update(category=1), "items[0]: 'category'"),
        (lambda doc: doc["items"][0].update(subcategory=None),
         "items[0]: 'subcategory'"),
        (lambda doc: doc["items"][0].update(title=5), "items[0]: 'title'"),
        (lambda doc: doc["items"][0].update(abstract=[]), "items[0]: 'abstract'"),
        (lambda doc: doc["items"][0].update(origin=0), "items[0]: 'origin'"),
        (lambda doc: doc["taxonomy"][0].update(category=2),
         "taxonomy[0]: 'category' holds a value of the wrong type"),
        (lambda doc: doc["taxonomy"][0].update(subcategories="c/s"),
         "taxonomy[0]: 'subcategories' holds a value of the wrong type: 'c/s' "
         "is not a list of strings"),
        (lambda doc: doc["taxonomy"][0].update(subcategories=["c/s", 1]),
         "is not a list of strings"),
        (lambda doc: doc["interactions"][0].update(timestamp=1.7),
         "interactions[0]: 'timestamp' holds a value of the wrong type: 1.7 is "
         "not an integer"),
        (lambda doc: doc["interactions"][0].update(timestamp=True),
         "'timestamp' holds a value of the wrong type: True"),
        (lambda doc: doc["interactions"][0].update(signal="1"),
         "interactions[0]: 'signal' holds a value of the wrong type: '1' is not "
         "a number"),
        (lambda doc: doc["interactions"][0].update(signal=True),
         "'signal' holds a value of the wrong type: True"),
    ])
    def test_malformed_document_is_a_parse_error(self, change, message):
        doc = json.loads(corpus_to_json(self.base()))
        change(doc)
        with pytest.raises(ParseError, match=re.escape(message)):
            corpus_from_json(json.dumps(doc))
        with pytest.raises(ParseError, match="not an object"):
            corpus_from_json("[]")

    @pytest.mark.parametrize("change, message", [
        ({"item_id": "ghost"}, "interaction references unknown item 'ghost'"),
        ({"timestamp": 2**64}, "interaction timestamp outside the 64-bit range"),
    ])
    def test_interaction_the_log_cannot_hold_rejected(self, change, message):
        doc = json.loads(corpus_to_json(self.base()))
        doc["interactions"][0].update(change)
        with pytest.raises(ValueError, match=re.escape(message)):
            corpus_from_json(json.dumps(doc))

    def test_repeated_category_rejected(self):
        # the later entry would otherwise silently replace the first
        doc = json.loads(corpus_to_json(self.base()))
        doc["taxonomy"].append({"category": "c", "subcategories": ["c/t"]})
        with pytest.raises(ValueError, match="duplicate category 'c'"):
            corpus_from_json(json.dumps(doc))

    def test_interaction_user_must_exist(self):
        corpus = self.base()
        rows = log_rows(corpus) + [("ghost", "i1", 1, 1.0)]
        with pytest.raises(ValueError, match="unknown user"):
            corpus_of(corpus.items, rows, corpus.taxonomy, corpus.users)
        # a position past the users is the column form of the same fault
        ghost = dataclasses.replace(corpus, log_user=np.array([1], dtype=np.int32))
        with pytest.raises(ValueError, match="unknown user"):
            ghost.validate()

    @pytest.mark.parametrize("column, values", [
        ("log_ts", np.array([0, 1], dtype=np.int64)),
        ("log_signal", np.array([[1.0]]))], ids=["longer", "2-D"])
    def test_log_column_of_another_shape_rejected(self, column, values):
        changed = dataclasses.replace(self.base(), **{column: values})
        with pytest.raises(ValueError, match="must be 1-D and equally long"):
            changed.validate()


def category_clicks(corpus) -> list:
    """Per user, in corpus.users order, a Counter of clicks per category,
    read from the log columns."""
    cats = [item.category for item in corpus.items.values()]
    clicks = [collections.Counter() for _ in corpus.users]
    for u, i in zip(corpus.log_user.tolist(), corpus.log_item.tolist()):
        clicks[u][cats[i]] += 1
    return clicks


# the shapes of test_valid_by_construction_over_a_grid_of_shapes that leave
# a balanced user, by (n_users, bias_profile), and the default 20/10 shape
CLICK_SHAPES = {
    f"{n}-users-{b}-biased": [
        SynthSpec(n_users=n, bias_profile=b, n_categories=c,
                  subcats_per_category=s, n_items=c * s * per + per - 1)
        for c, s, per in itertools.product((3, 4, 17), (1, 2, 4), (1, 7))]
    for n, b in itertools.product((2, 8, 30, 100), (0, 1, 10)) if b < n}
CLICK_SHAPES["default-20-users-10-biased"] = [SynthSpec(bias_profile=10)]


class TestSynthCorpus:
    def test_deterministic_for_same_spec(self):
        spec = SynthSpec(n_users=6, n_categories=5, subcats_per_category=2,
                         n_items=60, bias_profile=2, seed=3)
        assert corpus_to_json(synth_corpus(spec)) == corpus_to_json(synth_corpus(spec))

    def test_seed_changes_pool_assignment(self):
        a = synth_corpus(SynthSpec(bias_profile=10, seed=0))
        b = synth_corpus(SynthSpec(bias_profile=10, seed=1))
        assert corpus_to_json(a) != corpus_to_json(b)

    def test_structure_counts(self):
        spec = SynthSpec()
        corpus = synth_corpus(spec)
        assert len(corpus.items) == spec.n_items
        assert len(corpus.taxonomy) == spec.n_categories
        assert all(len(s) == spec.subcats_per_category
                   for s in corpus.taxonomy.values())
        assert len(corpus.users) == spec.n_users

    @pytest.mark.parametrize("spec", [
        # every count at its least positive value
        SynthSpec(n_users=1, n_categories=1, subcats_per_category=1, n_items=1),
        # exactly one item per subcategory
        SynthSpec(n_users=10, n_categories=3, subcats_per_category=2, n_items=6),
        # every user biased
        SynthSpec(n_users=4, n_categories=5, n_items=40, bias_profile=4),
        # the fewest categories a bias profile needs
        SynthSpec(n_users=10, n_categories=3, n_items=30, bias_profile=2),
    ])
    def test_bounds_are_inclusive(self, spec):
        corpus = synth_corpus(spec)
        assert len(corpus.items) == spec.n_items
        assert len(corpus.users) == spec.n_users

    def test_pool_size_formula(self):
        assert _pool_size(20, 0, 17) == 0
        assert _pool_size(20, 10, 17) == math.ceil(5 * 10 / 20) + 1
        assert _pool_size(4, 4, 3) == 2   # capped at n_categories - 1

    @pytest.mark.parametrize("shapes", CLICK_SHAPES.values(), ids=list(CLICK_SHAPES))
    def test_biased_user_click_shape(self, shapes):
        for shape in shapes:
            clicks = category_clicks(synth_corpus(shape))
            # the pool is where balanced users click less than elsewhere
            balanced = clicks[shape.bias_profile]
            pool = {c for c, n in balanced.items() if n < max(balanced.values())}
            for user in clicks[:shape.bias_profile]:
                top = max(user, key=user.get)
                assert user[top] / sum(user.values()) >= 0.9
                assert top not in pool
                # none on its own pool category, some on each of the others
                assert len(pool - set(user)) == 1

    @pytest.mark.parametrize("shapes", CLICK_SHAPES.values(), ids=list(CLICK_SHAPES))
    def test_balanced_users_touch_every_category(self, shapes):
        for shape in shapes:
            corpus = synth_corpus(shape)
            for user in category_clicks(corpus)[shape.bias_profile:]:
                assert set(user) == set(corpus.taxonomy)

    def test_histories_leave_fresh_items_per_subcategory(self):
        corpus = synth_corpus(SynthSpec())
        touched = {x.item_id for x in corpus.interactions}
        by_sub: dict = {}
        for item in corpus.items.values():
            by_sub.setdefault(item.subcategory, set()).add(item.id)
        for sub, ids in by_sub.items():
            assert ids - touched, f"{sub} has no unseen items"

    def test_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            synth_corpus(SynthSpec(n_users=0))
        with pytest.raises(ValueError):
            synth_corpus(SynthSpec(n_items=3))
        with pytest.raises(ValueError):
            synth_corpus(SynthSpec(bias_profile=99))
        with pytest.raises(ValueError):
            synth_corpus(SynthSpec(n_categories=2, n_items=100, bias_profile=1))
        # it used to fail inside the random stream's derivation
        with pytest.raises(ValueError, match="seed must be non-negative"):
            synth_corpus(SynthSpec(seed=-1))
        # 2.5 users failed mid-build, and seed 1.5 built seed 1's corpus
        for field, value in (("n_users", 2.5), ("seed", 1.5), ("n_items", "90"),
                             ("bias_profile", True), ("n_categories", None)):
            with pytest.raises(ValueError, match=re.escape(
                    f"synth {field} must be an integer, got {value!r}")):
                synth_corpus(SynthSpec(**{field: value}))
        # any integral value is an integer
        assert len(synth_corpus(SynthSpec(n_users=np.int64(3))).users) == 3

    @pytest.mark.parametrize("seed", [0, 1])
    def test_valid_by_construction_over_a_grid_of_shapes(self, seed):
        # synth_corpus does not call Corpus.validate. Each shape has one item
        # per subcategory, or seven and six left over, which makes the pools
        # uneven.
        for n_users, bias, n_cats, n_subs, per_sub in itertools.product(
                (1, 2, 8, 30, 100), (0, 1, 10), (3, 4, 17), (1, 2, 4), (1, 7)):
            if bias <= n_users:
                synth_corpus(SynthSpec(
                    n_users=n_users, bias_profile=bias, n_categories=n_cats,
                    subcats_per_category=n_subs,
                    n_items=n_cats * n_subs * per_sub + per_sub - 1,
                    seed=seed)).validate()


CATEGORIES = ("a", "b", "c")
WEIGHT = st.sampled_from([0.0, -0.0, 0.5, 1.0, 1.5, -0.5, math.nan, math.inf]) \
    | st.floats(allow_nan=True, allow_infinity=True)


@st.composite
def corpora(draw):
    """Small corpora, some of whose items carry weights validate() rejects."""
    items = {}
    for n in range(draw(st.integers(1, 4))):
        cat = draw(st.sampled_from(CATEGORIES))
        if draw(st.booleans()):
            weights = {cat: 1.0}
        else:
            weights = draw(st.dictionaries(st.sampled_from(CATEGORIES), WEIGHT,
                                           min_size=1, max_size=3))
        # only dataset items load, so other origins come one time in eight
        origin = ORIGIN_DATASET if draw(st.integers(0, 7)) else \
            draw(st.sampled_from([ORIGIN_GENERATED, "bogus"]))
        items[f"i{n}"] = Item(id=f"i{n}", category=cat, subcategory=f"{cat}/s",
                              title="t", abstract="", category_weights=weights,
                              origin=origin)
    users = ("u0", "u1")
    log = [(u, i, t, 1.0) for t, (u, i) in enumerate(
        draw(st.lists(st.tuples(st.sampled_from(users),
                                st.sampled_from(sorted(items))), max_size=6)))]
    return corpus_of(items, log,
                     taxonomy={c: (f"{c}/s",) for c in CATEGORIES}, users=users)


class TestJsonRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(corpus=corpora())
    def test_loaded_corpus_equals_saved_or_is_rejected(self, corpus):
        try:
            loaded = corpus_from_json(corpus_to_json(corpus))
        except ValueError:
            with pytest.raises(ValueError):
                corpus.validate()
            return
        assert corpus_to_json(loaded) == corpus_to_json(corpus)
        # the loop can credit every item of an accepted corpus
        for user, network in build_all(loaded).items():
            for item in loaded.items.values():
                assert 0.0 <= acceptance_share(
                    item, network, sum(network.belief.values())) <= 1.0 + 1e-9
                network.update_on_feedback(item)

    def test_equal_after_round_trip(self, tmp_path):
        corpus = synth_corpus(SynthSpec(n_users=4, n_categories=4,
                                        subcats_per_category=2, n_items=40,
                                        bias_profile=1))
        path = tmp_path / "c.json"
        save_corpus(corpus, str(path))
        back = load_corpus(str(path))
        assert back.items == corpus.items
        assert log_rows(back) == log_rows(corpus)
        assert back.taxonomy == corpus.taxonomy
        assert back.users == corpus.users
        assert back.signal_scheme == corpus.signal_scheme
        assert corpus_to_json(back) == corpus_to_json(corpus)

    def test_round_trip_preserves_origin(self):
        corpus = synth_corpus(SynthSpec(n_users=2, n_categories=3,
                                        subcats_per_category=1, n_items=9))
        back = corpus_from_json(corpus_to_json(corpus))
        assert [i.origin for i in back.items.values()] == \
            [ORIGIN_DATASET] * len(corpus.items)
        # an origin other than "dataset" is refused, not read back as one
        first = next(iter(corpus.items))
        corpus.items[first].origin = ORIGIN_GENERATED
        with pytest.raises(ValueError, match="origin 'generated' is not 'dataset'"):
            corpus_from_json(corpus_to_json(corpus))


# short fields from a few shared tokens, so rows collide on categories,
# subcategories, users and items; plus arbitrary text with separators
FUZZ_TOKENS = st.sampled_from(["", "u1", "u2", "a", "b", "s", "a/s", "b/s", "0", "1",
                               "2", "4.5", "10", "-1", "nan", "m1", "m2", "a|b",
                               "a|s", "b|a/s", "a/s|b", '"', "x,y"])
FUZZ_FIELDS = FUZZ_TOKENS | st.text(st.characters(blacklist_categories=("Cs",)),
                                    max_size=6)


def fuzz_file(sep, n_fields):
    """Rows of mostly n_fields fields (last one often 0 or 1), some ragged."""
    last = st.sampled_from(["0", "1"]) | FUZZ_FIELDS
    shaped = st.tuples(st.lists(FUZZ_FIELDS, min_size=n_fields - 1,
                                max_size=n_fields - 1), last)
    row = (shaped.map(lambda t: t[0] + [t[1]])
           | st.lists(FUZZ_FIELDS, max_size=n_fields + 1)).map(sep.join)
    return st.lists(row, max_size=8).map(lambda rows: "\n".join(rows) + "\n")


def loads_or_rejects(load, path):
    """The loader returns a corpus the loop can use, or raises ValueError."""
    try:
        corpus = load(path)
    except ValueError:          # ParseError included
        return
    corpus.validate()
    for network in build_all(corpus).values():
        for item in corpus.items.values():
            network.update_on_feedback(item)


class TestLoadersFuzz:
    @settings(max_examples=200, deadline=None)
    @given(text=fuzz_file("\t", 7) | fuzz_file("\t", 6))
    @example(text="u1\t1\ta\ts\tT\t1\nu1\t2\tb\ts\tU\t1\n")   # shared subcategory
    def test_behaviors_rows(self, text, tmp_path_factory):
        path = tmp_path_factory.mktemp("tsv") / "b.tsv"
        loads_or_rejects(load_behaviors, write(path, text))

    @settings(max_examples=200, deadline=None)
    @given(movies=fuzz_file(",", 4), ratings=fuzz_file(",", 4),
           movies_header=st.booleans(), ratings_header=st.booleans())
    @example(movies="m1,a,T,O\n", ratings="u1,m1\n",        # short row
             movies_header=True, ratings_header=True)
    @example(movies="m1,a/b,T,O\nm2,a|b/general,U,O\n",  # a/b/general twice
             ratings="u1,m2,4,1\n", movies_header=True, ratings_header=True)
    def test_ratings_rows(self, movies, ratings, movies_header, ratings_header,
                          tmp_path_factory):
        root = tmp_path_factory.mktemp("csv")
        if movies_header:
            movies = "id,genres,title,overview\n" + movies
        if ratings_header:
            ratings = "user_id,movie_id,rating,timestamp\n" + ratings
        write(root / "movies.csv", movies)
        write(root / "ratings.csv", ratings)
        loads_or_rejects(load_ratings, str(root))
