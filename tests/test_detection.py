"""Diversity coverage, normality statistics, and the two-sigma classifier."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.special
import scipy.stats

from bheisr.corpus import Item, SynthSpec, synth_corpus
from bheisr.belief import build_all
from bheisr.detection import (
    MIN_POPULATION,
    classify_users,
    kolmogorov_p,
    ks_normality,
    normal_cdf,
    skewness,
)
from bheisr.nudge import GeneratedItem
from bheisr.simulate import _record
from oracle import brute_force_classify, path_of

TAXONOMY = {"a": ("a/s",), "b": ("b/s",), "c": ("c/s",), "d": ("d/s",)}


def make_item(cat, sub=None, weights=None):
    return Item(id=f"{cat}-{sub}", category=cat, subcategory=sub or f"{cat}/s",
                title="t", abstract="", category_weights=weights or {cat: 1.0})


def feed_coverage(feed):
    """The coverage the loop records for a feed."""
    network = SimpleNamespace(positive_category_count=lambda: 0)
    state = SimpleNamespace(corpus=SimpleNamespace(taxonomy=TAXONOMY),
                            networks={"u": network})
    return _record(state, 1, "u", SimpleNamespace(items=feed), ()).coverage


class TestDiversityCoverage:
    def test_counts_distinct_categories(self):
        feed = [make_item("a"), make_item("a"), make_item("b")]
        assert feed_coverage(feed) == pytest.approx(2 / 4)

    def test_generated_item_counts_every_prompt_category(self):
        feed = [GeneratedItem("gi:u:0", path_of("a", "b"), 0, None)]
        assert feed_coverage(feed) == pytest.approx(2 / 4)
        assert feed_coverage(feed + [make_item("c"), make_item("a")]) == \
            pytest.approx(3 / 4)

    def test_single_category_feed(self):
        feed = [make_item("a")] * 10
        assert feed_coverage(feed) == pytest.approx(1 / 4)


class TestNormalCdf:
    def test_matches_scipy_over_grid(self):
        for x in np.linspace(-4, 4, 33):
            assert normal_cdf(x) == pytest.approx(scipy.stats.norm.cdf(x), abs=1e-12)

    def test_location_scale(self):
        assert normal_cdf(3.0, mu=3.0, sigma=2.0) == pytest.approx(0.5)
        assert normal_cdf(5.0, mu=3.0, sigma=2.0) == pytest.approx(
            scipy.stats.norm.cdf(1.0), abs=1e-12)


class TestKolmogorovP:
    def test_matches_scipy_kolmogorov(self):
        for lam in [0.3, 0.5, 0.8, 1.0, 1.36, 2.0, 3.0]:
            assert kolmogorov_p(lam) == pytest.approx(
                scipy.special.kolmogorov(lam), abs=1e-10)

    def test_limits(self):
        assert kolmogorov_p(1e-8) == 1.0
        assert kolmogorov_p(50.0) == 0.0


class TestKsNormality:
    def test_statistic_against_scipy_kstest(self):
        rng = np.random.default_rng(5)
        xs = rng.normal(2.0, 0.7, size=40)
        ours = ks_normality(xs, 2.0, 0.7)
        ref = scipy.stats.kstest(xs, lambda v: scipy.stats.norm.cdf(v, 2.0, 0.7))
        assert ours.statistic == pytest.approx(ref.statistic, abs=1e-12)

    def test_p_value_small_sample_correction(self):
        xs = list(np.random.default_rng(6).normal(size=25))
        result = ks_normality(xs, 0.0, 1.0)
        n = 25
        lam = (math.sqrt(n) + 0.12 + 0.11 / math.sqrt(n)) * result.statistic
        assert result.p_value == pytest.approx(scipy.special.kolmogorov(lam), abs=1e-10)

    def test_input_guards(self):
        with pytest.raises(ValueError):
            ks_normality([0.0] * 5, 0.0, 1.0)
        with pytest.raises(ValueError):
            ks_normality([0.0] * 10, 0.0, 0.0)


class TestSkewness:
    def test_matches_scipy_population_skew(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            xs = rng.exponential(size=rng.integers(5, 40))
            assert skewness(xs) == pytest.approx(
                scipy.stats.skew(xs, bias=True), abs=1e-10)

    def test_symmetric_is_zero(self):
        assert skewness([1.0, 2.0, 3.0]) == pytest.approx(0.0, abs=1e-12)

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError):
            skewness([2.0, 2.0, 2.0])

    def test_one_sample_rejected(self):
        # one sample also has zero variance; the count is checked first
        with pytest.raises(ValueError, match="needs at least two samples"):
            skewness([1.0])


class TestClassifyUsers:
    def test_hand_thresholds(self):
        # eight users: seven at 1.0, one at 3.0 on category a
        beliefs = {f"u{i}": {"a": 1.0, "b": float(i)} for i in range(8)}
        beliefs["u7"]["a"] = 3.0
        result = classify_users(beliefs, ("a", "b"))
        stats = result.stats["a"]
        assert stats.mu == pytest.approx(1.25)
        assert stats.sigma == pytest.approx(math.sqrt(7 * 0.0625 + 3.0625) / math.sqrt(8))
        assert result.extremes["u7"] == (("a",), ())
        assert result.extremes["u0"] == ((), ())

    @pytest.mark.parametrize("taxonomy", [("b", "a"), ["b", "a"], {"b", "a"}])
    def test_categories_in_sorted_order_whatever_the_taxonomy(self, taxonomy):
        # a tuple used to be taken as already sorted
        beliefs = {f"u{i}": {"a": 1.0, "b": 1.0} for i in range(8)}
        beliefs["u7"] = {"a": 3.0, "b": 3.0}      # extreme-high on both
        result = classify_users(beliefs, taxonomy)
        assert list(result.stats) == ["a", "b"]
        assert result.extremes["u7"] == (("a", "b"), ())

    def test_strict_inequality_at_threshold(self):
        # a value exactly on mu + 2 sigma or mu - 2 sigma is not extreme:
        # on a, 8 users at 0.0 and 2 at 5.0 give mu 1, sigma 2 and a high
        # threshold of exactly 5.0; on b, 2 users at 0.0 and 8 at 5.0 give
        # mu 4, sigma 2 and a low threshold of exactly 0.0
        vals = [0.0] * 8 + [5.0] * 2
        beliefs = {f"u{i}": {"a": v, "b": 5.0 - v} for i, v in enumerate(vals)}
        result = classify_users(beliefs, ("a", "b"))
        assert result.stats["a"].high_threshold == 5.0
        assert result.stats["b"].low_threshold == 0.0
        assert all(result.extremes[u] == ((), ()) for u in beliefs)

    def test_zero_sigma_category_all_normal(self):
        beliefs = {f"u{i}": {"a": 2.0} for i in range(9)}
        result = classify_users(beliefs, ("a",))
        assert result.stats["a"].sigma == 0.0
        assert all(e == ((), ()) for e in result.extremes.values())
        assert result.stats["a"].ks is None
        assert result.stats["a"].skewness is None

    def test_fb_requires_both_extremes(self):
        beliefs = {f"u{i}": {"a": 1.0, "b": 1.0} for i in range(11)}
        beliefs["uX"] = {"a": 9.0, "b": 1.0}       # high only: not bubble-affected
        result = classify_users(beliefs, ("a", "b"))
        assert result.extremes["uX"] == (("a",), ())
        assert result.fb_users == ()
        beliefs["uX"]["b"] = 0.0                   # now low on b as well
        result = classify_users(beliefs, ("a", "b"))
        assert result.extremes["uX"] == (("a",), ("b",))
        assert result.fb_users == ("uX",)

    def test_population_floor(self):
        beliefs = {f"u{i}": {"a": float(i)} for i in range(MIN_POPULATION - 1)}
        with pytest.raises(ValueError, match="at least"):
            classify_users(beliefs, ("a",))

    def test_matches_brute_force_on_random_populations(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n_users = int(rng.integers(MIN_POPULATION, 31))
            n_cats = int(rng.integers(1, 6))
            cats = tuple(f"c{k}" for k in range(n_cats))
            beliefs = {
                f"u{i:02d}": {c: float(np.round(rng.gamma(2.0, 0.5), 3))
                              for c in cats if rng.random() < 0.9}
                for i in range(n_users)
            }
            ours = classify_users(beliefs, cats)
            ref_extremes, ref_fb = brute_force_classify(beliefs, cats)
            assert ours.extremes == ref_extremes
            assert ours.fb_users == ref_fb

    def test_synth_fixture_flags_exactly_the_biased_users(self):
        corpus = synth_corpus(SynthSpec())
        corpus2 = synth_corpus(SynthSpec(bias_profile=10))
        networks = build_all(corpus2)
        beliefs = {u: dict(net.belief) for u, net in networks.items()
                   if net.total_mass() > 0}
        result = classify_users(beliefs, corpus2.categories())
        assert result.fb_users == tuple(f"u{i:04d}" for i in range(10))
        # unbiased default corpus flags nobody
        networks0 = build_all(corpus)
        beliefs0 = {u: dict(net.belief) for u, net in networks0.items()}
        assert classify_users(beliefs0, corpus.categories()).fb_users == ()
