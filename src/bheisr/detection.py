"""Filter-bubble detection.

A feed's diversity coverage (the share of categories its items touch) plus
population-side belief classification: per category, users more than two
standard deviations from the mean are extreme, and a user with at least one
extreme-high and one extreme-low category is bubble-affected. Each user's
(highs, lows) in UserClassification.extremes is the one record of those
labels; `bheisr detect` writes them from it. Normality of each category's
belief distribution is checked with a Kolmogorov-Smirnov statistic and
skewness, computed only when read.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from .folds import fold_sum


MIN_POPULATION = 8


def diversity_coverage(categories: set, taxonomy) -> float:
    """The distinct categories a feed touches, the union of its items'
    categories, over total categories."""
    return len(categories) / len(taxonomy)


# ---------------------------------------------------------------------------
# normality
# ---------------------------------------------------------------------------

def normal_cdf(x: float, mu: float = 0.0, sigma: float = 1.0) -> float:
    return 0.5 * (1.0 + math.erf((x - mu) / (sigma * math.sqrt(2.0))))


def kolmogorov_p(lam: float) -> float:
    """Asymptotic Kolmogorov tail probability from the series' first 100
    terms, clamped to [0, 1]."""
    if lam < 0.05:
        # the series needs far more than 100 terms here, while the true tail
        # is 1.0 to double precision
        return 1.0
    total = 0.0
    for k in range(1, 101):
        total += (-1.0) ** (k - 1) * math.exp(-2.0 * k * k * lam * lam)
    return min(1.0, max(0.0, 2.0 * total))


class KSResult(NamedTuple):
    statistic: float
    p_value: float


def ks_normality(samples, mu: float, sigma: float) -> KSResult:
    """Sup-distance between the empirical CDF and N(mu, sigma^2).

    p-value via the asymptotic series with the small-sample correction
    lambda = (sqrt(n) + 0.12 + 0.11/sqrt(n)) * K.
    """
    xs = sorted(samples)
    n = len(xs)
    if n < MIN_POPULATION:
        raise ValueError(f"need at least {MIN_POPULATION} samples, got {n}")
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    stat = 0.0
    for i, x in enumerate(xs, start=1):
        cdf = normal_cdf(x, mu, sigma)
        stat = max(stat, i / n - cdf, cdf - (i - 1) / n)
    sqrt_n = math.sqrt(n)
    lam = (sqrt_n + 0.12 + 0.11 / sqrt_n) * stat
    return KSResult(statistic=stat, p_value=kolmogorov_p(lam))


def skewness(samples) -> float:
    """Population third standardized moment."""
    xs = list(samples)
    n = len(xs)
    if n < 2:
        raise ValueError("skewness needs at least two samples")
    mu = fold_sum(xs) / n
    var = fold_sum((x - mu) ** 2 for x in xs) / n
    if var == 0.0:
        raise ValueError("zero variance")
    third = fold_sum((x - mu) ** 3 for x in xs) / n
    return third / var ** 1.5


# ---------------------------------------------------------------------------
# population classification
# ---------------------------------------------------------------------------

@dataclass
class CategoryStats:
    """Thresholds of one category; the normality statistics are computed
    from `values` only when read (the loop never reads them)."""
    mu: float
    sigma: float
    low_threshold: float
    high_threshold: float
    values: tuple = field(repr=False)     # the category's beliefs, user order

    @cached_property
    def ks(self) -> KSResult:
        """None when sigma is 0."""
        return ks_normality(self.values, self.mu, self.sigma) \
            if self.sigma > 0.0 else None

    @cached_property
    def skewness(self) -> float:
        """None when sigma is 0."""
        return skewness(self.values) if self.sigma > 0.0 else None


@dataclass
class UserClassification:
    fb_users: tuple          # sorted user ids with >=1 high and >=1 low
    stats: dict              # category -> CategoryStats
    extremes: dict           # sorted users -> (highs, lows), each sorted


def classify_users(beliefs: dict, taxonomy) -> UserClassification:
    """Two-sigma empirical-rule classification over per-category beliefs.

    `beliefs` maps user -> {category -> belief degree} for users with nonzero
    networks (cold users are excluded upstream). A category whose belief is
    identical across users makes no one extreme there. The low threshold
    mu - 2*sigma is floored at zero in effect: beliefs are nonnegative, so a
    nonpositive threshold makes extreme-low unreachable in that category.
    Each user's extreme categories are decided here, once; the bubble-affected
    users are those with both kinds.
    """
    users = sorted(beliefs)
    if len(users) < MIN_POPULATION:
        raise ValueError(f"need at least {MIN_POPULATION} users, got {len(users)}")
    categories = sorted(taxonomy)
    rows = [beliefs[u] for u in users]
    stats = {}
    highs, lows = {}, {}     # user -> its extreme categories, in sorted order
    n = len(users)
    for cat in categories:
        values = [row.get(cat, 0.0) for row in rows]
        mu = fold_sum(values) / n
        # float ** 2 calls libm pow, which is not always x * x: glibc 2.36
        # gave other bits for about 4,200 of 5,000,000 random doubles. numpy
        # squares an array's ** 2 as x * x, so an array port of this must
        # call pow to keep the thresholds' bits.
        sigma = math.sqrt(fold_sum([(v - mu) ** 2 for v in values]) / n)
        low = mu - 2.0 * sigma
        high = mu + 2.0 * sigma
        stats[cat] = CategoryStats(mu=mu, sigma=sigma, low_threshold=low,
                                   high_threshold=high, values=tuple(values))
        if sigma != 0.0:
            # low <= high, so no value is on both sides
            for u, v in zip(users, values):
                if v > high:
                    highs.setdefault(u, []).append(cat)
                elif v < low:
                    lows.setdefault(u, []).append(cat)
    extremes = {u: (tuple(highs.get(u, ())), tuple(lows.get(u, ())))
                for u in users}
    fb = tuple([u for u in users if u in highs and u in lows])
    return UserClassification(fb_users=fb, stats=stats, extremes=extremes)
