"""Float reductions that reach a result fold left to right from 0.0.

`sum()` compensates its rounding from Python 3.12 on. On these values a
left fold and a compensated sum disagree, so the tests pin the fold on
every Python version.
"""

import math

from bheisr.belief import BeliefNetwork
from bheisr.detection import MIN_POPULATION, classify_users, skewness
from bheisr.folds import fold_sum

CANCELS = [1e16, 1.0, -1e16]           # 1e16 + 1.0 rounds back to 1e16
ABSORBS = [1.0] + [2.0 ** -53] * 4     # each half-unit addend ties to 1.0


def left_fold(values):
    total = 0.0
    for value in values:
        total = total + value
    return total


class TestFoldSum:
    def test_the_values_tell_a_fold_from_a_compensated_sum(self):
        assert math.fsum(CANCELS) == 1.0
        assert math.fsum(ABSORBS) == 1.0 + 2.0 ** -51

    def test_adds_left_to_right_from_zero(self):
        assert fold_sum(CANCELS) == 0.0
        assert fold_sum(ABSORBS) == 1.0
        assert fold_sum(reversed(ABSORBS)) == 1.0 + 2.0 ** -51
        assert fold_sum(iter(CANCELS)) == left_fold(CANCELS)

    def test_empty_and_negative_zero(self):
        # as sum() of floats: the fold starts at +0.0
        assert fold_sum([]) == 0.0
        assert math.copysign(1.0, fold_sum([-0.0])) == 1.0


class TestFoldedReductions:
    def test_total_mass(self):
        network = BeliefNetwork(
            user_id="u", categories=("a",), subcat_to_cat={},
            click_counts={f"a/s{j}": v for j, v in enumerate(ABSORBS)})
        assert network.total_mass() == 1.0

    def test_classification_mean_and_spread(self):
        values = ABSORBS + [0.0] * MIN_POPULATION
        n = len(values)
        stats = classify_users({f"u{j:02d}": {"a": v} for j, v in enumerate(values)},
                               ("a",)).stats["a"]
        mu = left_fold(values) / n
        assert stats.mu == mu != math.fsum(values) / n
        assert stats.sigma == math.sqrt(left_fold((v - mu) ** 2 for v in values) / n)

    def test_skewness(self):
        values = CANCELS + [3.0]
        n = len(values)
        mu = left_fold(values) / n
        var = left_fold((x - mu) ** 2 for x in values) / n
        third = left_fold((x - mu) ** 3 for x in values) / n
        assert skewness(values) == third / var ** 1.5
