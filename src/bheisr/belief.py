"""Per-user belief networks.

A user's belief in a category is the Shannon entropy of their click
probabilities over that category's subcategories, with probabilities
normalized globally across every subcategory the user has touched. Accepted
generated items contribute fractional click mass to a synthetic
"<category>/generated" subcategory of each category they span.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import ORIGIN_GENERATED, generated_subcategory
from .folds import fold_sum


@dataclass
class BeliefNetwork:
    """A user's click counts and the beliefs folded from them.

    `belief` (category -> degree) is recomputed from the click counts when
    first read after update_on_feedback marks it stale, so a user-step with
    several accepts folds it once, and only if something reads it in
    between. The fold is recompute's, so the bits do not depend on when it
    runs. The categories with positive mass are counted from the click
    counts when first asked for, and add_click_mass, the one writer of the
    counts after that, extends the set.
    """
    user_id: str
    categories: tuple                   # full taxonomy, fixed for the run
    subcat_to_cat: dict                 # subcategory label -> category; shared
    click_counts: dict = field(default_factory=dict)   # subcategory -> mass
    accepted: list = field(default_factory=list)       # item ids, append-only
    _belief: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)
    _stale: bool = field(default=False, init=False, repr=False, compare=False)
    # categories with positive mass; None until counted from click_counts
    _positive: set = field(default=None, init=False, repr=False, compare=False)

    @property
    def belief(self) -> dict:
        if self._stale:
            self.recompute()
        return self._belief

    def total_mass(self) -> float:
        return fold_sum(self.click_counts.values())

    def recompute(self) -> None:
        """Beliefs from the click counts, in one pass.

        Each category's belief starts from 0.0 and subtracts p * log2(p),
        p = count / total_mass(), for its subcategories in click_counts
        order, which is the scalar entropy oracle in tests/oracle.py over
        the category's probabilities in that order, operation for operation.
        """
        total = self.total_mass()
        belief = dict.fromkeys(self.categories, 0.0)
        if total > 0.0:
            subcat_to_cat, log2 = self.subcat_to_cat, math.log2
            for sub, count in self.click_counts.items():
                p = count / total
                if p > 0.0:
                    belief[subcat_to_cat[sub]] -= p * log2(p)
        self._belief, self._stale = belief, False

    def mass_by_category(self) -> dict:
        mass = {c: 0.0 for c in self.categories}
        for sub, count in self.click_counts.items():
            mass[self.subcat_to_cat[sub]] += count
        return mass

    def positive_category_count(self) -> int:
        if self._positive is None:
            # click mass is never negative, so a category's mass is positive
            # exactly when one of its subcategories has a positive count
            self._positive = {self.subcat_to_cat[s]
                              for s, c in self.click_counts.items() if c > 0.0}
        return len(self._positive)

    def add_click_mass(self, subcategory: str, mass: float) -> None:
        self.click_counts[subcategory] = self.click_counts.get(subcategory, 0.0) + mass
        # a zero mass changes nothing, and no mass is negative
        if self._positive is not None and mass > 0.0:
            self._positive.add(self.subcat_to_cat[subcategory])

    def update_on_feedback(self, item) -> "BeliefNetwork":
        """Fold one accepted item into the network.

        The item joins the history and its category weights are credited as
        click mass (dataset items to their own subcategory, generated items to
        each spanned category's synthetic subcategory); the beliefs go stale.
        Rejections are kept by the nudge session's ledger and history.
        """
        self.accepted.append(item.id)
        for cat, w in item.category_weights.items():
            if w <= 0.0:
                continue
            if item.origin == ORIGIN_GENERATED:
                sub = generated_subcategory(cat)
            else:
                sub = item.subcategory
            self.add_click_mass(sub, w)
        self._stale = True
        return self


def build_all(corpus) -> dict:
    """Belief network per corpus user from their interested interactions.

    Each accepted history is seeded with those items (in timestamp order,
    equal stamps in file order), so recommenders can score and exclude them
    from the first feed on. A subcategory's click count is its number of
    rows, kept in first-touch order, the order entropy sums in. Users with
    no interested interactions get an empty (zero-mass) network. Every
    network shares one subcategory -> category map, which also binds each
    category's reserved generated label.
    """
    categories = corpus.categories()
    subcat_to_cat = {sub: cat for cat, subs in corpus.taxonomy.items() for sub in subs}
    labels = list(subcat_to_cat)
    subcat_to_cat.update((generated_subcategory(c), c) for c in categories)
    label_pos = {sub: j for j, sub in enumerate(labels)}
    item_label = np.array([label_pos[it.subcategory] for it in corpus.items.values()],
                          dtype=np.int64)
    user, item = corpus.history
    ids = np.array(list(corpus.items), dtype=object)
    accepted = ids[item].tolist()
    # (user, subcategory) groups in first-touch order: user is sorted, so
    # ordering groups by their first row keeps each user's groups together
    key = user.astype(np.int64) * len(labels) + item_label[item]
    _, first, counts = np.unique(key, return_index=True, return_counts=True)
    touch = np.argsort(first)
    group_user = user[first[touch]]
    group_labels = [labels[j] for j in item_label[item[first[touch]]].tolist()]
    group_counts = counts[touch].astype(float).tolist()
    n_users = len(corpus.users)
    row_bounds = np.searchsorted(user, np.arange(n_users + 1)).tolist()
    group_bounds = np.searchsorted(group_user, np.arange(n_users + 1)).tolist()
    networks = {}
    for u, user_id in enumerate(corpus.users):
        g0, g1 = group_bounds[u], group_bounds[u + 1]
        network = BeliefNetwork(
            user_id=user_id, categories=categories, subcat_to_cat=subcat_to_cat,
            click_counts=dict(zip(group_labels[g0:g1], group_counts[g0:g1])),
            accepted=accepted[row_bounds[u]:row_bounds[u + 1]])
        network.recompute()
        networks[user_id] = network
    return networks
