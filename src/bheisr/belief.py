"""Per-user belief networks.

A user's belief in a category is the Shannon entropy of their click
probabilities over that category's subcategories, with probabilities
normalized globally across every subcategory the user has touched. Accepted
generated items contribute fractional click mass to a synthetic
"<category>/generated" subcategory of each category they span.
"""

import math
from dataclasses import dataclass, field

from .corpus import ORIGIN_GENERATED

PROB_TOL = 1e-9


def entropy_bits(probs) -> float:
    """Shannon entropy in bits; 0 * log2(0) is taken as 0."""
    total = 0.0
    for p in probs:
        if p < 0.0:
            raise ValueError(f"negative probability {p}")
        if p > 0.0:
            total -= p * math.log2(p)
    return total


def _generated_subcat(category: str) -> str:
    return f"{category}/generated"


@dataclass
class BeliefNetwork:
    user_id: str
    categories: tuple                   # full taxonomy, fixed for the run
    subcat_to_cat: dict                 # subcategory label -> category
    click_counts: dict = field(default_factory=dict)   # subcategory -> mass
    accepted: list = field(default_factory=list)       # item ids, append-only
    click_probs: dict = field(default_factory=dict)
    belief: dict = field(default_factory=dict)

    def total_mass(self) -> float:
        return sum(self.click_counts.values())

    def recompute(self) -> None:
        total = self.total_mass()
        if total > 0.0:
            self.click_probs = {s: c / total for s, c in self.click_counts.items()}
        else:
            self.click_probs = {}
        probs_by_cat = {c: [] for c in self.categories}
        for sub, p in self.click_probs.items():
            probs_by_cat[self.subcat_to_cat[sub]].append(p)
        self.belief = {c: entropy_bits(ps) for c, ps in probs_by_cat.items()}

    def belief_degree(self, category: str) -> float:
        if category not in self.belief:
            raise ValueError(f"unknown category {category!r}")
        return self.belief[category]

    def mass_by_category(self) -> dict:
        mass = {c: 0.0 for c in self.categories}
        for sub, count in self.click_counts.items():
            mass[self.subcat_to_cat[sub]] += count
        return mass

    def positive_category_count(self) -> int:
        return sum(1 for m in self.mass_by_category().values() if m > 0.0)

    def add_click_mass(self, subcategory: str, category: str, mass: float) -> None:
        if subcategory not in self.subcat_to_cat:
            self.subcat_to_cat[subcategory] = category
        elif self.subcat_to_cat[subcategory] != category:
            raise ValueError(f"subcategory {subcategory!r} already bound to "
                             f"{self.subcat_to_cat[subcategory]!r}")
        self.click_counts[subcategory] = self.click_counts.get(subcategory, 0.0) + mass

    def update_on_feedback(self, item) -> "BeliefNetwork":
        """Fold one accepted item into the network.

        The item joins the history and its category weights are credited as
        click mass (dataset items to their own subcategory, generated items to
        each spanned category's synthetic subcategory). Rejections are kept by
        the nudge session's ledger and history.
        """
        self.accepted.append(item.id)
        for cat, w in item.category_weights.items():
            if w <= 0.0:
                continue
            if cat not in self.belief:
                raise ValueError(f"item {item.id}: unknown category {cat!r}")
            if item.origin == ORIGIN_GENERATED:
                sub = _generated_subcat(cat)
            else:
                sub = item.subcategory
            self.add_click_mass(sub, cat, w)
        self.recompute()
        return self


def build_all(corpus) -> dict:
    """Belief network per corpus user from their interested interactions.

    Each accepted history is seeded with those items (in timestamp order), so
    recommenders can score and exclude them from the first feed on. Users with
    no interested interactions get an empty (zero-mass) network.
    """
    histories: dict = {u: [] for u in corpus.users}
    for inter in corpus.interactions:
        if corpus.interested(inter):
            histories[inter.user_id].append(inter)
    subcat_to_cat = {}
    for cat, subs in corpus.taxonomy.items():
        for sub in subs:
            subcat_to_cat[sub] = cat
    networks = {}
    for user in corpus.users:
        network = BeliefNetwork(user_id=user, categories=corpus.categories(),
                                subcat_to_cat=dict(subcat_to_cat))
        for inter in sorted(histories[user], key=lambda x: x.timestamp):
            item = corpus.items[inter.item_id]
            network.accepted.append(item.id)
            network.add_click_mass(item.subcategory, item.category, 1.0)
        network.recompute()
        networks[user] = network
    return networks

