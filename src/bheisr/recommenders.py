"""Baseline recommenders and mixed feed assembly.

Three baselines: seeded random (RD), content-based cosine against the mean of
the user's accepted items (CB), and user-coincidence weighted by belief share
(UC). Feeds mix round(w*k) generated items from the user's nudge session with
k - n_gen baseline items; accepted items never reappear.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import nudge
from .features import FlatEntries, ItemTable, Vocabulary, entry_norms
from .folds import fold_sum
from .rng import substream


@dataclass
class CandidateIndex:
    """Frozen array view of the corpus; row r is the corpus's r-th item, and
    the one store of its vector: its entries in first-occurrence order over
    `vocab`, the corpus vocabulary."""
    ids: list
    pos: dict
    cat_index: np.ndarray            # per item, its row in corpus.categories()
    id_rank: np.ndarray              # per item, rank in ascending id order
    entries: FlatEntries             # the items' entries, in row order
    vocab: Vocabulary

    @classmethod
    def build(cls, corpus, vocab, entries: FlatEntries) -> "CandidateIndex":
        """`entries` are the items' entries over vocab, in corpus order."""
        ids = list(corpus.items)
        cat_pos = {c: j for j, c in enumerate(corpus.categories())}
        cat_index = np.fromiter((cat_pos[item.category]
                                 for item in corpus.items.values()),
                                np.intp, len(ids))
        id_rank = np.empty(len(ids), dtype=np.intp)
        id_rank[sorted(range(len(ids)), key=ids.__getitem__)] = np.arange(len(ids))
        return cls(ids=ids, pos={i: r for r, i in enumerate(ids)},
                   cat_index=cat_index, id_rank=id_rank,
                   entries=entries, vocab=vocab)


def acceptance_share(item, network, total: float) -> float:
    """Belief share of the item's categories: sum of w_C * B(C) / sum B.

    `total` is sum B, `fold_sum(network.belief.values())`; a caller that decides
    on many items between belief updates sums it once.
    """
    if total <= 0.0:
        return 0.0
    belief = network.belief
    share = 0.0
    for cat, w in item.category_weights.items():
        if w > 0.0:
            share += w * belief[cat] / total
    return share


@dataclass
class Feed:
    items: list
    generated_count: int


def n_generated(w: float, k: int) -> int:
    return int(math.floor(w * k + 0.5))


FOLD_CHUNK_ROWS = 16384     # accepts per profile-sum fold pass

# The UC ranking certificate (README §7) holds for positive masses and belief
# shares in these ranges, where no intermediate value under- or overflows.
MASS_RANGE = (2.0 ** -64, 2.0 ** 64)
SHARE_FLOOR = 2.0 ** -512


def uc_tolerance(n_users: int, n_cats: int) -> float:
    """The relative bound eta of the UC ranking certificate (README §7).

    With u = 2^-53, a UC score computed in any summation order lies within
    a factor (1 - u)^(+-K) of its real value, K = n_users + 3 * n_cats + 5.
    eta = 4Ku makes (1 + eta) / (1 - eta) at least (1 - u)^(-4K), so scores
    a, b of one path with a * (1 - eta) > b * (1 + eta) keep that strict
    order in any other path.
    """
    return 4.0 * (n_users + 3 * n_cats + 5) * 2.0 ** -53


@dataclass
class FeedContext:
    """Everything assemble_feed needs to score candidates for one user,
    for the one baseline it is built for: every scoring call reads it here.

    The networks' accepted lists are the one record of each user's history;
    the scoring state holds only what derives from it, and only what the
    run's baseline reads: a 0/1 accept row per user for every baseline, the
    item rows, norms and profile sums for CB, and the history masses for UC.
    enable_acceleration builds that state from the corpus log, which seeded
    the networks' histories, and note_accept folds each step's new accepts
    into it, both through _fold_accepts. For UC, note_accept then
    re-snapshots the history masses of the users who accepted something
    through refresh_mass, and batch_neighbor_mass computes the neighbour
    mass of a block of the step's users in one product, which ranking reads
    where it can certify the result, until note_accept drops it.
    """
    corpus: object
    networks: dict
    table: ItemTable                     # the run's item vectors
    baseline: str                        # "rd", "cb" or "uc"
    generator: object = None
    user_pos: dict = None                # user id -> row, in sorted id order
    accept_matrix: np.ndarray = None     # users x items, 0/1
    mass_matrix: np.ndarray = None       # UC: users x categories, history masses
    mass_norms: np.ndarray = None        # UC: per user, norm of the mass row
    item_matrix: object = None           # CB: index items x terms, CSR rows
    item_norms: np.ndarray = None        # CB: per index item, its vector norm
    profile_sums: np.ndarray = None      # CB: users x terms, running accept sums
    neighbor_mass: dict = field(default_factory=dict)   # UC: user -> batched row

    def enable_acceleration(self) -> None:
        """Build the scoring state from the corpus's interested rows, folded
        in user, then history order: the same fold, per user, as note_accept
        over the history.
        """
        index, corpus = self.table.index, self.corpus
        self.user_pos = {u: r for r, u in enumerate(sorted(self.networks))}
        n_users = len(self.user_pos)
        # corpus users need not be sorted; index rows are corpus positions
        row_of = np.array([self.user_pos[u] for u in corpus.users], dtype=np.intp)
        user, cols = corpus.history
        self.accept_matrix = np.zeros((n_users, len(index.ids)))
        if self.baseline == "cb":
            from scipy import sparse    # CB alone scores through scipy
            entries, n_terms = index.entries, max(1, len(index.vocab.term_ids))
            self.item_matrix = sparse.csr_matrix(
                (entries.weights, entries.terms,
                 np.append(entries.starts, len(entries.terms))),
                shape=(len(index.ids), n_terms), copy=True)
            self.item_matrix.sort_indices()     # term order
            self.item_norms = entry_norms(entries)
            self.profile_sums = np.zeros((n_users, n_terms))
        self._fold_accepts(row_of[user], cols)
        if self.baseline == "uc":
            self.mass_matrix = np.zeros((n_users, len(corpus.taxonomy)))
            self.mass_norms = np.zeros(n_users)
            self.refresh_mass(list(self.user_pos))

    def _fold_accepts(self, user_rows: np.ndarray, item_rows: np.ndarray) -> None:
        """Fold accepts, the user row and table row of each, in order: an
        index item sets its accept-matrix entry, and for CB every item's
        entries add to its user's profile sums through np.add.at, which
        applies the additions one at a time in accept order, so each sum is
        the same left fold as adding the items' entries in turn.
        """
        n_index, marked = len(self.table.index.ids), (user_rows, item_rows)
        if len(item_rows) and item_rows.max() >= n_index:
            # generated items have no accept-matrix column; the corpus's
            # own history, which enable_acceleration folds, has none of them
            corpus_item = item_rows < n_index
            marked = (user_rows[corpus_item], item_rows[corpus_item])
        self.accept_matrix[marked] = 1.0
        if self.baseline != "cb":
            return
        flat, n_terms = self.profile_sums.ravel(), self.profile_sums.shape[1]
        # consecutive slices continue the same folds and bound the temporaries
        for start in range(0, len(item_rows), FOLD_CHUNK_ROWS):
            part = slice(start, start + FOLD_CHUNK_ROWS)
            counts, terms, weights = self.table.take(item_rows[part])
            np.add.at(flat, np.repeat(user_rows[part] * n_terms, counts) + terms,
                      weights)

    def refresh_mass(self, user_ids: list) -> None:
        """Re-snapshot the per-category history mass, in belief order, and
        its norm for the given users. UC alone reads them.

        Only an accept changes a user's mass, so note_accept passes just the
        users who accepted something.
        """
        rows = np.array([self.user_pos[u] for u in user_ids], dtype=np.intp)
        for u, r in zip(user_ids, rows):
            self.mass_matrix[r] = list(self.networks[u].mass_by_category().values())
        # row-wise sums, as a full rebuild takes them (a 1-D norm calls BLAS dot)
        self.mass_norms[rows] = np.linalg.norm(self.mass_matrix[rows], axis=1)

    def batch_neighbor_mass(self, user_ids) -> None:
        """Replace `neighbor_mass` with the UC neighbour mass of each of the
        given users, from one similarity product and one accept product.

        The rows differ from _baseline_scores' per-user products in the last
        bits, so ranking reads a row only where it can certify that the
        exact scores rank the same. They derive from the scoring state, so
        they hold until note_accept changes it. Nothing is batched for another
        baseline, for a lone user (its product would cost what the exact one
        does), or for masses outside MASS_RANGE.
        """
        self.neighbor_mass = {}
        if self.baseline != "uc" or len(user_ids) < 2:
            return
        mass, norms = self.mass_matrix, self.mass_norms
        positive = mass[mass > 0.0]
        if len(positive) and not (MASS_RANGE[0] <= positive.min()
                                  and positive.max() <= MASS_RANGE[1]):
            return
        rows = np.array([self.user_pos[u] for u in user_ids], dtype=np.intp)
        denom = norms[rows, None] * norms
        sims = np.zeros_like(denom)
        np.divide(mass[rows] @ mass.T, denom, out=sims, where=denom > 0.0)
        sims[np.arange(len(rows)), rows] = 0.0
        self.neighbor_mass = dict(zip(user_ids, sims @ self.accept_matrix))

    def note_accept(self, accepts: dict) -> None:
        """Fold each user's newly accepted items (user id -> items, in
        accept order) into the scoring state, drop the batched rows that
        derive from the old state and, for UC, refresh those users' masses.
        RD and UC skip generated items, which have no accept-matrix column."""
        if self.baseline != "cb":
            accepts = {u: [it for it in items if it.id in self.table.index.pos]
                       for u, items in accepts.items()}
        users = [self.user_pos[u] for u, items in accepts.items() for _ in items]
        self._fold_accepts(np.array(users, dtype=np.intp),
                           self.table.rows([it for items in accepts.values()
                                            for it in items]))
        self.neighbor_mass = {}
        if self.baseline == "uc":
            self.refresh_mass(list(accepts))


def _baseline_scores(ctx: FeedContext, user_id: str) -> np.ndarray:
    """The context's CB or UC candidate scores (RD ranks without them) from
    the matrix state, equal per item to the scalar oracles in tests/oracle.py."""
    index = ctx.table.index
    n = len(index.ids)
    row = ctx.user_pos[user_id]
    if ctx.baseline == "cb":
        count = len(ctx.networks[user_id].accepted)
        if count == 0:
            return np.zeros(n)
        dense = ctx.profile_sums[row] / count
        dots = ctx.item_matrix @ dense
        denom = ctx.item_norms * float(np.linalg.norm(dense))
        with np.errstate(divide="ignore", invalid="ignore"):
            scores = np.where(denom > 0.0, dots / denom, 0.0)
        return np.clip(scores, -1.0, 1.0)
    shares = _category_shares(ctx, user_id)
    if shares is None:
        return np.zeros(n)
    mine = ctx.mass_matrix[row]
    dots = ctx.mass_matrix @ mine
    denom = ctx.mass_norms * float(np.linalg.norm(mine))
    with np.errstate(divide="ignore", invalid="ignore"):
        sims = np.where(denom > 0.0, dots / denom, 0.0)
    sims[row] = 0.0
    neighbor_mass = sims @ ctx.accept_matrix
    return neighbor_mass * shares[index.cat_index]


def _category_shares(ctx: FeedContext, user_id: str):
    """The user's belief share B(C) / sum B of each category, in belief
    order, or None when sum B is not positive (UC then scores 0)."""
    belief = ctx.networks[user_id].belief
    total = fold_sum(belief.values())
    if total <= 0.0:
        return None
    return np.array(list(belief.values())) / total


def baseline_ranking(ctx: FeedContext, user_id: str, k: int, step: int,
                     seed: int) -> list:
    """Top-k candidates of the context's baseline, deterministic under ties.

    Items in the user's accept row are never ranked. Scored baselines rank
    by descending score, ties broken by ascending id. RD draws a seeded
    permutation of the eligible items in index order. UC ranks from the
    user's batched neighbour-mass row where that ranking is certified, and
    from the exact _baseline_scores otherwise.
    """
    if k == 0:
        return []
    index = ctx.table.index
    cand = np.flatnonzero(ctx.accept_matrix[ctx.user_pos[user_id]] == 0.0)
    if ctx.baseline == "rd":
        rng = substream(seed, "rd", user_id, step)
        order = rng.permutation(len(cand))
        return [index.ids[cand[i]] for i in order[:k]]
    if ctx.baseline == "uc" and user_id in ctx.neighbor_mass:
        best = _certified_uc_best(ctx, user_id, cand, k)
        if best is not None:
            return [index.ids[p] for p in best]
    best, _ = _best(cand, -_baseline_scores(ctx, user_id)[cand],
                    index.id_rank, k)
    return [index.ids[p] for p in best]


def _best(cand: np.ndarray, neg: np.ndarray, id_rank: np.ndarray,
          k: int) -> tuple:
    """The k candidates of lowest `neg` (negated score), ties by ascending id
    rank, in that order, with their `neg` values.

    A partition finds the k-th lowest value, and only the candidates at or
    below it, ties included, are sorted.
    """
    if len(cand) > k:
        kth = np.partition(neg, k - 1)[k - 1]
        within = neg <= kth
        cand, neg = cand[within], neg[within]
    order = np.lexsort((id_rank[cand], neg))[:k]
    return cand[order], neg[order]


def _certified_uc_best(ctx: FeedContext, user_id: str, cand: np.ndarray,
                       k: int):
    """The UC top k from the user's batched neighbour-mass row, or None when
    the exact per-user scores might rank differently (README §7).

    The batched top k + 1 is certified when each consecutive pair of scores
    a >= b has a * (1 - eta) > b * (1 + eta), or a == 0.0 (and so b too; a
    zero is exact in both paths, as it sums no positive term). The factors
    use 2 * eta, which leaves eta after their own rounding, and a rounded
    product is monotone, so a comparison that holds in floating point holds
    for the real values. Both paths take their shares from
    _category_shares, so the shares add no difference between them.
    """
    shares = _category_shares(ctx, user_id)
    if shares is None or any(0.0 < share < SHARE_FLOOR
                             for share in shares.tolist()):
        return None
    index = ctx.table.index
    scores = ctx.neighbor_mass[user_id] * shares[index.cat_index]
    best, neg = _best(cand, -scores[cand], index.id_rank, k + 1)
    eta = uc_tolerance(*ctx.mass_matrix.shape)
    low, high = 1.0 - 2.0 * eta, 1.0 + 2.0 * eta
    top = (-neg).tolist()
    if all(a * low > b * high or a == 0.0 for a, b in zip(top, top[1:])):
        return best[:k]
    return None


def assemble_feed(ctx: FeedContext, with_bheisr: bool, w: float, k: int,
                  session, user_id: str, step: int, seed: int) -> Feed:
    """Mix the context's baseline items with the session's generated items.

    Generated slots cycle over the session's pending prompts (one item per
    slot, fresh ids); if the session is absent or terminal (its queue is
    empty) the deficit is filled from the baseline. Baseline items come
    first in score order, then the generated items.
    """
    gen_items = []
    if with_bheisr and session is not None:
        for prompt in nudge.pending_prompts(session, n_generated(w, k)):
            gen_items.append(nudge._generate_for(session, prompt, ctx.generator))
    n_base = k - len(gen_items)
    base_ids = baseline_ranking(ctx, user_id, n_base, step, seed)
    items = [ctx.corpus.items[i] for i in base_ids] + gen_items
    return Feed(items=items, generated_count=len(gen_items))
