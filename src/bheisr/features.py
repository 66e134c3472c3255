"""Text features and the category correlation graph.

Items are embedded as smoothed TF-IDF vectors over a corpus vocabulary; a
category's vector is the arithmetic mean of its member items' vectors, and
category correlation is the cosine of those vectors. The graph is complete
over categories with nonzero vectors and is updated incrementally as users
accept items.
"""

import math
import re
from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

TOKEN_RE = re.compile(r"[a-z0-9]{2,}")   # maximal runs of two or more


def tokenize(text: str) -> list:
    """Lowercase, split on non-alphanumerics, drop tokens shorter than 2."""
    return TOKEN_RE.findall(text.lower())


@dataclass
class Vocabulary:
    term_ids: dict          # term -> int id, in id order
    idf: np.ndarray         # per term id, its idf weight
    n_docs: int

    def terms(self) -> list:
        return list(self.term_ids)


def build_vocabulary(items, tokens: list = None) -> Vocabulary:
    """Vocabulary over item titles+abstracts with smoothed idf.

    idf(t) = ln((1 + N) / (1 + df(t))) + 1, always positive. `tokens`, when
    the caller has them, is each item's tokenize(item.text()), in order.
    """
    if tokens is None:
        tokens = [tokenize(item.text()) for item in items]
    df = Counter(chain.from_iterable(map(set, tokens)))
    n_docs = len(tokens)
    terms = sorted(df)
    idf = np.array([math.log((1 + n_docs) / (1 + df[t])) + 1.0 for t in terms],
                   dtype=float)
    return Vocabulary(term_ids={term: i for i, term in enumerate(terms)},
                      idf=idf, n_docs=n_docs)


class FlatEntries(NamedTuple):
    """The entries of a run of vectors, each in its own order, concatenated."""
    counts: np.ndarray      # entries per vector
    starts: np.ndarray      # each vector's first position in terms and weights
    terms: np.ndarray
    weights: np.ndarray


def segments(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The positions starts[i] .. starts[i] + counts[i] - 1 of every i, in
    order."""
    return np.arange(int(counts.sum())) + np.repeat(
        starts - (np.cumsum(counts) - counts), counts)


def featurize_corpus(tokens: list, vocab: Vocabulary) -> FlatEntries:
    """TF-IDF vectors of the token lists, in array passes: their
    FlatEntries. The package's one featurizer; entry_norms gives the norms.

    A list's entries are its distinct vocabulary terms in first-occurrence
    order (np.unique over (list, term) keys, groups ordered by first index),
    each weighing (count / length) * idf. Tokens outside the vocabulary are
    ignored but count in the length, so an empty or fully unknown list has
    no entries. Weights are never 0.0 (a count is at least 1 and idf at
    least 1). The scalar oracle in tests/oracle.py gives every entry and
    weight, and entry_norms every norm, with ==.
    """
    n = len(tokens)
    lengths = np.fromiter(map(len, tokens), np.intp, n)
    tids = np.fromiter(map(vocab.term_ids.get, chain.from_iterable(tokens),
                           repeat(-1)), np.intp, int(lengths.sum()))
    width = max(1, len(vocab.term_ids))
    keys = (np.repeat(np.arange(n) * width, lengths) + tids)[tids >= 0]
    pairs, first, occurrences = np.unique(keys, return_index=True,
                                          return_counts=True)
    order = np.argsort(first)
    rows, terms = np.divmod(pairs[order], width)
    weights = (occurrences[order] / lengths[rows]) * vocab.idf[terms]
    counts = np.bincount(rows, minlength=n)
    return FlatEntries(counts=counts, starts=np.cumsum(counts) - counts,
                       terms=terms, weights=weights)


def entry_norms(entries: FlatEntries) -> np.ndarray:
    """Each vector's norm. Its squares add to 0.0 in entry order, one entry
    rank at a time across every vector that has an entry at that rank: a
    left fold per vector."""
    counts, starts = entries.counts, entries.starts
    squares, norms = entries.weights * entries.weights, np.zeros(len(counts))
    longest_first = np.argsort(-counts, kind="stable")
    # how many vectors have more than j entries, for each rank j
    longer = np.searchsorted(-counts[longest_first],
                             -np.arange(counts.max(initial=0)))
    for rank, m in enumerate(longer.tolist()):
        live = longest_first[:m]
        norms[live] += squares[starts[live] + rank]
    return np.sqrt(norms)


@dataclass
class CategoryGraph:
    """Category nodes and the edges between every pair of them.

    Node state is kept as categories x (terms + 1) arrays; the last column
    is always zero and pads each category's term order. `term_sums` holds
    each category's running per-term sums over its members, `node_values`
    the sums over the member count, `touch_order` each category's term ids
    in first-touch order (the order the mean's entries take) with
    `n_touched` of them in use, and `norms` each node vector's norm.
    `rho_rows` holds every rho(a, c) as one list per category row, in
    `categories` order, with rho(a, a) on the diagonal: the one store of
    the edges. `edges` is a read-only view built from it on each read.
    An item's vector is a term array and a weight array: a corpus item's
    are its index row, and any other item's are featurized once per
    distinct text in a run and kept in `text_entries` and `item_vectors`.
    """
    vocab: Vocabulary
    index: object                       # the CandidateIndex of the corpus
    categories: tuple
    members: dict                       # category -> list of item ids
    item_vectors: dict                  # id -> (terms, weights), items outside the index
    edge_rows: tuple                    # the edges' (a rows, b rows), a < b
    rows: dict                          # category -> array row
    term_sums: np.ndarray
    node_values: np.ndarray
    touched: np.ndarray                 # bool, categories x terms
    touch_order: np.ndarray             # term ids, padded with the zero column
    n_touched: np.ndarray
    norms: np.ndarray
    text_entries: dict                  # text -> (terms, weights)
    rho_rows: list                      # row of a -> [rho(a, c) for c in categories]
    rho_gather: np.ndarray              # rows (a, c) -> index in edges + diagonal

    @classmethod
    def build(cls, corpus, vocab: Vocabulary, index) -> "CategoryGraph":
        """Every category starts with the zero vector and every sorted pair
        with edge 0.0; then the corpus's items are accepted as one batch.

        `index`, the CandidateIndex of the corpus built over `vocab`, holds
        the corpus items' vectors: an accepted item in it folds its index
        row, and only other items are featurized.
        """
        if index.ids != list(corpus.items):
            raise ValueError("the candidate index was built from another corpus")
        categories = corpus.categories()
        n = len(categories)
        shape = (n, len(vocab.term_ids) + 1)
        a, b = np.triu_indices(n, 1)
        gather = np.empty((n, n), dtype=np.intp)
        gather[a, b] = gather[b, a] = np.arange(len(a))
        gather[np.diag_indices(n)] = len(a) + np.arange(n)
        graph = cls(vocab=vocab, index=index, categories=categories,
                    members={c: [] for c in categories}, item_vectors={},
                    edge_rows=(a, b), rows={c: r for r, c in enumerate(categories)},
                    term_sums=np.zeros(shape), node_values=np.zeros(shape),
                    touched=np.zeros(shape, dtype=bool),
                    touch_order=np.full(shape, shape[1] - 1, dtype=np.intp),
                    n_touched=np.zeros(n, dtype=np.intp),
                    norms=np.zeros(n), text_entries={},
                    rho_rows=np.zeros((n, n)).tolist(), rho_gather=gather)
        graph._fold(list(corpus.items.values()), index.entries)
        return graph

    @property
    def edges(self) -> dict:
        """sorted (a, b) -> correlation, pairs in `categories` order."""
        cats, table = self.categories, self.rho_rows
        return {(cats[i], cats[j]): table[i][j]
                for i, j in zip(*(rows.tolist() for rows in self.edge_rows))}

    def rho(self, a: str, b: str) -> float:
        """The edge between a and b; for a == b, 1.0 when the node's vector
        is nonzero and 0.0 otherwise."""
        return self.rho_rows[self.rows[a]][self.rows[b]]

    def rho_row(self, a: str) -> list:
        """[rho(a, c) for c in categories]; the caller must not change it."""
        return self.rho_rows[self.rows[a]]

    def _featurize_new(self, items: list) -> None:
        """Record the vector of every item outside the index in item_vectors.
        The distinct texts not featurized before in this run are featurized
        in one featurize_corpus call."""
        texts = [(item.id, item.text()) for item in items
                 if item.id not in self.index.pos]
        fresh = list(dict.fromkeys(text for _, text in texts
                                   if text not in self.text_entries))
        if fresh:
            entries = featurize_corpus(list(map(tokenize, fresh)), self.vocab)
            ends = (entries.starts + entries.counts).tolist()
            for text, start, end in zip(fresh, entries.starts.tolist(), ends):
                self.text_entries[text] = (entries.terms[start:end],
                                           entries.weights[start:end])
        for item_id, text in texts:
            self.item_vectors[item_id] = self.text_entries[text]

    def item_entries(self, item_ids) -> FlatEntries:
        """The flat entries of the items with these ids, in order: an index
        item's from its index row, any other item's from item_vectors."""
        index = self.index.entries
        terms, weights = [], []
        for item_id in item_ids:
            row = self.index.pos.get(item_id)
            if row is None:
                item_terms, item_weights = self.item_vectors[item_id]
            else:
                span = slice(index.starts[row], index.starts[row] + index.counts[row])
                item_terms, item_weights = index.terms[span], index.weights[span]
            terms.append(item_terms)
            weights.append(item_weights)
        counts = np.fromiter(map(len, terms), np.intp, len(terms))
        return FlatEntries(counts=counts, starts=np.cumsum(counts) - counts,
                           terms=np.concatenate(terms),
                           weights=np.concatenate(weights))

    def accept_items(self, items) -> None:
        """Fold a batch of accepted items into the node vectors and edges.

        Every item is checked before any is folded, so a bad item leaves the
        graph as it was. Items fold into members and running sums in the
        order given: np.add.at adds to each sum one item at a time, a left
        fold over the members. A term first touched by the batch joins the
        end of its category's term order. Each touched node is then divided
        by its member count, and every norm and edge is a np.cumsum, which
        adds strictly left to right: a norm over the node's own term order,
        and an edge's dot product over the order of the endpoint with fewer
        terms, the smaller category on a tie. Padding and terms absent from
        the other endpoint add 0.0, which leaves the non-negative sums
        unchanged. So every node and edge equals its scalar oracle, the
        mean of the members' vectors and the cosine of a < b in
        tests/oracle.py, and the graph equals a rebuild bit for bit however
        the accepts are split into batches.
        """
        self._fold(list(items))

    def _fold(self, items: list, entries: FlatEntries = None) -> None:
        """accept_items, with the items' flat entries when the caller has
        them."""
        if not items:
            return
        pair_item, rows = self._pairs(items)
        if entries is None:
            self._featurize_new(items)
            entries = self.item_entries([item.id for item in items])
        if not len(rows):
            return
        for i, r in zip(pair_item.tolist(), rows.tolist()):
            self.members[self.categories[r]].append(items[i].id)
        # each (category, item) pair takes its item's entries
        counts = entries.counts[pair_item]
        take = segments(entries.starts[pair_item], counts)
        cat_rows, terms = np.repeat(rows, counts), entries.terms[take]
        np.add.at(self.term_sums, (cat_rows, terms), entries.weights[take])
        self._extend_touch_order(cat_rows, terms)
        changed = np.flatnonzero(np.bincount(rows, minlength=len(self.categories)))
        members = [len(self.members[self.categories[r]]) for r in changed.tolist()]
        self.node_values[changed] = self.term_sums[changed] / np.array(members)[:, None]
        order = self.touch_order[:, :max(1, int(self.n_touched.max()))]
        node = self.node_values[changed[:, None], order[changed]]
        self.norms[changed] = np.sqrt(np.cumsum(node * node, axis=1)[:, -1])
        self._recompute_edges(order)

    def _pairs(self, items: list) -> tuple:
        """(item position, category row) of every positive weight, in item
        and then weight order. An unknown category is a ValueError naming
        the first such item."""
        positions, rows = [], []
        for n, item in enumerate(items):
            for cat, w in item.category_weights.items():
                if w > 0.0:
                    row = self.rows.get(cat)
                    if row is None:
                        raise ValueError(f"item {item.id}: unknown category {cat!r}")
                    positions.append(n)
                    rows.append(row)
        return np.array(positions, dtype=np.intp), np.array(rows, dtype=np.intp)

    def _extend_touch_order(self, cat_rows: np.ndarray, terms: np.ndarray) -> None:
        """Append each (category, term) the batch touches first, in the order
        of its first touch."""
        fresh = np.flatnonzero(~self.touched[cat_rows, terms])
        if not len(fresh):
            return
        width = self.touched.shape[1]
        keys = cat_rows[fresh] * width + terms[fresh]
        first = np.full(self.touched.size, len(keys))
        np.minimum.at(first, keys, np.arange(len(keys)))
        new = np.flatnonzero(first < len(keys))
        cat_rows, terms = np.divmod(new[np.argsort(first[new])], width)
        group = np.argsort(cat_rows, kind="stable")
        cat_rows, terms = cat_rows[group], terms[group]
        added = np.bincount(cat_rows, minlength=len(self.categories))
        rank = np.arange(len(cat_rows)) - (np.cumsum(added) - added)[cat_rows]
        self.touch_order[cat_rows, self.n_touched[cat_rows] + rank] = terms
        self.touched[cat_rows, terms] = True
        self.n_touched += added

    def _recompute_edges(self, order: np.ndarray) -> None:
        a, b = self.edge_rows
        n = self.n_touched
        side = np.where(n[b] < n[a], b, a)
        width = self.node_values.shape[1]
        values = self.node_values.ravel()
        cols = order[side]
        dots = np.cumsum(values[(side * width)[:, None] + cols]
                         * values[((a + b - side) * width)[:, None] + cols],
                         axis=1)[:, -1]
        norm_a, norm_b = self.norms[a], self.norms[b]
        zero = (norm_a == 0.0) | (norm_b == 0.0)
        rho = np.clip(dots / np.where(zero, 1.0, norm_a * norm_b), -1.0, 1.0)
        rho[zero] = 0.0
        # rho(a, a) is 1.0 for a node with a nonzero vector and 0.0 otherwise
        self.rho_rows = np.concatenate((rho, self.norms != 0.0))[
            self.rho_gather].tolist()

    def to_json_dict(self) -> dict:
        terms = self.vocab.terms()
        nodes = []
        for cat, row in self.rows.items():
            tids = np.sort(self.touch_order[row, :self.n_touched[row]])
            nodes.append({
                "category": cat,
                "members": len(self.members[cat]),
                "vector": dict(zip(map(terms.__getitem__, tids.tolist()),
                                   self.node_values[row, tids].tolist())),
            })
        edges = [{"a": a, "b": b, "rho": r} for (a, b), r in sorted(self.edges.items())]
        return {"nodes": nodes, "edges": edges}


class GraphUpdateBuffer:
    """Queues accepted items so a step sees a frozen graph.

    Items queue until flush, which folds them all in one accept_items call;
    nothing writes the graph before then, so every user in a step reads the
    same snapshot from the graph itself, no matter the execution order.
    """

    def __init__(self, graph: CategoryGraph):
        self.graph = graph
        self.pending = []

    def accept_items(self, items) -> None:
        self.pending.extend(items)

    def flush(self) -> int:
        count = len(self.pending)
        self.graph.accept_items(self.pending)
        self.pending = []
        return count
