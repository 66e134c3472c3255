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

    def terms(self) -> list:
        return list(self.term_ids)


def build_vocabulary(tokens: list) -> Vocabulary:
    """Vocabulary over documents' token lists (an item's is
    tokenize(item.text())) with smoothed idf.

    idf(t) = ln((1 + N) / (1 + df(t))) + 1, always positive.
    """
    df = Counter(chain.from_iterable(map(set, tokens)))
    n = len(tokens)
    terms = sorted(df)
    idf = np.array([math.log((1 + n) / (1 + df[t])) + 1.0 for t in terms],
                   dtype=float)
    return Vocabulary(term_ids={term: i for i, term in enumerate(terms)},
                      idf=idf)


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
    """Each vector's norm. A CSR matrix-vector product adds each row's
    entries to 0.0 in stored order, so against ones it folds every vector's
    squares left to right in entry order."""
    from scipy import sparse    # CB alone scores through scipy
    terms, weights = entries.terms, entries.weights
    squares = sparse.csr_matrix(
        (weights * weights, terms, np.append(entries.starts, len(terms))),
        shape=(len(entries.counts), int(terms.max(initial=0)) + 1))
    return np.sqrt(squares @ np.ones(squares.shape[1]))


class ItemTable:
    """The vector of every item one run meets, one row per item.

    Rows 0..n-1 are the candidate index's rows, never written. An item
    outside the index takes the row of its text: the texts a call brings for
    the first time in the run are featurized in one featurize_corpus call
    and appended, and the item's id keeps its row. The table grows only at
    the step barrier, which is the only place that passes it new items.
    """

    def __init__(self, index):
        self.index = index                  # the CandidateIndex of the corpus
        self.entries = index.entries        # FlatEntries of every row
        self.text_rows = {}                 # text -> row, items outside the index
        self.item_rows = {}                 # id -> row, items outside the index
        self._store = None                  # FlatEntries with room behind entries

    def rows(self, items: list) -> np.ndarray:
        """Each item's row, in order, appending the rows of new texts."""
        text_rows, item_rows = self.text_rows, self.item_rows
        ids = [item.id for item in items]
        rows = np.fromiter(map(self.index.pos.get, ids,
                               map(item_rows.get, ids, repeat(-1))),
                           np.intp, len(ids))
        new = np.flatnonzero(rows < 0).tolist()
        if new:
            texts = [items[n].text() for n in new]
            self._append([text for text in dict.fromkeys(texts)
                          if text not in text_rows])
            for n, text in zip(new, texts):
                rows[n] = item_rows[ids[n]] = text_rows[text]
        return rows

    def _append(self, texts: list) -> None:
        """Featurize the texts in one call and append their rows in place,
        into arrays with room to spare that double when it runs out: a flush
        copies only its own rows, where a copy of every row costs more."""
        if not texts:
            return
        old = self.entries
        n_rows, n_entries = len(old.counts), len(old.terms)
        self.text_rows.update(zip(texts, range(n_rows, n_rows + len(texts))))
        new = featurize_corpus(list(map(tokenize, texts)), self.index.vocab)
        row_end, entry_end = n_rows + len(new.counts), n_entries + len(new.terms)
        store = self._store
        if store is None or row_end > len(store.counts) or entry_end > len(store.terms):
            store = self._store = FlatEntries(*(
                np.resize(part, 2 * end)
                for part, end in zip(old, (row_end, row_end, entry_end, entry_end))))
        store.counts[n_rows:row_end] = new.counts
        store.starts[n_rows:row_end] = new.starts + n_entries
        store.terms[n_entries:entry_end] = new.terms
        store.weights[n_entries:entry_end] = new.weights
        self.entries = FlatEntries(store.counts[:row_end], store.starts[:row_end],
                                   store.terms[:entry_end], store.weights[:entry_end])

    def take(self, rows: np.ndarray) -> tuple:
        """(counts, terms, weights) of these rows' entries, in row order:
        one segments pass."""
        entries = self.entries
        counts = entries.counts[rows]
        take = segments(entries.starts[rows], counts)
        return counts, entries.terms[take], entries.weights[take]


@dataclass
class CategoryGraph:
    """Category nodes and the edges between every pair of them.

    Node state is kept as categories x (terms + 1) arrays; the last column
    is always zero and pads each category's term order. `term_sums` holds
    each category's running per-term sums over its `member_counts` members,
    `node_values` the sums over the member count, `touch_order` each
    category's term ids in first-touch order (the order the mean's entries
    take) with `n_touched` of them in use, and `norms` each node vector's
    norm. Entry weights are positive, so a sum is 0.0 exactly until its term
    is first touched.
    `rho_rows` holds every rho(a, c) as one list per category row, in
    `categories` order, with rho(a, a) on the diagonal: the one store of
    the edges. `edges` is a read-only view built from it on each read.
    Every item's vector is its row of the run's ItemTable.
    """
    table: ItemTable
    categories: tuple
    member_counts: np.ndarray           # per category row, its member count
    edge_rows: tuple                    # the edges' (a rows, b rows), a < b
    rows: dict                          # category -> array row
    term_sums: np.ndarray
    node_values: np.ndarray
    touch_order: np.ndarray             # term ids, padded with the zero column
    n_touched: np.ndarray
    norms: np.ndarray
    rho_rows: list                      # row of a -> [rho(a, c) for c in categories]
    rho_gather: np.ndarray              # rows (a, c) -> index in edges + diagonal

    @classmethod
    def build(cls, corpus, table: ItemTable) -> "CategoryGraph":
        """Every category starts with the zero vector and every sorted pair
        with edge 0.0; then the corpus's items are accepted as one batch,
        each folding its row of `table`, the run's table over the corpus's
        candidate index: corpus item r is row r.
        """
        if table.index.ids != list(corpus.items):
            raise ValueError("the candidate index was built from another corpus")
        categories = corpus.categories()
        n = len(categories)
        shape = (n, len(table.index.vocab.term_ids) + 1)
        a, b = np.triu_indices(n, 1)
        gather = np.empty((n, n), dtype=np.intp)
        gather[a, b] = gather[b, a] = np.arange(len(a))
        gather[np.diag_indices(n)] = len(a) + np.arange(n)
        graph = cls(table=table, categories=categories,
                    member_counts=np.zeros(n, dtype=np.intp), edge_rows=(a, b),
                    rows={c: r for r, c in enumerate(categories)},
                    term_sums=np.zeros(shape), node_values=np.zeros(shape),
                    touch_order=np.full(shape, shape[1] - 1, dtype=np.intp),
                    n_touched=np.zeros(n, dtype=np.intp),
                    norms=np.zeros(n), rho_rows=np.zeros((n, n)).tolist(),
                    rho_gather=gather)
        graph.accept_items(corpus.items.values(),
                           np.arange(len(table.index.ids), dtype=np.intp))
        return graph

    @property
    def edges(self) -> dict:
        """sorted (a, b) -> correlation, pairs in `categories` order."""
        cats, table = self.categories, self.rho_rows
        return {(cats[i], cats[j]): table[i][j]
                for i, j in zip(*(rows.tolist() for rows in self.edge_rows))}

    def rho_row(self, a: str) -> list:
        """[rho(a, c) for c in categories]; the caller must not change it."""
        return self.rho_rows[self.rows[a]]

    def accept_items(self, items, item_rows: np.ndarray = None) -> None:
        """Fold a batch of accepted items into the node vectors and edges.

        Items fold into the running sums in the order given: np.add.at adds
        to each sum one item at a time, a left fold over the members. A term
        first touched by the batch joins the end of its category's term
        order. Each touched node is then divided by its member count, and
        every norm and edge is a np.cumsum, which adds strictly left to
        right: a norm over the node's own term order, and an edge's dot
        product over the order of the endpoint with fewer terms, the smaller
        category on a tie. Padding and terms absent from the other endpoint
        add 0.0, which leaves the non-negative sums unchanged. So every node
        and edge equals its scalar oracle, the mean of the members' vectors
        and the cosine of a < b in tests/oracle.py, and the graph equals a
        rebuild bit for bit however the accepts are split into batches.

        `item_rows`, when the caller knows them, are the items' table rows;
        otherwise table.rows finds them.
        """
        items = list(items)
        if not items:
            return
        pair_item, rows = self._pairs(items)
        if item_rows is None:
            item_rows = self.table.rows(items)
        if not len(rows):
            return
        # each (category, item) pair takes its item's entries
        counts, terms, weights = self.table.take(item_rows[pair_item])
        cat_rows = np.repeat(rows, counts)
        self._extend_touch_order(cat_rows, terms)
        np.add.at(self.term_sums, (cat_rows, terms), weights)
        added = np.bincount(rows, minlength=len(self.categories))
        self.member_counts += added
        changed = np.flatnonzero(added)
        self.node_values[changed] = (self.term_sums[changed]
                                     / self.member_counts[changed, None])
        order = self.touch_order[:, :max(1, int(self.n_touched.max()))]
        node = self.node_values[changed[:, None], order[changed]]
        self.norms[changed] = np.sqrt(np.cumsum(node * node, axis=1)[:, -1])
        self._recompute_edges(order)

    def _pairs(self, items: list) -> tuple:
        """(item position, category row) of every positive weight, in item
        and then weight order."""
        positions, rows = [], []
        for n, item in enumerate(items):
            for cat, w in item.category_weights.items():
                if w > 0.0:
                    positions.append(n)
                    rows.append(self.rows[cat])
        return np.array(positions, dtype=np.intp), np.array(rows, dtype=np.intp)

    def _extend_touch_order(self, cat_rows: np.ndarray, terms: np.ndarray) -> None:
        """Append each (category, term) the batch touches first, in the order
        of its first touch; called before the batch adds to the sums."""
        fresh = np.flatnonzero(self.term_sums[cat_rows, terms] == 0.0)
        if not len(fresh):
            return
        width = self.term_sums.shape[1]
        keys = cat_rows[fresh] * width + terms[fresh]
        first = np.full(self.term_sums.size, len(keys))
        np.minimum.at(first, keys, np.arange(len(keys)))
        new = np.flatnonzero(first < len(keys))
        cat_rows, terms = np.divmod(new[np.argsort(first[new])], width)
        group = np.argsort(cat_rows, kind="stable")
        cat_rows, terms = cat_rows[group], terms[group]
        added = np.bincount(cat_rows, minlength=len(self.categories))
        rank = np.arange(len(cat_rows)) - (np.cumsum(added) - added)[cat_rows]
        self.touch_order[cat_rows, self.n_touched[cat_rows] + rank] = terms
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
        terms = self.table.index.vocab.terms()
        nodes = []
        for cat, row in self.rows.items():
            tids = np.sort(self.touch_order[row, :self.n_touched[row]])
            nodes.append({
                "category": cat,
                "members": int(self.member_counts[row]),
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
