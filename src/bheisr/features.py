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
    term_ids: dict          # term -> int id
    idf: dict               # term id -> idf weight
    n_docs: int

    def terms(self) -> list:
        out = [None] * len(self.term_ids)
        for term, tid in self.term_ids.items():
            out[tid] = term
        return out


def build_vocabulary(items, tokens: list = None) -> Vocabulary:
    """Vocabulary over item titles+abstracts with smoothed idf.

    idf(t) = ln((1 + N) / (1 + df(t))) + 1, always positive. `tokens`, when
    the caller has them, is each item's tokenize(item.text()), in order.
    """
    if tokens is None:
        tokens = [tokenize(item.text()) for item in items]
    df = Counter(chain.from_iterable(map(set, tokens)))
    n_docs = len(tokens)
    term_ids = {term: i for i, term in enumerate(sorted(df))}
    idf = {term_ids[t]: math.log((1 + n_docs) / (1 + c)) + 1.0 for t, c in df.items()}
    return Vocabulary(term_ids=term_ids, idf=idf, n_docs=n_docs)


@dataclass
class FeatureVector:
    entries: dict           # term id -> weight
    norm: float

    @classmethod
    def from_entries(cls, entries: dict) -> "FeatureVector":
        entries = {k: v for k, v in entries.items() if v != 0.0}
        norm = 0.0
        for v in entries.values():
            norm += v * v
        return cls(entries=entries, norm=math.sqrt(norm))

    def dot(self, other: "FeatureVector") -> float:
        """Products over the shorter side's entries (this side on a tie),
        added left to right like the norm in from_entries. Both are plain
        loops, not sum(), which compensates its rounding from Python 3.12
        on: the category graph's np.cumsum edges equal correlation() only
        under this order."""
        a, b = self.entries, other.entries
        if len(b) < len(a):
            a, b = b, a
        total = 0.0
        for t, w in a.items():
            if t in b:
                total += w * b[t]
        return total

    def is_zero(self) -> bool:
        return self.norm == 0.0


def featurize(item, vocab: Vocabulary) -> FeatureVector:
    """TF-IDF vector; tf is raw count over document token length.

    Tokens outside the vocabulary are ignored. Empty or fully-unknown text
    gives the zero vector.
    """
    return featurize_tokens(tokenize(item.text()), vocab)


def featurize_tokens(tokens: list, vocab: Vocabulary) -> FeatureVector:
    """featurize of a text with these tokens; entries in first-occurrence
    order."""
    if not tokens:
        return FeatureVector.from_entries({})
    counts: dict = {}
    for t in tokens:
        tid = vocab.term_ids.get(t)
        if tid is not None:
            counts[tid] = counts.get(tid, 0) + 1
    length = len(tokens)
    return FeatureVector.from_entries(
        {tid: (c / length) * vocab.idf[tid] for tid, c in counts.items()})


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


def featurize_corpus(tokens: list, vocab: Vocabulary) -> tuple:
    """featurize_tokens of every token list, in array passes: the vectors'
    FlatEntries and their norms.

    Each list's distinct terms keep their first-occurrence order (np.unique
    over (list, term) keys, groups ordered by first index) and weigh
    (count / length) * idf, elementwise as featurize_tokens computes them.
    Each norm adds its squares to 0.0 in entry order, one entry rank at a
    time across every vector that has an entry at that rank: the left fold
    from_entries loops. So every entry, weight and norm equals
    featurize_tokens's. Weights are never 0.0 (a count is at least 1 and
    idf at least 1), so none is dropped.
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
    idf = np.fromiter(map(vocab.idf.__getitem__, range(len(vocab.term_ids))),
                      float, len(vocab.term_ids))
    weights = (occurrences[order] / lengths[rows]) * idf[terms]
    counts = np.bincount(rows, minlength=n)
    starts = np.cumsum(counts) - counts
    squares, norms = weights * weights, np.zeros(n)
    longest_first = np.argsort(-counts, kind="stable")
    # how many vectors have more than j entries, for each rank j
    longer = np.searchsorted(-counts[longest_first],
                             -np.arange(counts.max(initial=0)))
    for rank, m in enumerate(longer.tolist()):
        live = longest_first[:m]
        norms[live] += squares[starts[live] + rank]
    return FlatEntries(counts=counts, starts=starts, terms=terms,
                       weights=weights), np.sqrt(norms)


def correlation(a: FeatureVector, b: FeatureVector) -> float:
    """Cosine similarity; zero if either vector has zero norm."""
    if a.norm == 0.0 or b.norm == 0.0:
        return 0.0
    value = a.dot(b) / (a.norm * b.norm)
    return min(1.0, max(-1.0, value))


def _mean_vector(vectors: list) -> FeatureVector:
    if not vectors:
        return FeatureVector.from_entries({})
    acc: dict = {}
    for vec in vectors:
        for tid, w in vec.entries.items():
            acc[tid] = acc.get(tid, 0.0) + w
    n = len(vectors)
    return FeatureVector.from_entries({tid: w / n for tid, w in acc.items()})


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
    the edges. `vectors`, `sums` and `edges` are read-only views built from
    them on each read.
    """
    vocab: Vocabulary
    index: object                       # the CandidateIndex of the corpus
    categories: tuple
    members: dict                       # category -> list of item ids
    item_vectors: dict                  # item id -> FeatureVector, items outside the index
    edge_rows: tuple                    # the edges' (a rows, b rows), a < b
    rows: dict                          # category -> array row
    term_sums: np.ndarray
    node_values: np.ndarray
    touched: np.ndarray                 # bool, categories x terms
    touch_order: np.ndarray             # term ids, padded with the zero column
    n_touched: np.ndarray
    norms: np.ndarray
    text_entries: dict                  # text -> (vector, terms, weights), as item_vectors
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
    def vectors(self) -> dict:
        """category -> FeatureVector of its node, entries in first-touch
        order."""
        return {c: FeatureVector(entries=self._entries(self.node_values, r),
                                 norm=float(self.norms[r]))
                for c, r in self.rows.items()}

    @property
    def sums(self) -> dict:
        """category -> {term id: running sum}, in first-touch order."""
        return {c: self._entries(self.term_sums, r) for c, r in self.rows.items()}

    def _entries(self, table: np.ndarray, row: int) -> dict:
        tids = self.touch_order[row, :self.n_touched[row]]
        return dict(zip(tids.tolist(), table[row, tids].tolist()))

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

    def _text_entries(self, item) -> tuple:
        """(vector, term array, weight array) of an item outside the index,
        featurized once per distinct text; records the item's vector."""
        text = item.text()
        found = self.text_entries.get(text)
        if found is None:
            vec = featurize(item, self.vocab)
            entries = vec.entries
            found = self.text_entries[text] = (
                vec, np.fromiter(entries, np.intp, len(entries)),
                np.fromiter(entries.values(), float, len(entries)))
        self.item_vectors[item.id] = found[0]
        return found

    def _item_entries(self, items: list) -> FlatEntries:
        """The items' flat entries: an index item's from its index row, any
        other item's from _text_entries."""
        index = self.index.entries
        counts, terms, weights = [], [], []
        for item in items:
            row = self.index.pos.get(item.id)
            if row is None:
                _, item_terms, item_weights = self._text_entries(item)
                counts.append(len(item_terms))
                terms.append(item_terms)
                weights.append(item_weights)
            else:
                span = slice(index.starts[row], index.starts[row] + index.counts[row])
                counts.append(index.counts[row])
                terms.append(index.terms[span])
                weights.append(index.weights[span])
        counts = np.array(counts, dtype=np.intp)
        return FlatEntries(counts=counts, starts=np.cumsum(counts) - counts,
                           terms=np.concatenate(terms),
                           weights=np.concatenate(weights))

    def accept_items(self, items) -> None:
        """Fold a batch of accepted items into the node vectors and edges.

        Every item is checked before any is folded, so a bad item leaves the
        graph as it was. Items fold into members and running sums in the
        order given: np.add.at adds to each sum one item at a time, the left
        fold over the members that _mean_vector computes. A term first
        touched by the batch joins the end of its category's term order.
        Each touched node is then divided by its member count, and every
        norm and edge is a np.cumsum, which adds strictly left to right as
        FeatureVector's loops do: a norm over the node's own term order, and
        an edge's dot product over the order of the endpoint with fewer terms,
        the smaller category on a tie, which is the side FeatureVector.dot
        walks in correlation(vectors[a], vectors[b]) with a < b. Padding
        and terms absent from the other endpoint add 0.0, which leaves the
        non-negative sums unchanged. So every edge equals that correlation,
        and the graph equals a rebuild bit for bit however the accepts are
        split into batches.
        """
        self._fold(list(items))

    def _fold(self, items: list, entries: FlatEntries = None) -> None:
        """accept_items, with the items' flat entries when the caller has
        them."""
        if not items:
            return
        pair_item, rows = self._pairs(items)
        if entries is None:
            entries = self._item_entries(items)
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
        vectors = self.vectors
        nodes = []
        for cat in self.categories:
            vec = vectors[cat]
            nodes.append({
                "category": cat,
                "members": len(self.members[cat]),
                "vector": {terms[tid]: w for tid, w in sorted(vec.entries.items())},
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
