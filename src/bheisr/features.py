"""Text features and the category correlation graph.

Items are embedded as smoothed TF-IDF vectors over a corpus vocabulary; a
category's vector is the arithmetic mean of its member items' vectors, and
category correlation is the cosine of those vectors. The graph is complete
over categories with nonzero vectors and is updated incrementally as users
accept items.
"""

import math
import re
from dataclasses import dataclass, field

TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> list:
    """Lowercase, split on non-alphanumerics, drop tokens shorter than 2."""
    return [t for t in TOKEN_RE.findall(text.lower()) if len(t) >= 2]


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


def build_vocabulary(items) -> Vocabulary:
    """Vocabulary over item titles+abstracts with smoothed idf.

    idf(t) = ln((1 + N) / (1 + df(t))) + 1, always positive.
    """
    df: dict = {}
    n_docs = 0
    for item in items:
        n_docs += 1
        for term in set(tokenize(item.text())):
            df[term] = df.get(term, 0) + 1
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
        return cls(entries=entries, norm=math.sqrt(sum(v * v for v in entries.values())))

    def dot(self, other: "FeatureVector") -> float:
        a, b = self.entries, other.entries
        if len(b) < len(a):
            a, b = b, a
        return sum(w * b[t] for t, w in a.items() if t in b)

    def is_zero(self) -> bool:
        return self.norm == 0.0


def featurize(item, vocab: Vocabulary) -> FeatureVector:
    """TF-IDF vector; tf is raw count over document token length.

    Tokens outside the vocabulary are ignored. Empty or fully-unknown text
    gives the zero vector.
    """
    tokens = tokenize(item.text())
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
    vocab: Vocabulary
    categories: tuple
    members: dict                       # category -> list of item ids
    item_vectors: dict                  # item id -> FeatureVector
    vectors: dict = field(default_factory=dict)   # category -> FeatureVector
    edges: dict = field(default_factory=dict)     # sorted (a, b) -> correlation
    sums: dict = field(default_factory=dict)      # category -> {term id: sum}

    @classmethod
    def build(cls, corpus, vocab: Vocabulary = None,
              item_vectors: dict = None) -> "CategoryGraph":
        if vocab is None:
            vocab = build_vocabulary(corpus.items.values())
        if item_vectors is None:
            item_vectors = {it.id: featurize(it, vocab) for it in corpus.items.values()}
        else:
            # the graph mutates its vector cache, so take a copy
            item_vectors = dict(item_vectors)
        categories = corpus.categories()
        graph = cls(vocab=vocab, categories=categories,
                    members={c: [] for c in categories},
                    item_vectors=item_vectors,
                    sums={c: {} for c in categories})
        for item in corpus.items.values():
            graph._check(item)
            graph._fold(item)
        for cat in categories:
            graph._recompute_vector(cat)
        graph.rebuild_edges()
        return graph

    def _check(self, item) -> None:
        for cat, w in item.category_weights.items():
            if w > 0.0 and cat not in self.members:
                raise ValueError(f"item {item.id}: unknown category {cat!r}")

    def _fold(self, item) -> list:
        """Append the item to its categories' members and running sums.

        Each sum is the left fold over the members in order that
        _mean_vector computes, term by term in the same insertion order.
        Returns the touched categories in category_weights order.
        """
        vec = self.item_vectors[item.id]
        touched = []
        for cat, w in item.category_weights.items():
            if w <= 0.0:
                continue
            self.members[cat].append(item.id)
            acc = self.sums[cat]
            for tid, value in vec.entries.items():
                acc[tid] = acc.get(tid, 0.0) + value
            touched.append(cat)
        return touched

    def _recompute_vector(self, category: str) -> None:
        n = len(self.members[category])
        self.vectors[category] = FeatureVector.from_entries(
            {tid: w / n for tid, w in self.sums[category].items()})

    def rebuild_edges(self) -> None:
        cats = self.categories
        self.edges = {}
        for i, a in enumerate(cats):
            for b in cats[i + 1:]:
                self.edges[(a, b)] = correlation(self.vectors[a], self.vectors[b])

    def rho(self, a: str, b: str) -> float:
        if a == b:
            return 1.0 if not self.vectors[a].is_zero() else 0.0
        key = (a, b) if a < b else (b, a)
        return self.edges[key]

    def accept_items(self, items) -> None:
        """Fold a batch of accepted items into the node vectors and edges.

        Every item is checked before any is folded, so a bad item leaves the
        graph as it was. Items fold into members and running sums in the
        order given; each touched node vector is then recomputed once, and
        each edge with a touched endpoint once, from the final vectors. The
        result is bit-identical to accepting the items one at a time: an
        edge is correlation(x, y), where x is the endpoint whose last fold
        came later (for one item, the later category in category_weights
        order). A rebuild takes (a, b) in sorted order, which can differ in
        the last bit (see FeatureVector.dot).
        """
        items = list(items)
        for item in items:
            self._check(item)
        last = {}            # touched category -> None, in order of last fold
        for item in items:
            if item.id not in self.item_vectors:
                self.item_vectors[item.id] = featurize(item, self.vocab)
            for cat in self._fold(item):
                last.pop(cat, None)
                last[cat] = None
        rank = {cat: r for r, cat in enumerate(last)}
        for cat in rank:
            self._recompute_vector(cat)
        for cat, r in rank.items():
            vec = self.vectors[cat]
            for other in self.categories:
                # a later-folded endpoint writes the edge itself
                if other == cat or rank.get(other, -1) > r:
                    continue
                key = (cat, other) if cat < other else (other, cat)
                self.edges[key] = correlation(vec, self.vectors[other])

    def to_json_dict(self) -> dict:
        terms = self.vocab.terms()
        nodes = []
        for cat in self.categories:
            vec = self.vectors[cat]
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
