"""Text features and the category correlation graph.

Items are embedded as smoothed TF-IDF vectors over a corpus vocabulary; a
category's vector is the arithmetic mean of its member items' vectors, and
category correlation is the cosine of those vectors. The graph is complete
over categories with nonzero vectors and is updated incrementally as users
accept items.
"""

import math
import re
from dataclasses import dataclass

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
    vectors: dict                       # category -> FeatureVector
    edges: dict                         # sorted (a, b) -> correlation
    sums: dict                          # category -> {term id: sum}

    @classmethod
    def build(cls, corpus, vocab: Vocabulary = None,
              item_vectors: dict = None) -> "CategoryGraph":
        """Every category starts with the zero vector and every sorted pair
        with edge 0.0; then the corpus's items are accepted as one batch.
        `item_vectors` is copied, as the graph adds to its own cache."""
        if vocab is None:
            vocab = build_vocabulary(corpus.items.values())
        categories = corpus.categories()
        graph = cls(vocab=vocab, categories=categories,
                    members={c: [] for c in categories},
                    item_vectors=dict(item_vectors or {}),
                    vectors={c: FeatureVector.from_entries({}) for c in categories},
                    edges={(a, b): 0.0 for i, a in enumerate(categories)
                           for b in categories[i + 1:]},
                    sums={c: {} for c in categories})
        graph.accept_items(corpus.items.values())
        return graph

    def rho(self, a: str, b: str) -> float:
        if a == b:
            return 1.0 if not self.vectors[a].is_zero() else 0.0
        key = (a, b) if a < b else (b, a)
        return self.edges[key]

    def accept_items(self, items) -> None:
        """Fold a batch of accepted items into the node vectors and edges.

        Every item is checked before any is folded, so a bad item leaves the
        graph as it was. Items fold into members and running sums in the
        order given, an item without a vector being featurized first; each
        sum is the left fold over the members in order that _mean_vector
        computes, term by term in the same insertion order. Each touched
        node vector is then recomputed once, and each edge with a touched
        endpoint once, as correlation(vectors[a], vectors[b]) with a < b.
        The result depends only on the order of the accepts, not on how
        they are split into batches, so it equals a rebuild bit for bit.
        """
        items = list(items)
        for item in items:
            for cat, w in item.category_weights.items():
                if w > 0.0 and cat not in self.members:
                    raise ValueError(f"item {item.id}: unknown category {cat!r}")
        touched = set()
        for item in items:
            vec = self.item_vectors.get(item.id)
            if vec is None:
                vec = self.item_vectors[item.id] = featurize(item, self.vocab)
            for cat, w in item.category_weights.items():
                if w <= 0.0:
                    continue
                self.members[cat].append(item.id)
                acc = self.sums[cat]
                for tid, value in vec.entries.items():
                    acc[tid] = acc.get(tid, 0.0) + value
                touched.add(cat)
        for cat in touched:
            n = len(self.members[cat])
            self.vectors[cat] = FeatureVector.from_entries(
                {tid: w / n for tid, w in self.sums[cat].items()})
        cats = self.categories
        for i, a in enumerate(cats):
            for b in cats[i + 1:]:
                if a in touched or b in touched:
                    self.edges[(a, b)] = correlation(self.vectors[a], self.vectors[b])

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
