"""Scalar reference implementations the tests compare the package against.

The package computes item vectors, category nodes, edges, baseline scores
and beliefs in array passes or one fused loop; these are the plain-loop
definitions of the same values (entropy_bits is the belief's). A
vector is a dict of term id -> weight in first-occurrence order plus its
norm, and every sum is a left fold, so the array paths can be checked against
them with ==. Brute-force references enumerate the greedy next hop and the
two-sigma classification, and rebuilt_by_fold rebuilds the scoring state by
one note_accept per user. A spy on the package's one featurizer counts what
it is asked to featurize, and a patch reverses the order a step visits its
users in. TableGraph and TableNetwork stand in for the category graph and a
belief network over hand-written tables. The last helpers build test inputs:
a scoring context over a fresh item table, a corpus from log rows, a prompt
path from its nodes, and the ledger's penalized edges as pairs.
"""

import math
from dataclasses import astuple, dataclass

import numpy as np

from bheisr import features, nudge, recommenders, simulate
from bheisr.belief import build_all
from bheisr.corpus import Corpus, _log_columns
from bheisr.features import ItemTable, Vocabulary, tokenize
from bheisr.folds import fold_sum
from bheisr.pathfinder import PromptPath
from bheisr.recommenders import FeedContext, acceptance_share


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


def item_vocabulary(items) -> Vocabulary:
    """build_vocabulary over the items' tokenize(item.text()), in order."""
    return features.build_vocabulary([tokenize(item.text()) for item in items])


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


def cb_score(item, network, vectors: dict) -> float:
    """Cosine between the item and the mean of the user's accepted items.

    `vectors` maps item id to FeatureVector for the item and for every item
    the user accepted. Cold users (empty history) score 0 for every item.
    """
    if not network.accepted:
        return 0.0
    profile = _mean_vector([vectors[i] for i in network.accepted])
    return correlation(vectors[item.id], profile)


def _dict_cosine(a: dict, b: dict) -> float:
    dot = sum(v * b.get(k, 0.0) for k, v in a.items())
    na = math.sqrt(sum(v * v for v in a.values()))
    nb = math.sqrt(sum(v * v for v in b.values()))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return dot / (na * nb)


def uc_score(item, user_id: str, networks: dict) -> float:
    """Sum over other users who accepted the item of their history cosine with
    this user, weighted by this user's belief share for the item."""
    me = networks[user_id]
    share = acceptance_share(item, me, fold_sum(me.belief.values()))
    if share == 0.0:
        return 0.0
    my_hist = me.mass_by_category()
    total = 0.0
    for other_id, other in networks.items():
        if other_id == user_id:
            continue
        if item.id in other.accepted:
            total += _dict_cosine(my_hist, other.mass_by_category())
    return total * share


def rebuilt_by_fold(ctx, *extra) -> FeedContext:
    """A context for the same networks whose accept rows, profile sums and
    mass rows (note_accept refreshes a UC user's) fold each whole history by
    one note_accept per user; `extra` are accepted items outside the corpus."""
    rebuilt = FeedContext(corpus=ctx.corpus, networks=ctx.networks,
                          table=ctx.table, baseline=ctx.baseline,
                          generator=ctx.generator)
    rebuilt.enable_acceleration()
    rebuilt.accept_matrix[:] = 0.0
    if rebuilt.profile_sums is not None:
        rebuilt.profile_sums[:] = 0.0
    by_id = {**ctx.corpus.items, **{item.id: item for item in extra}}
    for user in rebuilt.user_ids:
        rebuilt.note_accept({user: [by_id[i] for i in ctx.networks[user].accepted]})
    return rebuilt


def brute_force_next_hop(graph, current, network, ledger, visited):
    """Every unvisited candidate scored rho + belief * (-1 on a penalized
    edge, else 1); the highest, the smallest name on ties, or None."""
    scored = []
    penalized = penalized_edges(ledger)
    for cand in graph.categories:
        if cand == current or cand in visited:
            continue
        weight = -1.0 if tuple(sorted((current, cand))) in penalized else 1.0
        scored.append((-(graph.rho(current, cand)
                         + network.belief[cand] * weight), cand))
    if not scored:
        return None
    return min(scored)[1]


def brute_force_classify(beliefs, categories) -> tuple:
    """Two-sigma classification in loops, with statistics from numpy: every
    user's (highs, lows) in category order, and the users with both."""
    users = sorted(beliefs)
    labels = {u: ([], []) for u in users}
    for cat in categories:
        values = np.array([beliefs[u].get(cat, 0.0) for u in users])
        mu, sigma = values.mean(), values.std(ddof=0)
        for u, v in zip(users, values):
            if sigma == 0.0:
                continue                # everyone is normal here
            if v > mu + 2 * sigma:
                labels[u][0].append(cat)
            elif v < mu - 2 * sigma:
                labels[u][1].append(cat)
    extremes = {u: (tuple(h), tuple(lo)) for u, (h, lo) in labels.items()}
    fb = tuple(u for u in users if extremes[u][0] and extremes[u][1])
    return extremes, fb


def node_entries(graph, table) -> dict:
    """category -> {term id: value in the graph's `table` row}, term ids in
    the node's first-touch order."""
    out = {}
    for cat, row in graph.rows.items():
        tids = graph.touch_order[row, :graph.n_touched[row]]
        out[cat] = dict(zip(tids.tolist(), table[row, tids].tolist()))
    return out


def node_vectors(graph) -> dict:
    """category -> FeatureVector of its node, from the graph's arrays."""
    return {cat: FeatureVector(entries=entries,
                               norm=float(graph.norms[graph.rows[cat]]))
            for cat, entries in node_entries(graph, graph.node_values).items()}


def entropy_bits(probs) -> float:
    """Shannon entropy in bits; 0 * log2(0) is taken as 0. The scalar
    oracle for BeliefNetwork.recompute, which folds each category's
    probabilities the same way, in click_counts order."""
    total = 0.0
    for p in probs:
        if p < 0.0:
            raise ValueError(f"negative probability {p}")
        if p > 0.0:
            total -= p * math.log2(p)
    return total


def click_probs(network) -> dict:
    """The network's click probabilities, each subcategory's count over
    total_mass(), in click_counts order; {} for no mass."""
    total = network.total_mass()
    return {s: c / total for s, c in network.click_counts.items()} \
        if total > 0.0 else {}


def row_lists(table, row: int) -> tuple:
    """(term ids, weights) of one row of an ItemTable, as lists."""
    start, count = table.entries.starts[row], table.entries.counts[row]
    return (table.entries.terms[start:start + count].tolist(),
            table.entries.weights[start:start + count].tolist())


def assert_equals_the_oracle(graph, items):
    """The graph's table holds the candidate index's rows unchanged, then
    one row per distinct text of the accepted `items` outside the index,
    each equal to featurize. A category's members are the `items` with a
    positive weight on it, in order: the graph counts them, nodes equal
    _mean_vector of their featurize vectors and edges equal correlation of
    those, a < b, with ==."""
    table, vocab = graph.table, graph.table.index.vocab
    index, n = table.index.entries, len(table.index.ids)
    for name in ("counts", "starts"):
        assert np.array_equal(getattr(table.entries, name)[:n],
                              getattr(index, name))
    for name in ("terms", "weights"):
        assert np.array_equal(getattr(table.entries, name)[:len(index.terms)],
                              getattr(index, name))
    outside = [item for item in items if item.id not in table.index.pos]
    assert set(table.text_rows) == {item.text() for item in outside}
    assert sorted(table.text_rows.values()) == \
        list(range(n, len(table.entries.counts)))
    for item in outside:
        terms, weights = row_lists(table, table.text_rows[item.text()])
        assert list(zip(terms, weights)) == \
            list(featurize(item, vocab).entries.items())
    members = {c: [] for c in graph.categories}
    for item in items:
        for cat, w in item.category_weights.items():
            if w > 0.0:
                members[cat].append(item)
    assert graph.member_counts.tolist() == [len(members[c]) for c in graph.categories]
    oracle = {c: _mean_vector([featurize(item, vocab) for item in members[c]])
              for c in graph.categories}
    vectors = node_vectors(graph)
    for cat in graph.categories:
        assert list(vectors[cat].entries.items()) == list(oracle[cat].entries.items())
        assert vectors[cat].norm == oracle[cat].norm
        assert graph.rho_row(cat)[graph.rows[cat]] == \
            (0.0 if oracle[cat].is_zero() else 1.0)
    for (a, b), rho in graph.edges.items():
        assert rho == correlation(oracle[a], oracle[b])


def spy_featurize_corpus(monkeypatch) -> list:
    """Record the token lists of every featurize_corpus call the package
    makes, one list per call, for the rest of the test."""
    calls = []
    real = features.featurize_corpus

    def spy(tokens, vocab):
        calls.append([list(t) for t in tokens])
        return real(tokens, vocab)

    for module in (features, nudge, recommenders):
        monkeypatch.setattr(module, "featurize_corpus", spy)
    return calls


def reverse_user_order(monkeypatch) -> None:
    """Have every step block visit its users last to first, for the rest
    of the test."""
    step_block = simulate._step_block
    monkeypatch.setattr(simulate, "_step_block", lambda state, users, step:
                        step_block(state, users[::-1], step))


class TableGraph:
    """Category graph stub: rho(a, b) is 1.0 on the diagonal, else the
    table's value for the pair in either order, else `default`; accept_items
    records the ids it is given in `accepted`."""

    def __init__(self, categories, table=(), default=0.0):
        self.categories = tuple(categories)
        self.table = {}
        for (a, b), rho in dict(table).items():
            self.table[(a, b)] = self.table[(b, a)] = rho
        self.default = default
        self.accepted = []

    def rho(self, a, b):
        return 1.0 if a == b else self.table.get((a, b), self.default)

    def rho_row(self, a):
        return [self.rho(a, c) for c in self.categories]

    def accept_items(self, items):
        self.accepted.extend(item.id for item in items)


class TableNetwork:
    """Belief network stub over a category -> belief table."""

    def __init__(self, belief, user_id="u"):
        self.belief = belief
        self.user_id = user_id


def context_for(corpus, baseline="cb") -> FeedContext:
    """An accelerated scoring context over a fresh item table, with the
    template generator; CategoryGraph.build(corpus, ctx.table) is the graph
    over the same table."""
    ctx = FeedContext(corpus=corpus, networks=build_all(corpus),
                      table=ItemTable(simulate.build_assets(corpus)),
                      baseline=baseline, generator=nudge.TemplateGenerator({}))
    ctx.enable_acceleration()
    return ctx


def corpus_of(items: dict, log, taxonomy: dict, users: tuple,
              signal_scheme: str = "click") -> Corpus:
    """An unvalidated corpus whose log holds `log`, (user id, item id,
    timestamp, signal) rows in order; an unknown id is a ValueError."""
    columns = list(zip(*log)) or [()] * 4
    return Corpus(items=items, taxonomy=taxonomy, users=users,
                  signal_scheme=signal_scheme,
                  **_log_columns(items, users, *columns))


def log_rows(corpus) -> list:
    """The corpus's log as (user id, item id, timestamp, signal) rows."""
    return [astuple(row) for row in corpus.interactions]


def path_of(*nodes) -> PromptPath:
    return PromptPath(nodes=tuple(nodes))


def penalized_edges(ledger) -> set:
    """The ledger's penalized edges as sorted (a, b) pairs."""
    return {(a, b) for a, ends in ledger.penalized_at.items()
            for b in ends if a < b}
