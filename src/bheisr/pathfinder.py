"""Category-graph path exploration between belief extremes.

A prompt path starts at the user's strongest extreme-high category and walks
greedily toward the extreme-low target. Each hop maximizes correlation to the
current node plus the user's belief in the candidate, with the belief term
flipped to a penalty on edges the user has rejected past the tolerance
threshold. Ties break lexicographically.
"""

from dataclasses import dataclass, field
from functools import cached_property

from .corpus import PROMPT_KEY_SEPARATOR

DEFAULT_THETA = 2.0


@dataclass(frozen=True)
class PromptPath:
    """A walk over two or more distinct categories, and the facts every
    item generated for it shares, computed once when the path is built.

    `weights` is the generated item's {category: 1/len(nodes)} (one dict,
    shared by every such item and read-only), `node_set` the categories it
    touches, and `edge_keys` the sorted (a, b) pair of each edge in path
    order, the edges a rejection past the tolerance penalizes.
    """
    nodes: tuple
    key: str = field(init=False, repr=False, compare=False)   # "a->b->c"
    weights: dict = field(init=False, repr=False, compare=False)
    node_set: frozenset = field(init=False, repr=False, compare=False)
    edge_keys: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        nodes = self.nodes
        # frozen: the computed fields go straight into the instance dict
        facts = vars(self)
        facts["key"] = PROMPT_KEY_SEPARATOR.join(nodes)
        facts["weights"] = dict.fromkeys(nodes, 1.0 / len(nodes))
        facts["node_set"] = frozenset(nodes)
        facts["edge_keys"] = tuple([_edge_key(a, b) for a, b in zip(nodes, nodes[1:])])

    @cached_property
    def halves(self):
        """The binary split: two halves, or None for a terminal (length-2)
        path. Memoised, so every split of this path yields the same objects.

        Odd lengths drop the middle node (zero-based halves [0:(L-1)/2) and
        [(L+1)/2:L)); a length-3 path would leave single-node halves, so
        each half absorbs its nearest neighbor from the parent instead.
        """
        nodes = self.nodes
        length = len(nodes)
        if length == 2:
            return None
        if length == 3:
            return (PromptPath(nodes[0:2]), PromptPath(nodes[1:3]))
        if length % 2 == 0:
            return (PromptPath(nodes[: length // 2]), PromptPath(nodes[length // 2:]))
        return (PromptPath(nodes[: (length - 1) // 2]),
                PromptPath(nodes[(length + 1) // 2:]))


@dataclass
class RejectionLedger:
    theta: float = DEFAULT_THETA
    counts: dict = field(default_factory=dict)           # prompt key -> rejections
    # node -> the far ends of its penalized edges: each edge under both
    # endpoints, so a hop reads the edges at its node in one lookup
    penalized_at: dict = field(default_factory=dict)
    # nodes -> the path explore built for them; a path walked again is the
    # same object, so its facts and halves are not computed again
    paths: dict = field(default_factory=dict, repr=False, compare=False)


def _edge_key(a: str, b: str) -> tuple:
    return (a, b) if a < b else (b, a)


def record_rejection(ledger: RejectionLedger, prompt: PromptPath) -> RejectionLedger:
    """Count a rejection; the one that first passes the tolerance (theta is
    non-negative, as SimConfig checks) penalizes the prompt's edges."""
    key = prompt.key
    count = ledger.counts[key] = ledger.counts.get(key, 0) + 1
    if count - 1 <= ledger.theta < count:
        at = ledger.penalized_at
        for a, b in prompt.edge_keys:
            at.setdefault(a, set()).add(b)
            at.setdefault(b, set()).add(a)
    return ledger


def next_hop(graph, current: str, network, ledger: RejectionLedger,
             visited: set):
    """Best next node from `current`: argmax of rho + belief * rejection
    weight, the weight -1 on an edge the ledger penalizes and 1 otherwise.

    Ties break to the lexicographically smallest candidate; None if every
    other node has been visited. The correlations come from one
    `graph.rho_row(current)`, in `graph.categories` order.
    """
    best = None
    best_score = None
    belief = network.belief
    flipped = ledger.penalized_at.get(current, ())
    for cand, rho in zip(graph.categories, graph.rho_row(current)):
        if cand == current or cand in visited:
            continue
        score = rho + belief[cand] * (-1.0 if cand in flipped else 1.0)
        if best_score is None or score > best_score or \
                (score == best_score and cand < best):
            best, best_score = cand, score
    return best


def explore(graph, source: str, target: str, network, ledger: RejectionLedger,
            max_len: int = None) -> PromptPath:
    """Greedy walk from source until the target wins a hop or length runs out.

    The walk takes at most max_len nodes (default: every category), and
    the target is appended if it did not win a hop, so a path has at most
    max_len + 1 nodes and always ends at the target. A walk the ledger
    has seen before returns the PromptPath it returned then.
    """
    if max_len is None:
        max_len = len(graph.categories)
    nodes = [source]
    visited = {source}
    current = source
    while current != target and len(nodes) < max_len:
        nxt = next_hop(graph, current, network, ledger, visited)
        nodes.append(nxt)
        visited.add(nxt)
        current = nxt
    if nodes[-1] != target:
        nodes.append(target)
    nodes = tuple(nodes)
    path = ledger.paths.get(nodes)
    if path is None:
        path = ledger.paths[nodes] = PromptPath(nodes)
    return path


def select_endpoints(network, extremes: tuple) -> tuple:
    """Source = strongest extreme-high category, target = weakest extreme-low,
    from `extremes`, the user's (highs, lows) in UserClassification.extremes.

    Belief ties break lexicographically. Raises for users with no extreme
    categories on either side.
    """
    highs, lows = extremes
    if not highs or not lows:
        raise ValueError(f"user {network.user_id!r} is not bubble-affected")
    source = min(highs, key=lambda c: (-network.belief[c], c))
    target = min(lows, key=lambda c: (network.belief[c], c))
    return source, target


def reschedule(graph, network, ledger: RejectionLedger, extremes: tuple,
               max_len: int = None):
    """Fresh path after exhaustion; None when no unexhausted path exists.
    `extremes` is as in select_endpoints."""
    source, target = select_endpoints(network, extremes)
    path = explore(graph, source, target, network, ledger, max_len=max_len)
    if ledger.counts.get(path.key, 0) > ledger.theta:
        return None
    return path
