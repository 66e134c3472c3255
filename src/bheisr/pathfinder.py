"""Category-graph path exploration between belief extremes.

A prompt path starts at the user's strongest extreme-high category and walks
greedily toward the extreme-low target. Each hop maximizes correlation to the
current node plus the user's belief in the candidate, with the belief term
flipped to a penalty on edges the user has rejected past the tolerance
threshold. Ties break lexicographically.
"""

from dataclasses import dataclass, field

from .corpus import PROMPT_KEY_SEPARATOR
from .detection import Exposure

DEFAULT_THETA = 2


@dataclass(frozen=True)
class PromptPath:
    nodes: tuple
    key: str = field(init=False, repr=False, compare=False)   # "a->b->c"

    def __post_init__(self):
        if len(self.nodes) < 2:
            raise ValueError("a prompt path needs at least two nodes")
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError(f"path nodes must be distinct: {self.nodes}")
        # sessions compare and count prompts by key many times per step
        object.__setattr__(self, "key", PROMPT_KEY_SEPARATOR.join(self.nodes))

    @property
    def source(self) -> str:
        return self.nodes[0]

    @property
    def target(self) -> str:
        return self.nodes[-1]

    def edges(self) -> list:
        return [(self.nodes[i], self.nodes[i + 1]) for i in range(len(self.nodes) - 1)]


def path_of(*nodes) -> PromptPath:
    return PromptPath(nodes=tuple(nodes))


@dataclass
class RejectionLedger:
    theta: float = DEFAULT_THETA
    counts: dict = field(default_factory=dict)           # prompt key -> rejections
    penalized_edges: set = field(default_factory=set)    # sorted (a, b) pairs


def _edge_key(a: str, b: str) -> tuple:
    return (a, b) if a < b else (b, a)


def record_rejection(ledger: RejectionLedger, prompt: PromptPath) -> RejectionLedger:
    """Count a rejection; past the tolerance, penalize the prompt's edges."""
    count = ledger.counts[prompt.key] = ledger.counts.get(prompt.key, 0) + 1
    if count > ledger.theta:
        for a, b in prompt.edges():
            ledger.penalized_edges.add(_edge_key(a, b))
    return ledger


def next_hop(graph, current: str, network, ledger: RejectionLedger,
             visited: set, trace=None) -> str:
    """Best next node from `current`: argmax of rho + belief * rejection
    weight, the weight -1 on an edge the ledger penalizes and 1 otherwise.

    Ties break to the lexicographically smallest candidate. Raises if every
    other node has been visited.
    """
    best = None
    best_score = None
    rows = [] if trace is not None else None
    belief, penalized = network.belief, ledger.penalized_edges
    for cand in graph.categories:
        if cand == current or cand in visited:
            continue
        score = (graph.rho(current, cand) + belief[cand]
                 * (-1.0 if _edge_key(current, cand) in penalized else 1.0))
        if rows is not None:
            rows.append({"candidate": cand, "score": score})
        if best_score is None or score > best_score or \
                (score == best_score and cand < best):
            best, best_score = cand, score
    if best is None:
        raise ValueError(f"no unvisited candidates from {current!r}")
    if trace is not None:
        trace.append({"current": current, "candidates": rows, "chosen": best})
    return best


def explore(graph, source: str, target: str, network, ledger: RejectionLedger,
            max_len: int = None, trace=None) -> PromptPath:
    """Greedy walk from source until the target wins a hop or length runs out.

    max_len defaults to the number of categories; on truncation the target is
    force-appended so the path always ends at the target.
    """
    if source == target:
        raise ValueError("source and target must differ")
    if max_len is None:
        max_len = len(graph.categories)
    nodes = [source]
    visited = {source}
    current = source
    while current != target and len(nodes) < max_len:
        nxt = next_hop(graph, current, network, ledger, visited, trace=trace)
        nodes.append(nxt)
        visited.add(nxt)
        current = nxt
    if nodes[-1] != target:
        nodes.append(target)
    return PromptPath(nodes=tuple(nodes))


def select_endpoints(network, classes: dict) -> tuple:
    """Source = strongest extreme-high category, target = weakest extreme-low.

    Belief ties break lexicographically. Raises for users with no extreme
    categories on either side.
    """
    highs = sorted(c for c, label in classes.items() if label is Exposure.EXTREME_HIGH)
    lows = sorted(c for c, label in classes.items() if label is Exposure.EXTREME_LOW)
    if not highs or not lows:
        raise ValueError(f"user {network.user_id!r} is not bubble-affected")
    source = min(highs, key=lambda c: (-network.belief_degree(c), c))
    target = min(lows, key=lambda c: (network.belief_degree(c), c))
    return source, target


def reschedule(graph, network, ledger: RejectionLedger, classes: dict,
               max_len: int = None, trace=None):
    """Fresh path after exhaustion; None when no unexhausted path exists."""
    source, target = select_endpoints(network, classes)
    path = explore(graph, source, target, network, ledger, max_len=max_len,
                   trace=trace)
    if ledger.counts.get(path.key, 0) > ledger.theta:
        return None
    return path
