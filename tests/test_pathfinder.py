"""Greedy path exploration with rejection penalties."""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bheisr.detection import classify_users
from bheisr.pathfinder import (
    PromptPath,
    RejectionLedger,
    explore,
    next_hop,
    record_rejection,
    reschedule,
    select_endpoints,
)
from oracle import (
    TableGraph,
    TableNetwork,
    brute_force_next_hop,
    path_of,
    penalized_edges,
)


class TestPromptPath:
    def test_key_and_endpoints(self):
        path = path_of("a", "b", "c")
        assert path.key == "a->b->c"
        assert path.nodes[0] == "a"
        assert path.nodes[-1] == "c"
        assert path.edge_keys == (("a", "b"), ("b", "c"))

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            path_of("a")

    def test_repeated_node_rejected(self):
        with pytest.raises(ValueError):
            path_of("a", "b", "a")


def fresh_halves(nodes):
    """The binary split rule, computed from scratch."""
    n = len(nodes)
    if n == 2:
        return None
    if n == 3:
        cut = [nodes[0:2], nodes[1:3]]
    elif n % 2 == 0:
        cut = [nodes[:n // 2], nodes[n // 2:]]
    else:
        cut = [nodes[:(n - 1) // 2], nodes[(n + 1) // 2:]]
    return tuple(PromptPath(tuple(half)) for half in cut)


class TestCachedPromptFacts:
    @given(nodes=st.lists(st.sampled_from("abcdefghij"), min_size=2,
                          max_size=10, unique=True))
    def test_equal_a_fresh_computation(self, nodes):
        nodes = tuple(nodes)
        path = path_of(*nodes)
        assert path.key == "->".join(nodes)
        assert path.weights == {c: 1.0 / len(nodes) for c in nodes}
        assert path.edge_keys == tuple(tuple(sorted(edge))
                                       for edge in zip(nodes, nodes[1:]))
        assert path.halves == fresh_halves(nodes)
        # memoised: every split of the path yields the same objects
        assert path.halves is path.halves

    def test_explore_returns_the_ledgers_path_for_the_same_nodes(self):
        network = TableNetwork(dict.fromkeys(GRAPH.categories, 0.0))
        ledger = RejectionLedger()
        first = explore(GRAPH, "a", "d", network, ledger)
        assert explore(GRAPH, "a", "d", network, ledger) is first
        assert ledger.paths == {first.nodes: first}
        assert explore(GRAPH, "a", "d", network, RejectionLedger()) == first


class TestRejectionLedger:
    def test_edges_penalized_only_past_theta(self):
        ledger = RejectionLedger(theta=2)
        path = path_of("a", "b")
        record_rejection(ledger, path)
        record_rejection(ledger, path)
        # at theta, not past: b scores 0.9 + 1 and beats c's 0.2 + 1
        assert ledger.penalized_at == {}
        assert hop(ledger, "a") == "b"
        record_rejection(ledger, path)
        # b now scores 0.9 - 1, under c's 0.2 + 1, and the same from b (a
        # at 0.9 - 1 under c's 0.5 + 1): the edge is undirected
        assert ledger.penalized_at == {"a": {"b"}, "b": {"a"}}
        assert hop(ledger, "a") == "c"
        assert hop(ledger, "b") == "c"

    def test_every_edge_of_the_path_penalized(self):
        ledger = RejectionLedger(theta=0)
        record_rejection(ledger, path_of("a", "b", "c"))
        assert penalized_edges(ledger) == {("a", "b"), ("b", "c")}
        assert "c" not in ledger.penalized_at["a"]
        # a-c is not an edge of the path: c keeps 0.2 + 1 and beats d's
        # 0.1 + 1, where a penalty would leave it at 0.2 - 1
        assert hop(ledger, "a") == "c"

    @given(prompts=st.lists(st.permutations("abcde").flatmap(
        lambda nodes: st.integers(2, 5).map(lambda n: path_of(*nodes[:n]))),
        max_size=12), theta=st.integers(0, 2))
    def test_penalized_edges_are_those_of_prompts_past_theta(self, prompts,
                                                             theta):
        # the ledger keeps each edge under both endpoints; every edge of a
        # prompt rejected more than theta times is penalized, and no other
        ledger = RejectionLedger(theta=theta)
        for prompt in prompts:
            record_rejection(ledger, prompt)
        rejected = {}
        for prompt in prompts:
            rejected[prompt.nodes] = rejected.get(prompt.nodes, 0) + 1
        edges = {tuple(sorted(edge)) for nodes, count in rejected.items()
                 if count > theta for edge in zip(nodes, nodes[1:])}
        assert penalized_edges(ledger) == edges
        assert ledger.penalized_at == {
            node: {b if a == node else a for a, b in edges if node in (a, b)}
            for edge in edges for node in edge}

    def test_edges_added_once_when_rejections_first_pass_theta(self):
        filed = []

        class Recording(dict):
            def setdefault(self, node, ends):
                filed.append(node)
                return super().setdefault(node, ends)

        theta = 2
        ledger = RejectionLedger(theta=theta, penalized_at=Recording())
        path = path_of("a", "b", "c")
        for _ in range(theta + 1):
            record_rejection(ledger, path)
        crossed = {node: set(ends) for node, ends in ledger.penalized_at.items()}
        assert crossed == {"a": {"b"}, "b": {"a", "c"}, "c": {"b"}}
        for _ in range(3):
            record_rejection(ledger, path)
        assert ledger.penalized_at == crossed
        # each edge was filed under its two endpoints once, at the crossing
        assert sorted(filed) == ["a", "b", "b", "c"]

    def test_counts_keyed_by_full_path(self):
        ledger = RejectionLedger(theta=2)
        record_rejection(ledger, path_of("a", "b"))
        record_rejection(ledger, path_of("a", "c"))
        assert ledger.counts == {"a->b": 1, "a->c": 1}


GRAPH = TableGraph(
    ["a", "b", "c", "d"],
    {("a", "b"): 0.9, ("a", "c"): 0.2, ("a", "d"): 0.1,
     ("b", "c"): 0.5, ("b", "d"): 0.3, ("c", "d"): 0.8})


def hop(ledger, current):
    """next_hop from `current` over GRAPH with every belief 1, so each
    candidate scores rho plus its edge's rejection weight, +1 or -1."""
    network = TableNetwork(dict.fromkeys(GRAPH.categories, 1.0))
    return next_hop(GRAPH, current, network, ledger, {current})


class TestNextHop:
    def test_argmax_of_rho_plus_belief(self):
        network = TableNetwork({"a": 2.0, "b": 0.1, "c": 0.9, "d": 0.0})
        ledger = RejectionLedger()
        # from a: b -> 0.9 + 0.1 = 1.0; c -> 0.2 + 0.9 = 1.1; d -> 0.1
        assert next_hop(GRAPH, "a", network, ledger, {"a"}) == "c"

    def test_penalty_flips_belief_sign(self):
        network = TableNetwork({"a": 2.0, "b": 0.1, "c": 0.9, "d": 0.0})
        ledger = RejectionLedger(theta=0)
        record_rejection(ledger, path_of("a", "c"))
        # c now scores 0.2 - 0.9 = -0.7, b wins with 1.0
        assert next_hop(GRAPH, "a", network, ledger, {"a"}) == "b"

    def test_tie_breaks_lexicographically(self):
        graph = TableGraph(["a", "b", "c"], {("a", "b"): 0.5, ("a", "c"): 0.5})
        network = TableNetwork({"a": 0.0, "b": 0.3, "c": 0.3})
        assert next_hop(graph, "a", network, RejectionLedger(), {"a"}) == "b"

    def test_visited_nodes_skipped(self):
        network = TableNetwork({"a": 2.0, "b": 0.1, "c": 0.9, "d": 0.0})
        chosen = next_hop(GRAPH, "a", network, RejectionLedger(), {"a", "c"})
        assert chosen == "b"

    def test_no_candidates_raises(self):
        network = TableNetwork({"a": 0.0, "b": 0.0, "c": 0.0, "d": 0.0})
        with pytest.raises(ValueError, match="no unvisited"):
            next_hop(GRAPH, "a", network, RejectionLedger(), {"a", "b", "c", "d"})


class TestNextHopAgainstBruteForce:
    def test_random_graphs(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            n = int(rng.integers(2, 8))
            cats = [f"c{k}" for k in range(n)]
            table = {pair: float(np.round(rng.random(), 2))
                     for pair in itertools.combinations(cats, 2)}
            graph = TableGraph(cats, table)
            network = TableNetwork({c: float(np.round(rng.random() * 2, 2))
                                   for c in cats})
            ledger = RejectionLedger(theta=0)
            for pair in itertools.combinations(cats, 2):
                if rng.random() < 0.2:
                    record_rejection(ledger, path_of(*pair))
            visited = {c for c in cats if rng.random() < 0.3}
            current = cats[int(rng.integers(n))]
            visited.add(current)
            expect = brute_force_next_hop(graph, current, network, ledger, visited)
            if expect is None:
                with pytest.raises(ValueError):
                    next_hop(graph, current, network, ledger, visited)
            else:
                assert next_hop(graph, current, network, ledger, visited) == expect


class TestExplore:
    def test_stops_when_target_wins_a_hop(self):
        network = TableNetwork({"a": 2.0, "b": 0.1, "c": 0.9, "d": 0.4})
        path = explore(GRAPH, "a", "d", network, RejectionLedger())
        # a -> c (1.1 beats b 1.0); from c: d -> 0.8+0.4 beats b 0.5+0.1
        assert path.nodes == ("a", "c", "d")

    def test_target_forced_when_length_runs_out(self):
        network = TableNetwork({"a": 2.0, "b": 5.0, "c": 0.9, "d": 0.0})
        path = explore(GRAPH, "a", "d", network, RejectionLedger(), max_len=2)
        assert path.nodes == ("a", "b", "d")   # b won the only hop, d appended
        assert path.nodes[-1] == "d"

    def test_max_len_two_gives_direct_prompt(self):
        network = TableNetwork({"a": 2.0, "b": 5.0, "c": 0.9, "d": 0.0})
        for target in ("b", "c", "d"):
            path = explore(GRAPH, "a", target, network, RejectionLedger(),
                           max_len=1)
            assert path.nodes == ("a", target)

    def test_default_cap_is_category_count(self):
        # beliefs steer away from the target, so the walk visits everything
        network = TableNetwork({"a": 0.0, "b": 3.0, "c": 2.0, "d": 0.0})
        path = explore(GRAPH, "a", "d", network, RejectionLedger())
        assert len(path.nodes) <= len(GRAPH.categories)
        assert path.nodes[-1] == "d"
        assert len(set(path.nodes)) == len(path.nodes)

    def test_same_endpoints_rejected(self):
        with pytest.raises(ValueError):
            explore(GRAPH, "a", "a", TableNetwork({}), RejectionLedger())


class TestSelectEndpoints:
    # a and c extreme-high, d and e extreme-low, b normal
    EXTREMES = (("a", "c"), ("d", "e"))

    def test_strongest_high_and_weakest_low(self):
        network = TableNetwork({"a": 2.0, "b": 1.0, "c": 3.0, "d": 0.2, "e": 0.1})
        assert select_endpoints(network, self.EXTREMES) == ("c", "e")

    def test_belief_ties_break_lexicographically(self):
        network = TableNetwork({"a": 3.0, "b": 1.0, "c": 3.0, "d": 0.1, "e": 0.1})
        assert select_endpoints(network, self.EXTREMES) == ("a", "d")

    def test_kept_extremes_select_the_same_endpoints(self):
        network = TableNetwork({"a": 2.0, "b": 1.0, "c": 3.0, "d": 0.2, "e": 0.1})
        # the classifier records x's extremes in category order: nine users
        # at 1.0 everywhere put x's 5.0 above, and its 0.0 below, two sigma
        beliefs = {f"u{i}": dict.fromkeys("abcde", 1.0) for i in range(9)}
        beliefs["x"] = {"a": 5.0, "b": 1.0, "c": 5.0, "d": 0.0, "e": 0.0}
        extremes = classify_users(beliefs, ("e", "d", "c", "b", "a")).extremes["x"]
        assert extremes == (("a", "c"), ("d", "e"))
        assert select_endpoints(network, extremes) == ("c", "e")

    def test_not_bubble_affected_raises(self):
        network = TableNetwork({"a": 1.0}, user_id="plain")
        with pytest.raises(ValueError, match="not bubble-affected"):
            select_endpoints(network, (("a",), ()))


class TestReschedule:
    def test_returns_fresh_path(self):
        network = TableNetwork({"a": 2.0, "b": 0.1, "c": 0.9, "d": 0.4})
        path = reschedule(GRAPH, network, RejectionLedger(), (("a",), ("d",)))
        assert path.nodes == ("a", "c", "d")

    def test_none_when_replacement_already_exhausted(self):
        network = TableNetwork({"a": 2.0, "b": 0.1, "c": 0.9, "d": 0.4})
        extremes = (("a",), ("d",))
        ledger = RejectionLedger(theta=2)
        for _ in range(3):
            record_rejection(ledger, path_of("a", "c", "d"))
        # rejected edges flip beliefs: from a, b wins (0.9+0.1 vs 0.2-0.9);
        # the rebuilt path differs, so a prompt is still available
        path = reschedule(GRAPH, network, ledger, extremes)
        assert path is not None
        assert path.key != "a->c->d"
        for _ in range(3):
            record_rejection(ledger, path)
        again = reschedule(GRAPH, network, ledger, extremes)
        if again is not None:
            assert ledger.counts.get(again.key, 0) <= ledger.theta

    def test_max_len_respected(self):
        network = TableNetwork({"a": 2.0, "b": 5.0, "c": 0.9, "d": 0.4})
        path = reschedule(GRAPH, network, RejectionLedger(), (("a",), ("d",)),
                          max_len=2)
        assert len(path.nodes) <= 3   # two walked nodes plus forced target
        assert path.nodes[-1] == "d"
