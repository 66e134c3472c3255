"""Binary-split nudging sessions and item generation."""

import http.server
import json
import threading
from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bheisr.belief import BeliefNetwork
from bheisr.corpus import ORIGIN_GENERATED, Item, SynthSpec, generated_subcategory, \
    synth_corpus
from bheisr.nudge import (
    QUEUE_DRAIN,
    QUEUE_REPLACE,
    ExternalGenerator,
    NudgeSession,
    TemplateGenerator,
    _do_reschedule,
    _generate_for,
    apply_feedback,
    initial_queue,
    new_session,
    pending_prompts,
)
from bheisr.pathfinder import PromptPath, RejectionLedger, record_rejection
from bheisr.simulate import _collect_exemplars
from oracle import (
    TableGraph,
    featurize,
    item_vocabulary,
    path_of,
    penalized_edges,
    spy_featurize_texts,
)


def split_keys(prompt):
    halves = prompt.halves
    return None if halves is None else tuple(h.key for h in halves)


class TestBinarySplit:
    def test_frozen_table_for_lengths_two_to_nine(self):
        nodes = [f"n{i}" for i in range(9)]
        expect = {
            2: None,
            3: ("n0->n1", "n1->n2"),
            4: ("n0->n1", "n2->n3"),
            5: ("n0->n1", "n3->n4"),
            6: ("n0->n1->n2", "n3->n4->n5"),
            7: ("n0->n1->n2", "n4->n5->n6"),
            8: ("n0->n1->n2->n3", "n4->n5->n6->n7"),
            9: ("n0->n1->n2->n3", "n5->n6->n7->n8"),
        }
        for length, keys in expect.items():
            assert split_keys(path_of(*nodes[:length])) == keys

    def test_halves_are_valid_paths(self):
        for length in range(3, 12):
            left, right = path_of(*[f"n{i}" for i in range(length)]).halves
            assert len(left.nodes) >= 2
            assert len(right.nodes) >= 2

    @settings(max_examples=100, deadline=None)
    @given(nodes=st.lists(st.text(min_size=1, max_size=3), min_size=2, max_size=17,
                          unique=True))
    def test_splitting_to_the_leaves_covers_the_path(self, nodes):
        # split every prompt until each is terminal; the depth bound shows
        # the recursion ends
        path = path_of(*nodes)
        leaves, pending = [], [(path, 0)]
        while pending:
            prompt, depth = pending.pop()
            assert depth <= len(nodes)
            halves = prompt.halves
            if halves is None:
                leaves.append(prompt)
            else:
                pending.extend((half, depth + 1) for half in reversed(halves))
        starts = [nodes.index(leaf.nodes[0]) for leaf in leaves]
        for start, leaf in zip(starts, leaves):
            assert leaf.nodes == tuple(nodes[start:start + 2])
        assert all(a < b for a, b in zip(starts, starts[1:]))
        assert leaves[0].nodes[0] == path.nodes[0]
        assert leaves[-1].nodes[-1] == path.nodes[-1]
        assert len(leaves) & (len(leaves) - 1) == 0

    def test_initial_queue(self):
        assert [p.key for p in initial_queue(path_of("a", "b"))] == ["a->b"]
        assert [p.key for p in initial_queue(path_of("a", "b", "c", "d"))] == \
            ["a->b", "c->d"]


def exemplar_items():
    return {
        "food": [
            Item("f1", "food", "food/s", "soup recipe classics",
                 "warm soup recipe", {"food": 1.0}),
            Item("f2", "food", "food/s", "bread basics", "oven bread recipe",
                 {"food": 1.0}),
        ],
        "tech": [
            Item("t1", "tech", "tech/s", "chip design", "silicon chip design",
                 {"tech": 1.0}),
        ],
        "empty": [],
    }


class TestTemplateGenerator:
    def test_title_lists_prompt_categories(self):
        gen = TemplateGenerator(exemplar_items())
        title, abstract = gen.generate(("food", "tech"))
        assert title == "food meets tech"
        assert "food" in abstract and "tech" in abstract

    def test_abstract_contains_exemplar_terms(self):
        gen = TemplateGenerator(exemplar_items())
        top = gen.top_terms("food", limit=2)
        _, abstract = gen.generate(("food",), seed=0)
        for term in top:
            assert term in abstract

    def test_deterministic_per_seed_and_varies_with_seed(self):
        gen = TemplateGenerator(exemplar_items())
        a1 = gen.generate(("food", "tech"), seed=1)
        a2 = gen.generate(("food", "tech"), seed=1)
        assert a1 == a2
        outputs = {gen.generate(("food",), seed=s) for s in range(4)}
        assert len(outputs) > 1

    def test_category_without_exemplars_falls_back_to_its_name(self):
        gen = TemplateGenerator(exemplar_items())
        _, abstract = gen.generate(("empty",))
        assert "empty angle: empty general." in abstract

    def test_top_terms_ranked_by_summed_weight(self):
        gen = TemplateGenerator(exemplar_items())
        terms = gen.top_terms("food")
        assert terms[0] == "recipe"   # appears in all three food texts


def oracle_top_terms(exemplars: dict) -> dict:
    """Each category's terms ranked by the sum of its exemplars' featurize
    weights, added item by item, ties by term."""
    vocab = item_vocabulary([it for its in exemplars.values() for it in its])
    terms, ranked = list(vocab.term_ids), {}
    for cat, items in exemplars.items():
        acc = {}
        for item in items:
            for tid, w in featurize(item, vocab).entries.items():
                acc[tid] = acc.get(tid, 0.0) + w
        ranked[cat] = [terms[tid] for tid in
                       sorted(acc, key=lambda tid: (-acc[tid], terms[tid]))]
    return ranked


SYNTH_EXEMPLARS = _collect_exemplars(
    synth_corpus(SynthSpec(n_users=20, bias_profile=10)))


class TestTopTerms:
    @pytest.mark.parametrize("exemplars", [
        SYNTH_EXEMPLARS,
        {**exemplar_items(), "empty": [],
         "solo": [Item("s1", "solo", "solo/s", "opera", "", {"solo": 1.0})]}])
    def test_one_featurization_ranks_as_the_per_item_oracle(self, exemplars,
                                                            monkeypatch):
        calls = spy_featurize_texts(monkeypatch)
        gen = TemplateGenerator(exemplars)
        expected = oracle_top_terms(exemplars)
        for cat in [*exemplars, "unknown"]:
            assert gen.top_terms(cat, limit=10**6) == expected.get(cat, []), cat
        assert len(calls) == 1
        assert len(calls[0]) == sum(map(len, exemplars.values()))


# categories with 0, 1, 3 and more top terms
GENERATOR_EXEMPLARS = {
    **exemplar_items(),
    "solo": [Item("s1", "solo", "solo/s", "opera", "", {"solo": 1.0})],
}


def composed_text(gen, prompt, seed):
    """The template text, composed here term by term: each category's two
    terms start at seed % max(1, len(terms) - 1)."""
    parts = []
    for cat in prompt:
        terms = gen.top_terms(cat)
        if len(terms) < 2:
            terms = (terms + [cat, "general"])[:2]
        else:
            start = seed % max(1, len(terms) - 1)
            terms = [terms[start], terms[(start + 1) % len(terms)]]
        parts.append(f"{cat} angle: {terms[0]} {terms[1]}.")
    return (" meets ".join(prompt),
            "A piece connecting " + ", ".join(prompt) + ". " + " ".join(parts))


class TestTemplateMemo:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(
        st.lists(st.sampled_from(sorted(GENERATOR_EXEMPLARS)), min_size=1,
                 max_size=4, unique=True),
        st.integers(0, 50)), min_size=1, max_size=12))
    def test_cached_text_equals_uncached_generation(self, calls):
        shared = TemplateGenerator(GENERATOR_EXEMPLARS)
        for prompt, seed in calls:
            fresh = TemplateGenerator(GENERATOR_EXEMPLARS)
            text = shared.generate(tuple(prompt), seed)
            assert text == fresh.generate(tuple(prompt), seed)
            assert text == composed_text(fresh, prompt, seed)


class ReplyHandler(http.server.BaseHTTPRequestHandler):
    """Reads a POST and writes its server's `reply` bytes as they are, so
    a reply may be any status, any body, or not HTTP at all."""

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        self.server.requests.append((self.headers["Content-Type"],
                                     json.loads(body)))
        self.wfile.write(self.server.reply)

    def log_message(self, *args):
        pass


@contextmanager
def loopback_endpoint(reply: bytes):
    """(url, requests) of a loopback server on a free port that answers
    every POST with `reply`; requests collects (content type, JSON body)."""
    server = http.server.HTTPServer(("127.0.0.1", 0), ReplyHandler)
    server.reply, server.requests = reply, []
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}/gen", server.requests
    finally:
        server.shutdown()
        thread.join(timeout=10)
        server.server_close()
    assert not thread.is_alive()


def http_reply(status: str, body: bytes) -> bytes:
    return f"HTTP/1.0 {status}\r\nContent-Type: application/json\r\n" \
        f"Content-Length: {len(body)}\r\n\r\n".encode() + body


GOOD_BODY = json.dumps({"title": "remote title",
                        "abstract": "remote abstract"}).encode()


class TestExternalGenerator:
    def fallback(self):
        return TemplateGenerator(exemplar_items())

    @pytest.fixture(autouse=True)
    def no_proxy(self, monkeypatch):
        # a loopback request must not go through a proxy from the environment
        monkeypatch.setenv("no_proxy", "*")

    def test_default_post_reads_a_json_reply(self):
        with loopback_endpoint(http_reply("200 OK", GOOD_BODY)) as (url, seen):
            gen = ExternalGenerator(url, self.fallback(), retries=1)
            assert gen.generate(("food", "tech")) == \
                ("remote title", "remote abstract")
        assert gen.fallback_count == 0
        ((content_type, payload),) = seen
        assert content_type == "application/json"
        assert payload["prompt_categories"] == ["food", "tech"]
        assert payload["max_tokens"] == 120

    @pytest.mark.parametrize("reply", [
        http_reply("500 Internal Server Error", GOOD_BODY),
        http_reply("200 OK", b"<html>not json</html>"),
        b"not an HTTP reply\r\n\r\n",
    ], ids=["status-500", "not-json", "not-http"])
    def test_default_post_falls_back_on_a_bad_reply(self, reply):
        with loopback_endpoint(reply) as (url, seen):
            gen = ExternalGenerator(url, self.fallback(), retries=1)
            assert gen.generate(("food",), seed=0) == \
                self.fallback().generate(("food",), 0)
        assert len(seen) == 2          # retries + 1
        assert gen.fallback_count == 1

    def test_uses_endpoint_response(self):
        calls = []

        def post(url, json, timeout):
            calls.append((url, json, timeout))
            return {"title": "remote title", "abstract": "remote abstract"}

        gen = ExternalGenerator("http://gen", self.fallback(), timeout_ms=500,
                                post=post)
        assert gen.generate(("food", "tech")) == ("remote title", "remote abstract")
        url, payload, timeout = calls[0]
        assert payload["prompt_categories"] == ["food", "tech"]
        assert payload["max_tokens"] == 120
        assert timeout == 0.5
        assert gen.fallback_count == 0

    def test_retries_then_falls_back_to_template(self):
        attempts = []

        def post(url, json, timeout):
            attempts.append(1)
            raise ConnectionError("down")

        gen = ExternalGenerator("http://gen", self.fallback(), retries=2, post=post)
        title, abstract = gen.generate(("food",), seed=0)
        assert len(attempts) == 3
        assert gen.fallback_count == 1
        assert title == "food"   # template title for a single category

    def test_gives_up_for_the_rest_of_the_run_after_a_fallback(self, caplog):
        # an unreachable endpoint used to be retried afresh for every item
        attempts = []

        def post(url, json, timeout):
            attempts.append(1)
            raise ConnectionError("down")

        gen = ExternalGenerator("http://gen", self.fallback(), retries=2, post=post)
        prompts = [(("food",), 0), (("tech",), 1), (("food", "tech"), 2)]
        with caplog.at_level("WARNING", logger="bheisr.nudge"):
            texts = [gen.generate(cats, seed) for cats, seed in prompts]
        assert texts == [self.fallback().generate(*p) for p in prompts]
        assert len(attempts) == 3          # retries + 1, for the first text only
        assert gen.fallback_count == 3
        assert len(caplog.records) == 1

    def test_recovers_after_transient_failure(self):
        state = {"n": 0}

        def post(url, json, timeout):
            state["n"] += 1
            if state["n"] == 1:
                raise TimeoutError("slow")
            return {"title": "ok", "abstract": "fine"}

        gen = ExternalGenerator("http://gen", self.fallback(), retries=1, post=post)
        assert gen.generate(("food",)) == ("ok", "fine")
        assert gen.fallback_count == 0

    @pytest.mark.parametrize("doc", [
        {"title": None, "abstract": "fine"},
        {"title": "", "abstract": "fine"},
        {"title": "ok", "abstract": 3},
        {"title": "ok"},
        ["not", "a", "mapping"],
    ])
    def test_malformed_response_counts_and_falls_back(self, doc):
        attempts = []

        def post(url, json, timeout):
            attempts.append(1)
            return doc

        gen = ExternalGenerator("http://gen", self.fallback(), retries=1, post=post)
        assert gen.generate(("food",), seed=0) == \
            self.fallback().generate(("food",), 0)
        assert len(attempts) == 2
        assert gen.fallback_count == 1

    def test_programming_error_propagates(self):
        def post(url, json, timeout):
            raise AttributeError("bug in the caller")

        gen = ExternalGenerator("http://gen", self.fallback(), retries=2, post=post)
        with pytest.raises(AttributeError):
            gen.generate(("food",))
        assert gen.fallback_count == 0


class TestGenerateItem:
    def test_uniform_weights_and_synthetic_subcategory(self):
        path = path_of("food", "tech")
        session = NudgeSession(user_id="u", path=path, queue=[path],
                               ledger=RejectionLedger(), extremes=((), ()))
        item = _generate_for(session, path, TemplateGenerator(exemplar_items()))
        assert item.origin == ORIGIN_GENERATED
        assert item.category == "food"
        assert item.category_weights == {"food": 0.5, "tech": 0.5}
        assert item.prompt.key == "food->tech"
        # an accept credits each spanned category's synthetic subcategory
        network = BeliefNetwork(user_id="u", categories=("food", "tech"),
                                subcat_to_cat={"food/generated": "food",
                                               "tech/generated": "tech"})
        network.recompute()
        network.update_on_feedback(item)
        assert network.click_counts == {"food/generated": 0.5,
                                        "tech/generated": 0.5}

    def test_text_is_generated_on_first_read_only(self):
        calls = []

        class CountingGenerator(TemplateGenerator):
            def generate(self, prompt_categories, seed=0):
                calls.append((tuple(prompt_categories), seed))
                return super().generate(prompt_categories, seed)

        path = path_of("food", "tech")
        session = NudgeSession(user_id="u", path=path, queue=[path],
                               ledger=RejectionLedger(), extremes=((), ()))
        gen = CountingGenerator(exemplar_items())
        item = _generate_for(session, path, gen)
        assert calls == []
        text = item.text()
        assert item.text() == text
        assert calls == [(("food", "tech"), 1)]
        assert (item.title, item.abstract) == \
            TemplateGenerator(exemplar_items()).generate(("food", "tech"), 1)
        assert text == f"{item.title} {item.abstract}"


def session_fixture(theta=2, queue_discipline=QUEUE_DRAIN, max_path_len=None):
    cats = ("a", "b", "c", "d")
    graph = TableGraph(cats, default=0.5)
    labels = {f"{c}/s": c for c in cats}
    labels.update((generated_subcategory(c), c) for c in cats)
    network = BeliefNetwork(user_id="u", categories=cats, subcat_to_cat=labels)
    network.add_click_mass("a/s", 6.0)
    network.add_click_mass("b/s", 2.0)
    network.add_click_mass("c/s", 1.0)
    network.recompute()
    # a extreme-high, d extreme-low, b and c normal
    session = new_session(graph, network, (("a",), ("d",)), theta=theta,
                          queue_discipline=queue_discipline,
                          max_path_len=max_path_len)
    return session, graph, network


class TestNewSession:
    def test_path_runs_from_high_to_low(self):
        session, _, _ = session_fixture()
        assert session.path.nodes[0] == "a"
        assert session.path.nodes[-1] == "d"
        assert session.queue

    def test_queue_seeded_with_split(self):
        session, _, _ = session_fixture()
        assert [p.key for p in session.queue] == \
            [h.key for h in (session.path.halves or (session.path,))]

    def test_max_path_len_caps_exploration(self):
        session, _, _ = session_fixture(max_path_len=2)
        assert len(session.path.nodes) <= 3
        assert session.path.nodes[-1] == "d"

    def test_takes_its_user_from_the_network(self):
        _, graph, network = session_fixture()
        network.user_id = "v"
        session = new_session(graph, network, (("a",), ("d",)))
        assert session.user_id == "v"
        item = _generate_for(session, session.queue[0], TemplateGenerator({}))
        assert item.id == "gi:v:1"


class TestRunStepAndPending:
    def test_generates_for_head_prompt(self):
        session, _, _ = session_fixture()
        gen = TemplateGenerator({})
        prompt = pending_prompts(session, 1)[0]
        item = _generate_for(session, prompt, gen)
        assert prompt.key == session.queue[0].key
        assert item.prompt.key == prompt.key
        assert item.id == "gi:u:1"
        assert sum(item.category_weights.values()) == pytest.approx(1.0)

    def test_counter_gives_fresh_ids(self):
        session, _, _ = session_fixture()
        gen = TemplateGenerator({})
        ids = {_generate_for(session, pending_prompts(session, 1)[0], gen).id
               for _ in range(3)}
        assert ids == {"gi:u:1", "gi:u:2", "gi:u:3"}

    def test_pending_cycles_over_short_queue(self):
        session, _, _ = session_fixture()
        keys = [p.key for p in session.queue]
        got = [p.key for p in pending_prompts(session, 5)]
        assert got == [keys[i % len(keys)] for i in range(5)]

    def test_inactive_session_yields_nothing(self):
        session, _, _ = session_fixture()
        session.queue = []
        assert pending_prompts(session, 3) == []


def make_feedback(session, graph, network, accepted, prompt=None):
    prompt = prompt or session.queue[0]
    item = _generate_for(session, prompt, TemplateGenerator({}))
    return apply_feedback(session, item, accepted, graph, network)


class TestApplyFeedback:
    def test_accept_pops_prompt_and_leaves_graph_alone(self):
        session, graph, network = session_fixture()
        before = len(session.queue)
        mass = dict(network.click_counts)
        status = make_feedback(session, graph, network, accepted=True)
        assert status in ("accepted", "accepted+rescheduled", "accepted+terminal")
        assert len(session.queue) in (before - 1, 2 * before)   # popped or rescheduled
        # the loop credits accepted items; the session only does bookkeeping
        assert not graph.accepted
        assert network.click_counts == mass
        assert not network.accepted

    def test_reject_splits_prompt_in_place(self):
        session, graph, network = session_fixture()
        long_prompt = path_of("a", "b", "c", "d")
        session.queue = [long_prompt]
        status = make_feedback(session, graph, network, accepted=False,
                               prompt=long_prompt)
        assert status == "split"
        assert [p.key for p in session.queue] == ["a->b", "c->d"]
        assert session.ledger.counts["a->b->c->d"] == 1
        assert not graph.accepted

    def test_terminal_reject_drains_then_reschedules(self):
        session, graph, network = session_fixture()
        session.queue = [path_of("a", "b"), path_of("c", "d")]
        status = make_feedback(session, graph, network, accepted=False)
        assert status == "rejected"
        assert [p.key for p in session.queue] == ["c->d"]
        status = make_feedback(session, graph, network, accepted=False)
        assert status.startswith("rejected+")
        assert status.endswith(("rescheduled", "terminal"))

    def test_replace_discipline_reschedules_on_any_terminal_reject(self):
        session, graph, network = session_fixture(queue_discipline=QUEUE_REPLACE)
        session.queue = [path_of("a", "b"), path_of("c", "d")]
        status = make_feedback(session, graph, network, accepted=False)
        assert status.startswith("rejected+")

    def test_stale_feedback_still_counts_against_ledger(self):
        session, graph, network = session_fixture()
        gone = path_of("a", "c")
        from bheisr.nudge import _generate_for

        item = _generate_for(session, gone, TemplateGenerator({}))
        assert gone.key not in [p.key for p in session.queue]
        status = apply_feedback(session, item, False, graph, network)
        assert status == "rejected/stale"
        assert session.ledger.counts["a->c"] == 1

    def test_exhaustion_deactivates_session(self):
        session, graph, network = session_fixture(theta=0)
        events = []
        for _ in range(40):
            if not session.queue:
                break
            events.append(make_feedback(session, graph, network, accepted=False))
        assert session.queue == []
        assert events[-1] == "rejected+terminal"

    def test_history_records_every_event(self):
        session, graph, network = session_fixture()
        make_feedback(session, graph, network, accepted=False)
        make_feedback(session, graph, network, accepted=True)
        assert len(session.history) == 2
        assert {h["accepted"] for h in session.history} == {False, True}
        assert all(h["prompt"] and h["item"] for h in session.history)
        assert not graph.accepted


class TestAcceptanceRescheduleLoop:
    def test_accepting_everything_reschedules_until_terminal(self):
        session, graph, network = session_fixture()
        events = []
        for _ in range(60):
            if not session.queue:
                break
            events.append(make_feedback(session, graph, network, accepted=True))
        # acceptance never penalizes edges, so the session only goes terminal
        # once rescheduling reuses an accepted path; it must not loop forever
        assert len(events) <= 60
        assert all(e.startswith("accepted") for e in events)
        assert not graph.accepted


class TestActiveSessionHasQueue:
    """new_session, apply_feedback and rescheduling each leave a session a
    non-empty queue until it goes terminal, so a session is active exactly
    while its queue holds a prompt and feed assembly never reschedules."""

    @settings(max_examples=200, deadline=None)
    @given(discipline=st.sampled_from((QUEUE_DRAIN, QUEUE_REPLACE)),
           theta=st.sampled_from((0, 1, 2, 4)),
           max_path_len=st.sampled_from((None, 1, 2)),
           feeds=st.lists(st.lists(st.booleans(), min_size=1, max_size=6),
                          max_size=30))
    # the first reject replaces the queue, so the second item is stale
    @example(discipline=QUEUE_REPLACE, theta=0, max_path_len=None,
             feeds=[[False, False]])
    def test_random_decision_feeds(self, discipline, theta, max_path_len,
                                   feeds):
        session, graph, network = session_fixture(
            theta=theta, queue_discipline=discipline,
            max_path_len=max_path_len)
        generator = TemplateGenerator({})
        assert session.queue
        terminal = False
        for decisions in feeds:
            # one feed's generated slots cycle over the queue, so a later
            # item may carry a prompt an earlier decision already retired
            items = [_generate_for(session, prompt, generator)
                     for prompt in pending_prompts(session, len(decisions))]
            if not items:
                assert terminal
                break
            for item, accepted in zip(items, decisions):
                if accepted:
                    network.update_on_feedback(item)
                event = apply_feedback(session, item, accepted, graph, network)
                # the queue empties at a terminal reschedule, and only there
                terminal = terminal or event.endswith("+terminal")
                assert bool(session.queue) != terminal


def reparsed_apply_feedback(session, item, accepted, graph, network):
    """apply_feedback with the queue searched by key and a stale rejection
    counted against the prompt parsed back from the item's key."""
    index = next((i for i, p in enumerate(session.queue)
                  if p.key == item.prompt.key), None)
    if accepted:
        status = "accepted"
        if index is not None:
            session.queue.pop(index)
            if not session.queue:
                status += "+" + _do_reschedule(session, graph, network)
    else:
        prompt = PromptPath(tuple(item.prompt.key.split("->"))) \
            if index is None else session.queue[index]
        record_rejection(session.ledger, prompt)
        status = "rejected"
        if index is not None:
            halves = prompt.halves
            if halves is not None:
                session.queue[index:index + 1] = list(halves)
                status = "split"
            else:
                session.queue.pop(index)
                if session.queue_discipline == QUEUE_REPLACE or not session.queue:
                    status += "+" + _do_reschedule(session, graph, network)
    if index is None:
        status += "/stale"
    session.history.append({"step": session.gen_counter,
                            "prompt": item.prompt.key, "item": item.id,
                            "accepted": accepted, "event": status})
    return status


class TestStaleFeedbackUsesTheItemsPrompt:
    @settings(max_examples=200, deadline=None)
    @given(discipline=st.sampled_from((QUEUE_DRAIN, QUEUE_REPLACE)),
           theta=st.sampled_from((0, 1, 2)),
           feeds=st.lists(st.lists(st.booleans(), min_size=1, max_size=6),
                          max_size=30))
    # the first reject replaces the queue, so the second item is stale
    @example(discipline=QUEUE_REPLACE, theta=0, feeds=[[False, False]])
    def test_ledger_and_events_equal_the_reparse_path(self, discipline, theta,
                                                      feeds):
        """Rejecting a stale item through its own prompt counts and
        penalizes what parsing its key back into a path did."""
        sessions = [session_fixture(theta=theta, queue_discipline=discipline)
                    for _ in range(2)]
        generator = TemplateGenerator({})
        for decisions in feeds:
            feeds_of = [[_generate_for(session, prompt, generator)
                         for prompt in pending_prompts(session, len(decisions))]
                        for session, _, _ in sessions]
            assert [[(i.id, i.prompt.key) for i in items] for items in feeds_of] \
                == [[(i.id, i.prompt.key) for i in feeds_of[0]]] * 2
            for n, accepted in enumerate(decisions[:len(feeds_of[0])]):
                events = [apply(session, items[n], accepted, graph, network)
                          for apply, (session, graph, network), items in zip(
                              (apply_feedback, reparsed_apply_feedback),
                              sessions, feeds_of)]
                assert events[0] == events[1]
            (real, _, _), (oracle, _, _) = sessions
            assert real.ledger.counts == oracle.ledger.counts
            assert penalized_edges(real.ledger) == penalized_edges(oracle.ledger)
            # equal queues: the two sessions go terminal together
            assert [p.key for p in real.queue] == [p.key for p in oracle.queue]
            assert real.history == oracle.history
