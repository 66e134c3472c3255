"""Binary-split nudging sessions.

A session walks a prompt path by splitting it in half on rejection and popping
prompts on acceptance. Each pending prompt is materialized as a generated item
spanning the prompt's categories, whose text is generated when first read.
Generation is pluggable, with a deterministic template generator as the
default and an HTTP generator that falls back to the template on failure.
"""

import logging
from dataclasses import dataclass, field
from functools import cached_property
from json import dumps, loads

from . import pathfinder
from .corpus import GENERATED_ID_PREFIX, ORIGIN_GENERATED, Item
from .features import featurize_texts
from .pathfinder import PromptPath, RejectionLedger

log = logging.getLogger(__name__)

QUEUE_DRAIN = "drain"      # reschedule only once the queue empties
QUEUE_REPLACE = "replace"  # literal: any terminal reject replaces the queue
QUEUE_DISCIPLINES = (QUEUE_DRAIN, QUEUE_REPLACE)


def initial_queue(path: PromptPath) -> list:
    halves = path.halves
    return [path] if halves is None else list(halves)


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

class TemplateGenerator:
    """Deterministic text for a prompt from its categories' exemplar items.

    The title and abstract always contain every prompt category's name plus at
    least two top TF-IDF terms from that category's exemplars (falling back to
    the category name when exemplars are missing or empty).
    """

    def __init__(self, exemplars: dict):
        self.exemplars = exemplars
        self._top_terms = None      # category -> its terms, best first

    def top_terms(self, category: str, limit: int = 4) -> list:
        """The category's exemplar terms by descending summed weight, ties
        by term. The first call featurizes every category's exemplars in
        one featurize_texts call, over their own vocabulary."""
        if self._top_terms is None:
            vocab, entries = featurize_texts(
                it.text() for its in self.exemplars.values() for it in its)
            # a category's items are consecutive rows, so their entries are
            # one run of the flat arrays
            bounds = [*entries.starts.tolist(), len(entries.terms)]
            terms, n, self._top_terms = list(vocab.term_ids), 0, {}
            for cat, items in self.exemplars.items():
                span = slice(bounds[n], bounds[n + len(items)])
                n += len(items)
                acc: dict = {}
                for tid, w in zip(entries.terms[span].tolist(),
                                  entries.weights[span].tolist()):
                    acc[tid] = acc.get(tid, 0.0) + w
                ranked = sorted(acc, key=lambda tid: (-acc[tid], terms[tid]))
                self._top_terms[cat] = [terms[tid] for tid in ranked]
        return self._top_terms.get(category, [])[:limit]

    def generate(self, prompt_categories, seed: int = 0) -> tuple:
        """(title, abstract); the seed picks each category's terms."""
        title = " meets ".join(prompt_categories)
        abstract = "A piece connecting " + ", ".join(prompt_categories) + ". " \
                   + " ".join([self._part(cat, seed) for cat in prompt_categories])
        return title, abstract

    def _part(self, category: str, seed: int) -> str:
        """The category's sentence: two of its terms from the offset
        seed % max(1, len(terms) - 1), padded with the category's name and
        "general" when it has fewer than two."""
        terms = self.top_terms(category)
        start = seed % max(1, len(terms) - 1)
        first, second = (terms[start:start + 2] + [category, "general"])[:2]
        return f"{category} angle: {first} {second}."


def _post_json(url: str, json, timeout: float):
    """POST `json` and parse the reply. Every HTTP failure is an OSError."""
    import http.client       # imported here: only external runs pay for them
    import urllib.error
    import urllib.request
    request = urllib.request.Request(url, data=dumps(json).encode(), headers={
        "Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=timeout) as resp:
            return loads(resp.read())
    except urllib.error.HTTPError as exc:
        exc.close()          # an error status holds its reply open
        raise
    except http.client.HTTPException as exc:
        raise OSError(f"bad HTTP reply: {exc!r}") from exc


class ExternalGenerator:
    """HTTP generation endpoint with retries and template fallback.

    POSTs {"prompt_categories": [...], "exemplar_snippets": [...],
    "max_tokens": 120} and expects non-empty {"title": ..., "abstract": ...}
    strings back. An OSError or a malformed reply is a failed attempt; once
    the retries are spent the template fills in for this and, unposted, for
    every later call of the run, and `fallback_count` counts each. Any other
    exception is a bug and propagates. A run calls it once per generated
    item whose text is read, in barrier order.
    """

    def __init__(self, url: str, fallback: TemplateGenerator, timeout_ms: int = 2000,
                 retries: int = 2, post=_post_json):
        self.url = url
        self.fallback = fallback
        self.timeout_ms = timeout_ms
        self.retries = retries
        self.fallback_count = 0
        self._post = post

    def generate(self, prompt_categories, seed: int = 0) -> tuple:
        if not self.fallback_count:     # the endpoint has not failed this run
            payload = {
                "prompt_categories": list(prompt_categories),
                "exemplar_snippets": [
                    " ".join(self.fallback.top_terms(c)) or c for c in prompt_categories
                ],
                "max_tokens": 120,
            }
            last_error = None
            for _ in range(self.retries + 1):
                try:
                    doc = self._post(self.url, json=payload,
                                     timeout=self.timeout_ms / 1000.0)
                    title, abstract = doc["title"], doc["abstract"]
                    for value in (title, abstract):
                        if not isinstance(value, str) or not value:
                            raise ValueError(f"expected a non-empty string, "
                                             f"got {value!r}")
                    return title, abstract
                except (OSError, KeyError, TypeError, ValueError) as exc:
                    last_error = exc
            log.warning("external generator failed (%s); using the template "
                        "for the rest of the run", last_error)
        self.fallback_count += 1
        return self.fallback.generate(prompt_categories, seed)


class GeneratedItem:
    """An item generated for a prompt. Its title and abstract are the
    generator's text for the prompt's categories and the item's seed,
    generated on first read. A decision reads only the category weights;
    in a run, only the step barrier reads text, that of accepted items."""

    origin = ORIGIN_GENERATED
    text = Item.text
    title = property(lambda self: self._generated[0])
    abstract = property(lambda self: self._generated[1])

    def __init__(self, id: str, prompt: PromptPath, seed: int, generator):
        self.id = id
        self.prompt = prompt
        self.seed = seed
        self.generator = generator
        self.category = prompt.nodes[0]
        # the prompt's one dict: a user-step memoises a share per weights object
        self.category_weights = prompt.weights

    @cached_property
    def _generated(self) -> tuple:
        return self.generator.generate(self.prompt.nodes, self.seed)


# ---------------------------------------------------------------------------
# sessions
# ---------------------------------------------------------------------------

@dataclass
class NudgeSession:
    user_id: str
    path: PromptPath
    queue: list                      # empty once the session is terminal
    ledger: RejectionLedger
    extremes: tuple                  # (highs, lows) at session start
    queue_discipline: str = QUEUE_DRAIN
    max_path_len: int = None         # exploration cap; None = category count
    gen_counter: int = 0
    history: list = field(default_factory=list)


def new_session(graph, network, extremes: tuple,
                theta: float = pathfinder.DEFAULT_THETA,
                queue_discipline: str = QUEUE_DRAIN,
                max_path_len: int = None) -> NudgeSession:
    ledger = RejectionLedger(theta=theta)
    source, target = pathfinder.select_endpoints(network, extremes)
    path = pathfinder.explore(graph, source, target, network, ledger,
                              max_len=max_path_len)
    return NudgeSession(user_id=network.user_id, path=path,
                        queue=initial_queue(path), ledger=ledger, extremes=extremes,
                        queue_discipline=queue_discipline,
                        max_path_len=max_path_len)


def _generate_for(session: NudgeSession, prompt: PromptPath,
                  generator) -> GeneratedItem:
    session.gen_counter += 1
    item_id = f"{GENERATED_ID_PREFIX}{session.user_id}:{session.gen_counter}"
    return GeneratedItem(item_id, prompt, session.gen_counter, generator)


def pending_prompts(session: NudgeSession, count: int) -> list:
    """The next `count` prompts, cycling over the queue; none once it is empty."""
    if not session.queue:
        return []
    return [session.queue[i % len(session.queue)] for i in range(count)]


def _do_reschedule(session: NudgeSession, graph, network) -> str:
    fresh = pathfinder.reschedule(graph, network, session.ledger,
                                  session.extremes,
                                  max_len=session.max_path_len)
    if fresh is None:
        session.queue = []
        return "terminal"
    session.path = fresh
    session.queue = initial_queue(fresh)
    return "rescheduled"


def apply_feedback(session: NudgeSession, item: GeneratedItem, accepted: bool,
                   graph, network) -> str:
    """Fold one decision on a generated item back into the session.

    Accepts retire the prompt; rejects count against the ledger and split the
    prompt (terminal prompts trigger a reschedule per the queue discipline).
    Only the session changes: the caller credits an accepted item to the
    network and the graph, and a reschedule reads both. Returns the event
    name. An item whose prompt has left the queue is stale; rejecting it
    still counts against its prompt.
    """
    queue, key = session.queue, item.prompt.key
    index = prompt = None
    for i, queued in enumerate(queue):
        if queued.key == key:
            index, prompt = i, queued
            break

    if accepted:
        status = "accepted"
        if index is not None:
            queue.pop(index)
            if not queue:
                status = f"accepted+{_do_reschedule(session, graph, network)}"
    else:
        pathfinder.record_rejection(session.ledger,
                                    item.prompt if prompt is None else prompt)
        status = "rejected"
        if index is not None:
            halves = prompt.halves
            if halves is not None:
                queue[index:index + 1] = halves
                status = "split"
            else:
                queue.pop(index)
                if session.queue_discipline == QUEUE_REPLACE or not queue:
                    status = f"rejected+{_do_reschedule(session, graph, network)}"
    if index is None:
        status += "/stale"
    session.history.append({
        "step": session.gen_counter,
        "prompt": key,
        "item": item.id,
        "accepted": accepted,
        "event": status,
    })
    return status
