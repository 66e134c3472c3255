"""Spans and counts at the public entry points of each bheisr module.

The tracer patches every entry point where its caller looks it up (a module
global or a class attribute), so the program itself carries no tracing code.
Each call records a span (run, id, name, start, end, parent id) in memory
and adds to exact counters; `installed()` restores the originals on exit.
A layer's self time is its spans' duration minus the time covered by their
child spans.
"""

import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from bheisr import belief, detection, nudge, pathfinder, recommenders, simulate
from bheisr.belief import BeliefNetwork
from bheisr.features import CategoryGraph, GraphUpdateBuffer
from bheisr.recommenders import CandidateIndex, FeedContext, n_generated


def _count_slots(counts, args, result):
    # assemble_feed(baseline, with_bheisr, w, k, session, ...)
    if args[1] and args[4] is not None:
        counts["nudge.slots_requested"] += n_generated(args[2], args[3])
        counts["nudge.slots_filled"] += result.generated_count


def _count_folded(counts, args, result):
    counts["features.folded_items"] += result


def _count_terminal(counts, args, result):
    if result is None:
        counts["pathfinder.terminal_sessions"] += 1


def _count_generated_accepts(counts, args, result):
    # apply_feedback(session, item, accepted, graph, network)
    if args[2]:
        counts["nudge.generated_accepts"] += 1


def _count_accepts(counts, args, result):
    if result[0]:
        counts["simulate.accepts"] += 1


# (owner, attribute, span name, count hook) for every patched lookup
ENTRY_POINTS = (
    (simulate, "build_vocabulary", "features.vocab", None),
    (CandidateIndex, "build", "recommenders.index_build", None),
    (CategoryGraph, "build", "features.graph_build", None),
    (belief, "build_all", "belief.build_all", None),
    (FeedContext, "enable_acceleration", "recommenders.enable_acceleration", None),
    (simulate, "prepare", "simulate.prepare", None),
    (simulate, "assemble_feed", "recommenders.assemble", _count_slots),
    (recommenders, "baseline_ranking", "recommenders.ranking", None),
    (recommenders, "_baseline_scores", "recommenders.scores", None),
    (FeedContext, "note_accept", "recommenders.note_accept", None),
    (FeedContext, "refresh_mass", "recommenders.refresh_mass", None),
    (GraphUpdateBuffer, "flush", "features.flush", _count_folded),
    (BeliefNetwork, "update_on_feedback", "belief.update", None),
    (detection, "classify_users", "detection.classify", None),
    (detection, "diversity_coverage", "detection.coverage", None),
    (pathfinder, "explore", "pathfinder.explore", None),
    (pathfinder, "reschedule", "pathfinder.reschedule", _count_terminal),
    (nudge, "_generate_for", "nudge.generate", None),
    (nudge, "apply_feedback", "nudge.apply_feedback", _count_generated_accepts),
    (simulate, "decide", "simulate.decide", _count_accepts),
    (simulate, "substream", "rng.substream", None),
    (recommenders, "substream", "rng.substream", None),
)


class Tracer:
    """In-memory spans plus per-name self time and counts since `take()`."""

    def __init__(self):
        self.spans = []
        self.run = 0
        self._stack = []
        self._next_id = 0
        self.self_s = defaultdict(float)
        self.counts = Counter()

    def wrap(self, name, fn, hook=None):
        """`fn` with a span named `name` around each call."""
        calls = name + "_calls"

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            frame = [span_id, 0.0]      # id, time covered by child spans
            self._stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                duration = end - start
                self.self_s[name] += duration - frame[1]
                if parent is not None:
                    parent[1] += duration
                self.spans.append((self.run, span_id, name, start, end,
                                   None if parent is None else parent[0]))
            self.counts[calls] += 1
            if hook is not None:
                hook(self.counts, args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every entry point for the duration of the block."""
        originals = []
        try:
            for owner, attr, name, hook in ENTRY_POINTS:
                original = vars(owner)[attr]
                if isinstance(original, classmethod):
                    patched = classmethod(self.wrap(name, original.__func__, hook))
                else:
                    patched = self.wrap(name, original, hook)
                originals.append((owner, attr, original))
                setattr(owner, attr, patched)
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    def take(self):
        """Self times and counts since the last take; starts a new run id."""
        out = dict(self.self_s), dict(self.counts)
        self.self_s = defaultdict(float)
        self.counts = Counter()
        self.run += 1
        return out


# Per-layer report. Set-up layers are the median over set-up repeats; loop
# layers the median over traced run_loop calls, whose counts must repeat.
SETUP_LAYERS = ("corpus.synth", "features.vocab", "recommenders.index_build")
LOOP_LAYERS = (
    "features.graph_build", "belief.build_all",
    "recommenders.enable_acceleration", "simulate.prepare",
    "recommenders.ranking", "recommenders.scores", "recommenders.assemble",
    "recommenders.note_accept", "recommenders.refresh_mass", "features.flush",
    "belief.update", "detection.classify", "detection.coverage",
    "pathfinder.explore", "pathfinder.reschedule", "nudge.generate",
    "nudge.apply_feedback", "simulate.decide", "rng.substream",
)
COUNTS = {   # metric -> counter
    "recommenders.ranking_calls": "recommenders.ranking_calls",
    "features.flush_calls": "features.flush_calls",
    "features.folded_items": "features.folded_items",
    "belief.updates": "belief.update_calls",
    "detection.classify_calls": "detection.classify_calls",
    "pathfinder.explore_calls": "pathfinder.explore_calls",
    "pathfinder.reschedules": "pathfinder.reschedule_calls",
    "pathfinder.terminal_sessions": "pathfinder.terminal_sessions",
    "nudge.generated_items": "nudge.generate_calls",
    "simulate.decisions": "simulate.decide_calls",
    "rng.substream_calls": "rng.substream_calls",
}
RATIOS = {   # metric -> (useful counter, attempted counter)
    "nudge.accept_ratio": ("nudge.generated_accepts", "nudge.generate_calls"),
    "nudge.slot_fill": ("nudge.slots_filled", "nudge.slots_requested"),
    "simulate.accept_ratio": ("simulate.accepts", "simulate.decide_calls"),
}
LOOP_SELF = "simulate.loop"


def layer_metrics(setup_takes, loop_takes):
    """Per-layer metrics {name: (value, unit)} from `take()` results."""
    metrics = {}
    for name in SETUP_LAYERS:
        metrics[name + "_s"] = (
            statistics.median(t.get(name, 0.0) for t, _ in setup_takes), "s")
    for name in LOOP_LAYERS:
        metrics[name + "_s"] = (
            statistics.median(t.get(name, 0.0) for t, _ in loop_takes), "s")
    metrics["simulate.loop_self_s"] = (
        statistics.median(t[LOOP_SELF] for t, _ in loop_takes), "s")
    counts = loop_takes[0][1]
    for metric, counter in COUNTS.items():
        metrics[metric] = (counts.get(counter, 0), "count")
    for metric, (useful, attempted) in RATIOS.items():
        base = counts.get(attempted, 0)
        metrics[metric] = (counts.get(useful, 0) / base if base else 0.0, "ratio")
    return metrics
