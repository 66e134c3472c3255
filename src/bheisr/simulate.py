"""Seeded desk-scale simulation loop and the four standard experiments.

Users accept each recommended item with probability equal to the item's
belief share (one logged uniform draw per decision). Per-user nudge sessions,
belief networks, and RNG streams are independent; the category graph and the
scoring state change only at the barrier between steps, so the order in
which a step visits its users changes no result.
"""

import csv
import json
import os
from dataclasses import dataclass, field, replace
from functools import partial

from . import belief as belief_mod
from . import detection, nudge, pathfinder
from .corpus import ORIGIN_GENERATED, Corpus, Item, SynthSpec, check_fields, \
    load_behaviors, load_corpus, load_ratings, reject_duplicates, synth_corpus
from .features import CategoryGraph, GraphUpdateBuffer, ItemTable
from .features import featurize_texts as build_vocabulary  # perfbench's span name
from .folds import fold_sum
from .recommenders import CandidateIndex, FeedContext, acceptance_share, assemble_feed
from .rng import substream

# model name -> (baseline kind, mixes generated items, label, the w it runs
# at or None for the config's), in the order the experiments run and report them
MODELS = {
    "rd": ("rd", False, "RD", None),
    "rd_w": ("rd", True, "RD_wC", None),
    "cb": ("cb", False, "CB", None),
    "cb_w": ("cb", True, "CB_wC", None),
    "uc": ("uc", False, "UC", None),
    "uc_w": ("uc", True, "UC_wC", None),
    "bheisr": ("rd", True, "BHEISR", 1.0),
}

EXEMPLARS_PER_CATEGORY = 3
BATCH_USERS = 256        # fed users per batched UC neighbour-mass product
DATASET_FORMATS = {"json": load_corpus, "mind_tsv": load_behaviors,   # -> loader
                   "imdb_csv": load_ratings}

@dataclass
class SimConfig:
    model: str = "cb_w"
    w: float = 0.6
    k: int = 10
    theta: float = pathfinder.DEFAULT_THETA
    feeds: int = 10
    seed: int = 0
    dataset: str = None
    dataset_format: str = None           # a key of DATASET_FORMATS; None: json
    synth: SynthSpec = None
    users: tuple = None                  # simulate only these users
    target_user: str = None
    queue_discipline: str = nudge.QUEUE_DRAIN
    max_path_len: int = None             # walk cap; paths have <= max_path_len + 1
    generator_url: str = None            # set: the HTTP generator
    generator_timeout_ms: int = 2000
    generator_retries: int = 2
    parallel: bool = False               # runs are serial; True is rejected
    track_fb: bool = False
    trace_paths: bool = False

    def validate(self) -> None:
        """Reject values no run can use, before any work starts."""
        check_fields(self)
        if self.dataset is not None and self.synth is not None:
            raise ValueError("set either dataset or synth, not both")
        if self.dataset_format not in (None, *DATASET_FORMATS):
            raise ValueError(f"unknown dataset format {self.dataset_format!r}")
        if self.dataset_format is not None and self.synth is not None:
            raise ValueError("dataset_format applies only to dataset, not synth")
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}; pick from "
                             f"{sorted(MODELS)}")
        if self.k < 1:
            raise ValueError("k must be positive")
        if not (0.0 <= self.w <= 1.0):
            raise ValueError("w must be in [0, 1]")
        if self.feeds < 1:
            raise ValueError("feeds must be positive")
        if not (self.theta >= 0.0):
            raise ValueError("theta must be non-negative")
        if self.queue_discipline not in nudge.QUEUE_DISCIPLINES:
            raise ValueError(f"unknown queue discipline {self.queue_discipline!r}")
        if self.max_path_len is not None and self.max_path_len < 1:
            raise ValueError("max_path_len must be positive")
        if self.generator_url == "":
            raise ValueError("generator_url is empty; leave it unset to use "
                             "the template generator")
        if self.target_user == "":
            raise ValueError("target_user is empty; leave it unset for the "
                             "default user")
        if self.generator_timeout_ms <= 0:
            raise ValueError("generator_timeout_ms must be positive")
        if self.generator_retries < 0:
            raise ValueError("generator_retries must be non-negative")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.users is not None and not self.users:
            raise ValueError("users is empty; leave it unset to feed everyone")
        reject_duplicates(self.users or (), "user")
        if self.parallel:
            raise ValueError("parallel is not supported: runs are serial")


def decide(ap: float, draw: float) -> tuple:
    """One Bernoulli decision on an item's acceptance share `ap` and its
    uniform `draw`: (accepted, ap, draw), accepted iff draw < ap."""
    return draw < ap, ap, draw


def checkpoint_steps(feeds: int) -> tuple:
    if feeds <= 20:
        return tuple(range(1, feeds + 1))
    steps = [t for t in range(10, feeds + 1, 10)]
    if steps[-1] != feeds:
        steps.append(feeds)
    return tuple(steps)


@dataclass(frozen=True)
class DecisionRecord:
    item_id: str
    origin: str
    ap: float
    draw: float
    accepted: bool


@dataclass(frozen=True)
class StepUserRecord:
    step: int
    user_id: str
    item_ids: tuple
    origins: tuple
    categories: tuple            # sorted distinct categories in the feed
    coverage: float
    belief_coverage: float
    decisions: tuple


@dataclass
class RunRecord:
    model: str
    seed: int
    w: float
    k: int
    users: tuple
    steps: list = field(default_factory=list)        # per step: [StepUserRecord]
    checkpoints: dict = field(default_factory=dict)  # user -> [(step, {cat: B})]
    fb_counts: list = None                           # [(step, count)] when tracked
    initial_fb_users: tuple = ()
    path_traces: list = field(default_factory=list)

    def coverage_series(self, user_id: str) -> list:
        return [rec.coverage for step in self.steps for rec in step
                if rec.user_id == user_id]

    def belief_coverage_series(self, user_id: str) -> list:
        return [rec.belief_coverage for step in self.steps for rec in step
                if rec.user_id == user_id]


def build_corpus(config: SimConfig) -> Corpus:
    if config.synth is not None:
        return synth_corpus(config.synth)
    if config.dataset is None:
        raise ValueError("config needs either a dataset path or a synth spec")
    return DATASET_FORMATS[config.dataset_format or "json"](config.dataset)


def _collect_exemplars(corpus: Corpus) -> dict:
    exemplars = {c: [] for c in corpus.categories()}
    for item in corpus.items.values():
        bucket = exemplars[item.category]
        if len(bucket) < EXEMPLARS_PER_CATEGORY:
            bucket.append(item)
    return exemplars


def _build_generator(config: SimConfig, exemplars: dict):
    template = nudge.TemplateGenerator(exemplars)
    if config.generator_url is not None:
        return nudge.ExternalGenerator(config.generator_url, template,
                                       timeout_ms=config.generator_timeout_ms,
                                       retries=config.generator_retries)
    return template


@dataclass
class SimState:
    """Shared immutable-within-a-step world handed to user steps."""
    config: SimConfig
    corpus: Corpus
    users: tuple                         # the fed users, in feed order
    graph: CategoryGraph
    networks: dict
    ctx: FeedContext
    sessions: dict
    with_bheisr: bool
    w_eff: float
    classification: object = None


def build_assets(corpus: Corpus) -> CandidateIndex:
    """The candidate index over the corpus vocabulary, from one tokenizing
    pass: immutable, and reusable across runs with any seed."""
    vocab, entries = build_vocabulary(map(Item.text, corpus.items.values()))
    return CandidateIndex.build(corpus, vocab, entries)


def _classify(corpus, networks):
    """Two-sigma classification of every user with history; None when fewer
    than detection.MIN_POPULATION users have any."""
    beliefs = {u: net.belief for u, net in networks.items()
               if net.positive_category_count()}
    if len(beliefs) < detection.MIN_POPULATION:
        return None
    return detection.classify_users(beliefs, corpus.categories())


def build_population(corpus: Corpus) -> tuple:
    """(every user's belief network, their classification or None)."""
    networks = belief_mod.build_all(corpus)
    return networks, _classify(corpus, networks)


def prepare(config: SimConfig, corpus: Corpus = None,
            assets: CandidateIndex = None) -> SimState:
    """The run's state; the fed users, config.users or all, and the target
    user are checked first."""
    config.validate()
    if corpus is None:
        corpus = build_corpus(config)
    if not corpus.taxonomy:
        # coverage and belief coverage are shares of the categories
        raise ValueError("the corpus has no categories")
    users = tuple(config.users) if config.users else corpus.users
    known = set(corpus.users)
    for user in users + ((config.target_user,) if config.target_user else ()):
        if user not in known:
            raise ValueError(f"unknown user {user!r}")
    if assets is None:
        assets = build_assets(corpus)
    table = ItemTable(assets)
    graph = CategoryGraph.build(corpus, table)
    networks, classification = build_population(corpus)
    exemplars = _collect_exemplars(corpus)
    generator = _build_generator(config, exemplars)
    baseline, with_bheisr, _, fixed_w = MODELS[config.model]
    ctx = FeedContext(corpus=corpus, networks=networks, table=table,
                      baseline=baseline, generator=generator)
    ctx.enable_acceleration()

    w_eff = config.w if fixed_w is None else fixed_w
    sessions = {}
    if with_bheisr and classification is not None:
        fed = set(users)
        for user in classification.fb_users:
            if user in fed:
                sessions[user] = nudge.new_session(
                    graph, networks[user], classification.extremes[user],
                    theta=config.theta, queue_discipline=config.queue_discipline,
                    max_path_len=config.max_path_len)
    return SimState(config=config, corpus=corpus, users=users, graph=graph,
                    networks=networks, ctx=ctx, sessions=sessions,
                    with_bheisr=with_bheisr, w_eff=w_eff,
                    classification=classification)


def feed_for(state: SimState, step: int, user_id: str):
    """The user's feed at `step`: the one assemble_feed call of a run."""
    config, ctx = state.config, state.ctx
    return assemble_feed(ctx, state.with_bheisr, state.w_eff, config.k,
                         state.sessions.get(user_id), user_id, step, config.seed)


def _decisions(state: SimState, step: int, user_id: str, feed) -> tuple:
    network = state.networks[user_id]
    # one uniform per item from the user-step's stream, in one call:
    # rng.random(n) gives the doubles of n scalar calls
    draws = substream(state.config.seed, "decide", user_id, step).random(
        len(feed.items)).tolist()
    # every decision comes before any update, so the belief total holds, and
    # so does the share of each category_weights object, which every item
    # generated for one prompt shares
    belief_total = fold_sum(network.belief.values())
    shares, decisions = {}, []
    for item, draw in zip(feed.items, draws):
        weights = id(item.category_weights)
        ap = shares.get(weights)
        if ap is None:
            ap = shares[weights] = acceptance_share(item, network, belief_total)
        ok, ap, draw = decide(ap, draw)
        # (item_id, origin, ap, draw, accepted), by position: keywords
        # make each frozen record about 1 us dearer
        decisions.append(DecisionRecord(item.id, item.origin, ap, draw, ok))
    return tuple(decisions)


def _feedback(state: SimState, user_id: str, feed, decisions: tuple) -> list:
    """Credit the accepted items and fold every decision on a generated item
    into the session, in feed order; the accepted items, which the graph
    sees at the barrier's flush."""
    network = state.networks[user_id]
    session = state.sessions.get(user_id)
    accepted_items = []
    for item, dec in zip(feed.items, decisions):
        # the one place an accepted item is credited
        if dec.accepted:
            network.update_on_feedback(item)
            accepted_items.append(item)
        if item.origin == ORIGIN_GENERATED:
            nudge.apply_feedback(session, item, dec.accepted, state.graph,
                                 network)
    return accepted_items


def _record(state: SimState, step: int, user_id: str, feed,
            decisions: tuple) -> StepUserRecord:
    taxonomy = state.corpus.taxonomy
    # a dataset item touches its own category, a generated item its prompt's
    categories = set().union(*[
        item.prompt.node_set if item.origin == ORIGIN_GENERATED
        else (item.category,) for item in feed.items])
    return StepUserRecord(
        step=step,
        user_id=user_id,
        item_ids=tuple([it.id for it in feed.items]),
        origins=tuple([it.origin for it in feed.items]),
        categories=tuple(sorted(categories)),
        coverage=detection.diversity_coverage(categories, taxonomy),
        belief_coverage=(state.networks[user_id].positive_category_count()
                         / len(taxonomy)),
        decisions=decisions,
    )


def _step_block(state: SimState, users: tuple, step: int) -> dict:
    """Every user step of the block, {user: (record, accepted items)}, run
    one phase at a time over all of the block's users: feeds, decisions,
    accepts with session feedback, then records.

    Users share no state inside a step, and each user's phases run in the
    order of one user step, so the phase order changes no result. It is
    kept for speed: one function per whole user step ran both benchmark
    workloads at 0.89-0.98x in paired runs (2-vCPU Xeon, Python 3.11).
    """
    feeds = list(map(partial(feed_for, state, step), users))
    decisions = list(map(partial(_decisions, state, step), users, feeds))
    accepts = list(map(partial(_feedback, state), users, feeds, decisions))
    records = list(map(partial(_record, state, step), users, feeds, decisions))
    return dict(zip(users, zip(records, accepts)))


def run_loop(config: SimConfig, corpus: Corpus = None,
             assets: CandidateIndex = None) -> RunRecord:
    """Run the interaction loop for `config.feeds` steps.

    Only `config.users` (default: everyone) are fed; the rest of the
    population still backs classification. Updates to shared state (category
    graph, then the scoring state) are applied between steps in user order,
    so results do not depend on execution order within a step.
    """
    state = prepare(config, corpus, assets)
    record = RunRecord(model=config.model, seed=config.seed, w=state.w_eff,
                       k=config.k, users=state.users)
    if state.classification is not None:
        record.initial_fb_users = state.classification.fb_users
    checkpoints = set(checkpoint_steps(config.feeds))
    for user in state.users:
        record.checkpoints[user] = []
    fb_counts = []
    if config.track_fb:
        fb_counts.append((0, _fb_count(state.classification)))

    for step in range(1, config.feeds + 1):
        results = {}
        # shared state changes only at the barrier, so blocks change no result
        for start in range(0, len(state.users), BATCH_USERS):
            block = state.users[start:start + BATCH_USERS]
            state.ctx.batch_neighbor_mass(block)
            results.update(_step_block(state, block, step))

        accepts = {user: results[user][1] for user in state.users if results[user][1]}
        buffer = GraphUpdateBuffer(state.graph)
        for items in accepts.values():
            buffer.accept_items(items)
        buffer.flush()
        state.ctx.note_accept(accepts)
        record.steps.append([results[user][0] for user in state.users])

        if step in checkpoints:
            for user in state.users:
                record.checkpoints[user].append(
                    (step, dict(state.networks[user].belief)))
        if config.track_fb:
            fb_counts.append(
                (step, _fb_count(_classify(state.corpus, state.networks))))

    if config.track_fb:
        record.fb_counts = fb_counts
    if config.trace_paths:
        for user in sorted(state.sessions):
            session = state.sessions[user]
            record.path_traces.append(
                {"user": user, "path": session.path.key,
                 "history": list(session.history)})
    return record


def _fb_count(classification) -> int:
    return 0 if classification is None else len(classification.fb_users)


# ---------------------------------------------------------------------------
# experiments: each runs MODELS in order, or sweeps W_VALUES, on one corpus
# ---------------------------------------------------------------------------

IMPROVEMENT_PAIRS = (("rd", "rd_w"), ("cb", "cb_w"), ("uc", "uc_w"))
W_VALUES = (0.2, 0.4, 0.6, 0.8)     # experiment 4's sweep


def _corpus(config: SimConfig) -> Corpus:
    """An experiment's corpus, built only after its config is checked."""
    config.validate()
    return build_corpus(config)


def _target(config: SimConfig, corpus: Corpus) -> tuple:
    """(the configured target or else the first bubble-affected user, every
    user's belief network, their classification or None)."""
    networks, classification = build_population(corpus)
    target = config.target_user
    if target is None:
        if classification is None or not classification.fb_users:
            raise ValueError("no bubble-affected users to target")
        target = classification.fb_users[0]
    if target not in networks:
        raise ValueError(f"unknown user {target!r}")
    return target, networks, classification


def _runs(corpus: Corpus, configs: list) -> list:
    """One RunRecord per config, in order, on one set of shared assets."""
    assets = build_assets(corpus)
    return [run_loop(config, corpus, assets) for config in configs]


def experiment_coverage(config: SimConfig, out_dir: str) -> dict:
    """Per-feed diversity coverage of one user's feeds under each model:
    {"rows": per feed, {model: coverage} in MODELS order; "sums";
    "improvements": mixed model -> percent over its baseline}."""
    corpus = _corpus(config)
    target = _target(config, corpus)[0]
    runs = _runs(corpus, [replace(config, model=m, users=(target,),
                                  track_fb=False) for m in MODELS])
    series = {m: run.coverage_series(target) for m, run in zip(MODELS, runs)}
    rows = [{m: series[m][t] for m in MODELS} for t in range(config.feeds)]
    sums = {m: fold_sum(series[m]) for m in MODELS}
    improvements = {
        mixed: 100.0 * (sums[mixed] - sums[base]) / sums[base]
        for base, mixed in IMPROVEMENT_PAIRS if sums[base] > 0.0}
    _write_csv(out_dir, "coverage.csv", [
        ["Times"] + [label for _, _, label, _ in MODELS.values()],
        *[[f"feed_{i}"] + [_fmt(row[m]) for m in MODELS]
          for i, row in enumerate(rows, start=1)],
        ["Sum"] + [_fmt(sums[m]) for m in MODELS],
        ["Improv"] + [_fmt(improvements[m]) + "%" if m in improvements else ""
                      for m in MODELS]])
    return {"rows": rows, "sums": sums, "improvements": improvements}


def experiment_trajectory(config: SimConfig, out_dir: str) -> dict:
    """Belief of the target's strongest extreme-high (interest) and weakest
    extreme-low (disinterest) category at checkpoints."""
    corpus = _corpus(config)
    # one build serves both the target and the endpoints
    target, networks, classification = _target(config, corpus)
    if classification is None:
        raise ValueError("cannot infer endpoint categories without "
                         "a classified population")
    if target not in classification.extremes:
        raise ValueError(f"cannot infer endpoint categories for user "
                         f"{target!r}, who has no history")
    interest, disinterest = pathfinder.select_endpoints(
        networks[target], classification.extremes[target])
    (run,) = _runs(corpus, [replace(config, users=(target,), track_fb=False)])
    points = run.checkpoints[target]
    _write_csv(out_dir, "trajectory.csv", [["step", "series", "value"], *[
        [s, series, _fmt(b[category])] for s, b in points
        for series, category in (("interest", interest),
                                 ("disinterest", disinterest))]])
    return {
        "user": target,
        "interest": interest,
        "disinterest": disinterest,
        "steps": [s for s, _ in points],
        "interest_series": [b[interest] for _, b in points],
        "disinterest_series": [b[disinterest] for _, b in points],
    }


def experiment_fb_count(config: SimConfig, out_dir: str) -> dict:
    """Population bubble-affected count after every feed, per model."""
    corpus = _corpus(config)
    runs = _runs(corpus, [replace(config, model=m, track_fb=True)
                          for m in MODELS])
    counts = {m: run.fb_counts for m, run in zip(MODELS, runs)}
    _write_csv(out_dir, "fb_count.csv", [["step", *MODELS], *[
        [s] + [counts[m][i][1] for m in MODELS]
        for i, (s, _) in enumerate(runs[0].fb_counts)]])
    return counts


def experiment_w_sweep(config: SimConfig, out_dir: str) -> dict:
    """Belief-network category coverage of the target user per feed, per w."""
    corpus = _corpus(config)
    # a pure model mixes no generated items, and a model with its own w
    # ignores the config's, so either would give one series for every w
    mixed = [m for m, (_, with_bheisr, _, w) in MODELS.items()
             if with_bheisr and w is None]
    if config.model not in mixed:
        raise ValueError(f"model {config.model!r} has no w to sweep; pick "
                         f"from the mixed models {mixed}")
    target = _target(config, corpus)[0]
    runs = _runs(corpus, [replace(config, w=w, users=(target,),
                                  track_fb=False) for w in W_VALUES])
    series = {w: run.belief_coverage_series(target)
              for w, run in zip(W_VALUES, runs)}
    _write_csv(out_dir, "w_sweep.csv", [["step", "w", "belief_coverage"], *[
        [t, _fmt(w), _fmt(value)] for w in W_VALUES
        for t, value in enumerate(series[w], start=1)]])
    return {"user": target, "model": config.model, "series": series}


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _write_csv(out_dir: str, name: str, rows: list) -> None:
    """Write `rows` to out_dir/name, making out_dir."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, name), "w", encoding="utf-8",
              newline="") as fh:
        csv.writer(fh).writerows(rows)


def _write_jsonl(path: str, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True) + "\n")


def write_run(record: RunRecord, out: str) -> None:
    """Write a run's directory `out`: runlog.jsonl, one row per (step, user)
    with decisions and draws; networks/<user>.json, each fed user's belief
    checkpoints; fb_counts.json when the run tracked bubble counts; and
    paths.jsonl when it kept path traces."""
    os.makedirs(os.path.join(out, "networks"), exist_ok=True)
    _write_jsonl(os.path.join(out, "runlog.jsonl"), (
        {"step": rec.step,
         "user": rec.user_id,
         "items": [{"id": i, "origin": o}
                   for i, o in zip(rec.item_ids, rec.origins)],
         "decisions": [{"item": d.item_id, "ap": d.ap, "draw": d.draw,
                        "accepted": d.accepted} for d in rec.decisions],
         "coverage": rec.coverage}
        for step_records in record.steps for rec in step_records))
    for user, points in record.checkpoints.items():
        with open(os.path.join(out, "networks", f"{user}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump([{"step": s, "belief": b} for s, b in points], fh,
                      indent=2, sort_keys=True)
    if record.fb_counts is not None:
        with open(os.path.join(out, "fb_counts.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(record.fb_counts, fh)
    if record.path_traces:
        _write_jsonl(os.path.join(out, "paths.jsonl"), record.path_traces)
