"""Workloads, RunRecord digests, output checks and the measured runs.

A workload is a synthetic corpus shape plus a simulation config. Each
sub-run seed becomes both the corpus seed and the run seed, so the program
sees only the generated corpus and config. Every run is serial: with
`parallel=True` the loop would start up to 8 threads per step.
"""

import dataclasses
import gc
import hashlib
import json
import numbers
import os
import resource
import statistics
from time import perf_counter

from bheisr import simulate
from bheisr.corpus import SynthSpec, synth_corpus
from bheisr.simulate import SimConfig, build_assets, checkpoint_steps, prepare

from spans import Tracer, layer_metrics

SUB_RUN_STRIDE = 1000       # sub-run j of benchmark seed s uses seed s * 1000 + j
TRACED_SETUPS = 3           # set-ups timed in the traced run
TRACED_PAIRS = 3            # traced run: untraced + traced run_loop pairs
DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    spec: dict                    # SynthSpec fields other than seed
    config: dict                  # SimConfig fields other than seed and users
    bubble_users_only: bool       # feed only the users prepare finds bubble-affected
    sub_runs: int                 # measured sub-runs, the same at every code version
    passes: int                   # passes over the sub-runs in an untraced run


WORKLOADS = {w.name: w for w in (
    Workload("population",
             dict(n_users=100, bias_profile=10, n_items=4080),
             dict(model="uc_w", w=0.6, k=10, feeds=4), False, 2, 8),
    Workload("nudge",
             dict(n_users=30, bias_profile=10),
             dict(model="bheisr", k=10, feeds=50), True, 4, 5),
)}


def sub_run_seed(seed, j):
    return seed * SUB_RUN_STRIDE + j


def make_config(workload, seed, corpus, assets):
    """The run config; bubble-only workloads take their users from prepare."""
    config = SimConfig(seed=seed, track_fb=True, trace_paths=True,
                       parallel=False, **workload.config)
    if workload.bubble_users_only:
        fb_users = prepare(config, corpus, assets).classification.fb_users
        if not fb_users:
            raise ValueError(f"{workload.name}: no bubble-affected users")
        config = dataclasses.replace(config, users=fb_users)
    return config


def _canonical(value):
    if isinstance(value, (str, bool)) or value is None:
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return repr(float(value))
    if dataclasses.is_dataclass(value):
        return [[f.name, _canonical(getattr(value, f.name))]
                for f in dataclasses.fields(value)]
    if isinstance(value, dict):
        return sorted([_canonical(k), _canonical(v)] for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    raise TypeError(f"cannot digest {type(value).__name__}")


def digest(record):
    """sha256 over every RunRecord field; floats in repr form."""
    text = json.dumps(_canonical(record), separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def user_steps(record):
    return sum(len(step) for step in record.steps)


def check_record(record, config, corpus):
    """Problems with a run's output that hold at any seed; empty when sound."""
    problems = []
    if len(record.steps) != config.feeds:
        problems.append(f"{len(record.steps)} steps, expected {config.feeds}")
    seen = {u: set() for u in record.users}
    for inter in corpus.interactions:
        if inter.user_id in seen and corpus.interested(inter):
            seen[inter.user_id].add(inter.item_id)
    for t, step in enumerate(record.steps, start=1):
        if [rec.user_id for rec in step] != list(record.users):
            problems.append(f"step {t}: fed users differ from the config")
        for rec in step:
            where = f"step {t} user {rec.user_id}"
            if rec.step != t or len(rec.item_ids) != config.k:
                problems.append(f"{where}: feed of {len(rec.item_ids)} items")
            if len(set(rec.item_ids)) != len(rec.item_ids):
                problems.append(f"{where}: repeated item in a feed")
            if seen[rec.user_id].intersection(rec.item_ids):
                problems.append(f"{where}: accepted item shown again")
            if [d.item_id for d in rec.decisions] != list(rec.item_ids):
                problems.append(f"{where}: decisions do not match the feed")
            for d in rec.decisions:
                if not (0.0 <= d.ap <= 1.0 + 1e-12 and 0.0 <= d.draw < 1.0) \
                        or d.accepted != (d.draw < d.ap):
                    problems.append(f"{where}: bad decision on {d.item_id}")
                if d.accepted:
                    seen[rec.user_id].add(d.item_id)
            if not (0.0 < rec.coverage <= 1.0 and 0.0 <= rec.belief_coverage <= 1.0):
                problems.append(f"{where}: coverage out of range")
    if [s for s, _ in record.fb_counts] != list(range(config.feeds + 1)):
        problems.append("fb_counts do not cover every step")
    want = list(checkpoint_steps(config.feeds))
    for user, points in record.checkpoints.items():
        if [s for s, _ in points] != want:
            problems.append(f"checkpoints of {user} at the wrong steps")
    return problems


def load_pinned(workload_name):
    """Pinned digests of a workload, by sub-run seed."""
    with open(DIGESTS, encoding="utf-8") as fh:
        pinned = json.load(fh).get(workload_name, {})
    return {int(seed): value for seed, value in pinned.items()}


def build_inputs(workload, run_seed, synth=synth_corpus):
    """Timed synth_corpus + build_assets: (seconds, corpus, assets)."""
    gc.collect()
    start = perf_counter()
    corpus = synth(SynthSpec(seed=run_seed, **workload.spec))
    assets = build_assets(corpus)
    return perf_counter() - start, corpus, assets


class Tally:
    """Judges every run_loop call of a benchmark run.

    The first record of each sub-run seed is checked in full and against its
    pinned digest, when it has one; a repeated seed must repeat its digest.
    """

    def __init__(self, pinned):
        self.pinned = pinned
        self.digests = {}           # run seed -> digest
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def loop(self, run_loop, config, corpus, assets):
        """One timed run_loop: (user-steps, seconds), or None if it failed."""
        self.attempted += 1
        where = f"seed {config.seed}"
        gc.collect()
        try:
            start = perf_counter()
            record = run_loop(config, corpus, assets)
            elapsed = perf_counter() - start
        except Exception as exc:    # a raising run is a counted failure
            return self.fail(f"{where}: run_loop raised {exc!r}")
        found = digest(record)
        if config.seed in self.digests:
            if found != self.digests[config.seed]:
                return self.fail(f"{where}: digest {found} differs from this "
                                 f"run's {self.digests[config.seed]}")
        else:
            self.digests[config.seed] = found
            problems = check_record(record, config, corpus)
            if problems:
                return self.fail(f"{where}: " + "; ".join(problems[:5]))
            pinned = self.pinned.get(config.seed)
            if pinned is not None and found != pinned:
                return self.fail(f"{where}: digest {found} differs from pinned "
                                 f"{pinned}")
        return user_steps(record), elapsed

    def fail(self, problem):
        self.failed += 1
        self.problems.append(problem)
        return None


def measure(workload, seed, seconds):
    """Untraced run: end-to-end metrics {name: (value, unit)}, the samples
    behind them, and the run's Tally.

    The run makes workload.passes passes over sub-runs 0 .. sub_runs-1. In
    each pass every sub-run builds its corpus and runs the loop once. A
    sub-run's figures are its fastest loop and its fastest set-up: the work
    is identical in every pass, and a shared host only ever slows it down, so
    the fastest pass is the one least disturbed. Interleaving the passes
    spreads each sub-run's repeats over the whole run, and the first pass
    also serves as the warm-up. The sub-runs and passes are fixed, so every
    code version measures the same inputs at a seed; taking more than
    `seconds` for them is a failure.
    """
    tally = Tally(load_pinned(workload.name))
    setups = [[] for _ in range(workload.sub_runs)]
    times = [[] for _ in range(workload.sub_runs)]
    steps = [0] * workload.sub_runs
    start = perf_counter()
    for _ in range(workload.passes):
        for j in range(workload.sub_runs):
            run_seed = sub_run_seed(seed, j)
            setup_s, corpus, assets = build_inputs(workload, run_seed)
            setups[j].append(setup_s)
            config = make_config(workload, run_seed, corpus, assets)
            done = tally.loop(simulate.run_loop, config, corpus, assets)
            corpus = assets = None
            if done is None:
                break
            steps[j] = done[0]
            times[j].append(done[1])
            if perf_counter() - start > seconds:
                tally.fail(f"{tally.attempted} loops took "
                           f"{perf_counter() - start:.1f} s, over the "
                           f"{seconds} s cap")
                break
        if tally.failed:
            break
    complete = not tally.failed
    metrics = {
        "user_steps_per_s": (sum(steps) / sum(min(t) for t in times)
                             if complete else None, "1/s"),
        "setup_s": (statistics.median(min(s) for s in setups)
                    if complete else None, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
    }
    samples = {"user_steps_per_s": [steps[j] / t for j in range(len(times))
                                    for t in times[j]],
               "setup_s": [s for per_run in setups for s in per_run]}
    return metrics, samples, tally


def measure_traced(workload, seed, seconds, tracer=None):
    """Traced run on sub-run 0: per-layer metrics, its Tally and the tracer
    holding the spans.

    TRACED_PAIRS untraced and traced run_loop calls come in pairs on the same
    inputs, each pair in the opposite order to the last, so the tracing
    overhead (traced minus untraced user-steps per second) is measured on one
    host state. The counts of every traced call must repeat exactly. Taking
    more than `seconds` for the pairs is a failure.
    """
    tracer = tracer or Tracer()
    tally = Tally(load_pinned(workload.name))
    run_seed = sub_run_seed(seed, 0)
    setup_takes = []
    with tracer.installed():
        synth = tracer.wrap("corpus.synth", synth_corpus)
        for _ in range(TRACED_SETUPS):
            corpus = assets = None
            _, corpus, assets = build_inputs(workload, run_seed, synth)
            setup_takes.append(tracer.take())
    config = make_config(workload, run_seed, corpus, assets)
    traced_loop = tracer.wrap("simulate.loop", simulate.run_loop)
    plain, traced, loop_takes = [], [], []
    ok = tally.loop(simulate.run_loop, config, corpus, assets) is not None
    start = perf_counter()
    for pair in range(TRACED_PAIRS if ok else 0):
        # alternate which side of the pair runs first
        for is_traced in (False, True) if pair % 2 == 0 else (True, False):
            if is_traced:
                with tracer.installed():
                    done = tally.loop(traced_loop, config, corpus, assets)
                take = tracer.take()
            else:
                done = tally.loop(simulate.run_loop, config, corpus, assets)
            if done is None:
                ok = False
                break
            if not is_traced:
                plain.append(done[0] / done[1])
            elif loop_takes and take[1] != loop_takes[0][1]:
                tally.fail("counts differ between traced runs")
                ok = False
                break
            else:
                traced.append(done[0] / done[1])
                loop_takes.append(take)
        if not ok:
            break
        if perf_counter() - start > seconds:
            tally.fail(f"pairs 0..{pair} took {perf_counter() - start:.1f} s, "
                       f"over the {seconds} s cap")
            break
    if tally.failed:
        return {}, tally, tracer
    metrics = layer_metrics(setup_takes, loop_takes)
    metrics["trace.user_steps_per_s_delta"] = (
        statistics.median(traced) - statistics.median(plain), "1/s")
    return metrics, tally, tracer
