"""End-to-end acceptance gate.

Ten criteria, each with an independent oracle (hand values, brute force, or
scipy) and a wall-clock budget. Every test prints one PASS/FAIL line on the
real terminal even under capture.
"""

import itertools
import time

import numpy as np
import pytest
import scipy.stats

from bheisr.belief import BeliefNetwork
from bheisr.corpus import ORIGIN_GENERATED, Item, SynthSpec, generated_subcategory, \
    synth_corpus
from bheisr.detection import classify_users, ks_normality
from bheisr.nudge import (
    NudgeSession,
    TemplateGenerator,
    _generate_for,
    apply_feedback,
    initial_queue,
    pending_prompts,
)
from bheisr.pathfinder import (
    RejectionLedger,
    next_hop,
    record_rejection,
    select_endpoints,
)
from bheisr.simulate import (
    SimConfig,
    build_assets,
    experiment_coverage,
    prepare,
    run_loop,
)
from oracle import (
    TableGraph,
    TableNetwork,
    brute_force_classify,
    brute_force_next_hop,
    entropy_bits,
    path_of,
    reverse_user_order,
)

SPEC20 = SynthSpec(bias_profile=10)                 # 20 users, 10 biased
SPEC30 = SynthSpec(n_users=30, bias_profile=10)     # 30 users, 10 biased


@pytest.fixture(scope="module")
def corpus20():
    return synth_corpus(SPEC20)


@pytest.fixture(scope="module")
def assets20(corpus20):
    return build_assets(corpus20)


@pytest.fixture(scope="module")
def corpus30():
    return synth_corpus(SPEC30)


@pytest.fixture(scope="module")
def assets30(corpus30):
    return build_assets(corpus30)


def report(capsys, number, ok, detail, elapsed, budget):
    line = (f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} "
            f"{detail} ({elapsed:.2f}s / budget {budget:.0f}s)")
    with capsys.disabled():
        print(line)
    assert ok, line
    assert elapsed <= budget, line


def taxonomy_networks():
    cats = ("a", "b", "c")
    subs = {"a": ("a/s0", "a/s1", "a/s2"), "b": ("b/s0", "b/s1", "b/s2"),
            "c": ("c/s0", "c/s1", "c/s2")}
    mapping = {s: c for c, ss in subs.items() for s in ss}
    return cats, subs, mapping


def test_criterion_01_entropy_and_incremental_updates(capsys):
    """Known entropy values, and 10,000 random update sequences where the
    incrementally maintained beliefs equal a scratch recomputation."""
    t0 = time.perf_counter()
    cats, subs, mapping = taxonomy_networks()
    # every network's map binds each generated label, as build_all's does
    labels = {**mapping, **{generated_subcategory(c): c for c in cats}}

    worst = 0.0
    ok = abs(entropy_bits([1.0]) - 0.0) <= 1e-9
    ok &= abs(entropy_bits([0.5, 0.5]) - 1.0) <= 1e-9
    ok &= abs(entropy_bits([0.25] * 4) - 2.0) <= 1e-9

    # the same identities through a belief network
    for masses, cat, expect in (
            ({"a/s0": 5.0}, "a", 0.0),
            ({"a/s0": 2.0, "a/s1": 2.0}, "a", 1.0),
            ({"a/s0": 1.0, "a/s1": 1.0, "a/s2": 1.0, "a/generated": 1.0}, "a", 2.0)):
        network = BeliefNetwork(user_id="u", categories=cats,
                                subcat_to_cat=dict(labels))
        for sub, m in masses.items():
            network.add_click_mass(sub, m)
        network.recompute()
        err = abs(network.belief[cat] - expect)
        worst = max(worst, err)
        ok &= err <= 1e-9

    rng = np.random.default_rng(101)
    all_subs = sorted(mapping)
    dataset_items = [
        Item(id=f"d:{s}", category=mapping[s], subcategory=s, title="t",
             abstract="", category_weights={mapping[s]: 1.0})
        for s in all_subs
    ]
    gen_items = [
        Item(id=f"g:{a}:{b}", category=a, subcategory=f"{a}/generated",
             title="t", abstract="", category_weights={a: 0.5, b: 0.5},
             origin=ORIGIN_GENERATED)
        for a, b in itertools.permutations(cats, 2)
    ]
    sequences = 10_000
    for n in range(sequences):
        network = BeliefNetwork(user_id="u", categories=cats,
                                subcat_to_cat=dict(labels))
        network.recompute()
        for _ in range(int(rng.integers(3, 9))):
            if rng.random() < 0.7:
                network.update_on_feedback(
                    dataset_items[int(rng.integers(len(dataset_items)))])
            else:
                network.update_on_feedback(
                    gen_items[int(rng.integers(len(gen_items)))])
        scratch = BeliefNetwork(user_id="u", categories=cats,
                                subcat_to_cat=dict(network.subcat_to_cat),
                                click_counts=dict(network.click_counts))
        scratch.recompute()
        for cat in cats:
            err = abs(network.belief[cat] - scratch.belief[cat])
            worst = max(worst, err)
            if err > 1e-9:
                ok = False
    elapsed = time.perf_counter() - t0
    report(capsys, 1, ok,
           f"entropy identities and {sequences} incremental-vs-scratch "
           f"sequences, max err {worst:.2e} (tol 1e-9)", elapsed, 5.0)


def test_criterion_02_pure_cb_locks_biased_user_in(capsys, corpus20, assets20):
    """Content-based feeds for a biased user stay inside one category:
    per-feed coverage exactly 1/17 for all 10 feeds."""
    t0 = time.perf_counter()
    config = SimConfig(model="cb", k=10, feeds=10, seed=0, users=("u0000",))
    run = run_loop(config, corpus20, assets20)
    series = run.coverage_series("u0000")
    total = sum(series)
    ok = len(series) == 10
    ok &= all(abs(c - 1 / 17) <= 1e-12 for c in series)
    ok &= abs(total - 10 / 17) <= 1e-9
    elapsed = time.perf_counter() - t0
    report(capsys, 2, ok,
           f"10 feeds at coverage 1/17 each, sum {total:.6f} (expect 0.588235)",
           elapsed, 10.0)


def test_criterion_03_mixing_lifts_coverage(capsys, corpus20, assets20):
    """At w=0.6 the mixed feeds beat their pure baselines on summed coverage
    across 20 seeds: cb_w by >= 50%, uc_w by >= 10%."""
    t0 = time.perf_counter()
    config = SimConfig(w=0.6, k=10, feeds=10, users=("u0000",))
    totals = {m: 0.0 for m in ("cb", "cb_w", "uc", "uc_w")}
    for seed in range(20):
        for model in totals:
            run = run_loop(
                SimConfig(model=model, w=0.6, k=10, feeds=10, seed=seed,
                          users=("u0000",)), corpus20, assets20)
            totals[model] += sum(run.coverage_series("u0000"))
    cb_gain = 100.0 * (totals["cb_w"] - totals["cb"]) / totals["cb"]
    uc_gain = 100.0 * (totals["uc_w"] - totals["uc"]) / totals["uc"]
    ok = cb_gain >= 50.0 and uc_gain >= 10.0
    elapsed = time.perf_counter() - t0
    report(capsys, 3, ok,
           f"20-seed coverage gain cb_w {cb_gain:+.1f}% (need >= +50%), "
           f"uc_w {uc_gain:+.1f}% (need >= +10%)", elapsed, 120.0)


def test_criterion_04_nudging_moves_beliefs_the_right_way(capsys, corpus20,
                                                          assets20):
    """A nudged short-path user gains belief in the disinterest category
    (strictly, final vs first checkpoint) without the interest category
    growing more than 5%, in >= 18 of 20 seeds each."""
    t0 = time.perf_counter()
    state = prepare(SimConfig(model="cb"), corpus20, assets20)
    target = state.classification.fb_users[0]
    interest, disinterest = select_endpoints(
        state.networks[target], state.classification.extremes[target])

    dis_up = 0
    int_ok = 0
    for seed in range(20):
        run = run_loop(
            SimConfig(model="cb_w", w=0.4, k=10, feeds=100, seed=seed,
                      users=(target,), max_path_len=3), corpus20, assets20)
        points = run.checkpoints[target]
        first_step, first = points[0]
        last_step, last = points[-1]
        assert (first_step, last_step) == (10, 100)
        if last[disinterest] > first[disinterest]:
            dis_up += 1
        if first[interest] > 0 and \
                (last[interest] - first[interest]) / first[interest] <= 0.05:
            int_ok += 1
    ok = dis_up >= 18 and int_ok >= 18
    elapsed = time.perf_counter() - t0
    report(capsys, 4, ok,
           f"user {target} ({interest}->{disinterest}): disinterest up in "
           f"{dis_up}/20 seeds (need >= 18), interest growth <= 5% in "
           f"{int_ok}/20 (need >= 18)", elapsed, 120.0)


def test_criterion_05_nudging_clears_bubbles_no_slower_than_baselines(
        capsys, corpus30, assets30):
    """After 10 feeds to the bubble-affected cohort, the population fb-count
    under each mixed model is <= its paired pure baseline in >= 18/20 seeds."""
    t0 = time.perf_counter()
    state = prepare(SimConfig(model="cb"), corpus30, assets30)
    cohort = state.classification.fb_users
    assert len(cohort) == 10

    pairs = (("rd", "rd_w"), ("cb", "cb_w"), ("uc", "uc_w"))
    wins = {mixed: 0 for _, mixed in pairs}
    for seed in range(20):
        finals = {}
        for model in ("rd", "rd_w", "cb", "cb_w", "uc", "uc_w"):
            run = run_loop(
                SimConfig(model=model, w=0.6, k=5, feeds=10, seed=seed,
                          users=cohort, track_fb=True), corpus30, assets30)
            finals[model] = run.fb_counts[-1][1]
        for base, mixed in pairs:
            if finals[mixed] <= finals[base]:
                wins[mixed] += 1
    ok = all(w >= 18 for w in wins.values())
    elapsed = time.perf_counter() - t0
    report(capsys, 5, ok,
           "final fb-count mixed <= baseline in "
           + ", ".join(f"{m} {w}/20" for m, w in wins.items())
           + " seeds (need >= 18 each)", elapsed, 180.0)


def test_criterion_06_next_hop_matches_brute_force(capsys):
    """Greedy hop choice equals exhaustive argmax (with lexicographic tie
    break) on 1000 random graphs of up to 8 nodes."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(61)
    checked = 0
    ok = True
    for _ in range(1000):
        n = int(rng.integers(2, 9))
        cats = [f"c{k}" for k in range(n)]
        # coarse values make score ties common, exercising the tie break
        table = {pair: float(rng.integers(0, 5)) / 4.0
                 for pair in itertools.combinations(cats, 2)}
        graph = TableGraph(cats, table)
        network = TableNetwork({c: float(rng.integers(0, 5)) / 4.0 for c in cats})
        ledger = RejectionLedger(theta=0)
        for pair in itertools.combinations(cats, 2):
            if rng.random() < 0.25:
                record_rejection(ledger, path_of(*pair))
        current = cats[int(rng.integers(n))]
        others = [c for c in cats if c != current]
        visited = {c for c in others[1:] if rng.random() < 0.3}
        visited.add(current)

        expect = brute_force_next_hop(graph, current, network, ledger, visited)
        got = next_hop(graph, current, network, ledger, visited)
        checked += 1
        if got != expect:
            ok = False
            break
    elapsed = time.perf_counter() - t0
    report(capsys, 6, ok,
           f"next hop equals brute-force argmax on {checked}/1000 random "
           f"graphs (<= 8 nodes, ties included)", elapsed, 10.0)


def test_criterion_07_binary_split_and_rejection_exhaustion(capsys):
    """The split table for path lengths 2..9 is exactly as specified, and a
    user who rejects everything on an 8-node path reaches a reschedule within
    15 generation steps even with an infinite rejection tolerance."""
    t0 = time.perf_counter()
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
    ok = True
    for length, keys in expect.items():
        halves = path_of(*nodes[:length]).halves
        got = None if halves is None else tuple(h.key for h in halves)
        if got != keys:
            ok = False

    cats = tuple(f"n{i}" for i in range(8))
    table = {pair: 0.5 for pair in itertools.combinations(cats, 2)}
    graph = TableGraph(cats, table)
    path = path_of(*cats)
    # n7 extreme-high, n0 extreme-low, the rest normal
    session = NudgeSession(user_id="u", path=path, queue=initial_queue(path),
                           ledger=RejectionLedger(theta=float("inf")),
                           extremes=(("n7",), ("n0",)))
    generator = TemplateGenerator({})
    belief_net = BeliefNetwork(
        user_id="u", categories=cats,
        subcat_to_cat={f"{c}/s": c for c in cats})
    for i, c in enumerate(cats):
        belief_net.add_click_mass(f"{c}/s", float(i + 1))
    belief_net.recompute()

    steps = 0
    status = ""
    while steps < 15:
        item = _generate_for(session, pending_prompts(session, 1)[0], generator)
        steps += 1
        status = apply_feedback(session, item, False, graph, belief_net)
        if status.endswith(("rescheduled", "terminal")):
            break
    ok &= status.endswith("rescheduled")   # infinite theta never exhausts
    ok &= steps <= 15
    elapsed = time.perf_counter() - t0
    report(capsys, 7, ok,
           f"split table exact for lengths 2..9; reject-everything run hit "
           f"'{status}' after {steps} steps (need <= 15)", elapsed, 5.0)


def test_criterion_08_ks_calibration(capsys):
    """The KS normality test accepts true-normal samples (p > 0.05 in at
    least 90 of 100 trials at n=1000) and scores exact normal quantiles at
    the theoretical minimum statistic 0.5/n."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(81)
    accepted = 0
    for _ in range(100):
        xs = rng.normal(0.0, 1.0, size=1000)
        if ks_normality(xs, 0.0, 1.0).p_value > 0.05:
            accepted += 1

    n = 100
    quantiles = scipy.stats.norm.ppf((np.arange(1, n + 1) - 0.5) / n)
    stat = ks_normality(quantiles, 0.0, 1.0).statistic
    ok = accepted >= 90 and stat <= 0.005 + 1e-12
    elapsed = time.perf_counter() - t0
    report(capsys, 8, ok,
           f"p > 0.05 in {accepted}/100 N(0,1) trials (need >= 90); exact "
           f"quantile statistic {stat:.6f} (need <= 0.005)", elapsed, 10.0)


def test_criterion_09_reproducibility(capsys, corpus20, assets20, tmp_path):
    """The coverage experiment writes byte-identical CSVs on repeated runs,
    and steps that visit their users in reverse order reproduce the
    forward-order results exactly."""
    t0 = time.perf_counter()
    config = SimConfig(w=0.6, k=10, feeds=10, seed=0, synth=SPEC20)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    out_a.mkdir()
    out_b.mkdir()
    experiment_coverage(config, str(out_a))
    experiment_coverage(config, str(out_b))
    identical = (out_a / "coverage.csv").read_bytes() == \
        (out_b / "coverage.csv").read_bytes()

    state = prepare(SimConfig(model="cb"), corpus20, assets20)
    cohort = state.classification.fb_users
    run_config = SimConfig(model="cb_w", w=0.6, k=10, feeds=5, seed=3,
                           users=cohort)
    forward = run_loop(run_config, corpus20, assets20)
    with pytest.MonkeyPatch.context() as mp:
        reverse_user_order(mp)
        backward = run_loop(run_config, corpus20, assets20)
    same_runs = forward.steps == backward.steps and \
        forward.checkpoints == backward.checkpoints
    ok = identical and same_runs
    elapsed = time.perf_counter() - t0
    report(capsys, 9, ok,
           f"coverage.csv byte-identical: {identical}; reversed user order "
           f"== forward order over {len(cohort)} users: {same_runs}",
           elapsed, 60.0)


def test_criterion_10_classifier_matches_brute_force(capsys):
    """Two-sigma classification (every label and every user's extremes)
    equals an independent numpy implementation on 50 random populations, and
    a mu=1.0 sigma=0.45 population yields the 0.1 / 1.9 thresholds."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    ok = True
    for _ in range(50):
        n_users = int(rng.integers(8, 31))
        cats = tuple(f"c{k}" for k in range(int(rng.integers(1, 6))))
        beliefs = {
            f"u{i:02d}": {c: float(np.round(rng.gamma(2.0, 0.5), 3))
                          for c in cats if rng.random() < 0.9}
            for i in range(n_users)
        }
        ours = classify_users(beliefs, cats)
        extremes_ref, fb_ref = brute_force_classify(beliefs, cats)
        # every user's labels: the categories absent from both are normal
        if ours.extremes != extremes_ref or ours.fb_users != fb_ref:
            ok = False

    # half the users at 0.55 and half at 1.45: mu = 1.0, sigma = 0.45
    beliefs = {f"u{i}": {"a": 0.55 if i < 4 else 1.45} for i in range(8)}
    stats = classify_users(beliefs, ("a",)).stats["a"]
    lo, hi = stats.low_threshold, stats.high_threshold
    ok &= abs(stats.mu - 1.0) <= 1e-12 and abs(stats.sigma - 0.45) <= 1e-12
    ok &= abs(lo - 0.1) <= 0.05 and abs(hi - 1.9) <= 0.05
    elapsed = time.perf_counter() - t0
    report(capsys, 10, ok,
           f"classifier == brute force on 50 populations; thresholds "
           f"lo {lo:.3f} (expect 0.1), hi {hi:.3f} (expect 1.9)", elapsed, 10.0)
