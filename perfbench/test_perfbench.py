"""Tests of the benchmark itself, on a corpus small enough to run in seconds.

    python3 -m pytest perfbench
"""

import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import bench  # noqa: E402
import spans  # noqa: E402

TINY_SPEC = dict(n_users=12, bias_profile=4, n_items=340)
TINY = bench.Workload("tiny", TINY_SPEC, dict(model="uc_w", w=0.6, k=5, feeds=4),
                      False, 2, 2)
TINY_NUDGE = bench.Workload("tiny_nudge", TINY_SPEC,
                            dict(model="bheisr", k=5, feeds=12), True, 2, 2)


def test_traced_runs_repeat_counts_and_digests():
    for workload in (TINY, TINY_NUDGE):
        first, tally_a, _ = bench.measure_traced(workload, 0, 60)
        second, tally_b, _ = bench.measure_traced(workload, 0, 60)
        assert tally_a.failed == tally_b.failed == 0, tally_a.problems + tally_b.problems
        assert tally_a.digests == tally_b.digests
        counts = [name for name, (_, unit) in first.items() if unit != "s"
                  and name != "trace.user_steps_per_s_delta"]
        assert counts
        assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
        assert first["simulate.decisions"][0] > 0


def test_traced_and_untraced_digests_agree():
    # measure_traced judges untraced and traced loops with one Tally, so any
    # difference would count as a failure; compare with a fresh untraced run too
    _, traced, _ = bench.measure_traced(TINY_NUDGE, 1, 60)
    _, _, untraced = bench.measure(TINY_NUDGE, 1, 60)
    assert traced.failed == untraced.failed == 0
    assert traced.attempted == 1 + 2 * bench.TRACED_PAIRS
    run_seed = bench.sub_run_seed(1, 0)
    assert traced.digests[run_seed] == untraced.digests[run_seed]


def test_runs_measure_fixed_work_within_their_cap():
    metrics, samples, tally = bench.measure(TINY, 0, 60)
    assert tally.failed == 0, tally.problems
    loops = TINY.passes * TINY.sub_runs
    assert tally.attempted == len(samples["user_steps_per_s"]) == loops
    assert len(samples["setup_s"]) == loops
    # every sub-run repeats its digest in every pass
    assert len(tally.digests) == TINY.sub_runs
    rates = samples["user_steps_per_s"]
    assert min(rates) <= metrics["user_steps_per_s"][0] <= max(rates)
    # over the cap: the run stops after its first loop and fails
    metrics, _, tally = bench.measure(TINY, 0, 0)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert "cap" in tally.problems[0]
    assert metrics["user_steps_per_s"][0] is None
    metrics, tally, _ = bench.measure_traced(TINY, 0, 0)
    assert (tally.attempted, tally.failed) == (3, 1)
    assert "cap" in tally.problems[0] and metrics == {}


def test_entry_points_restored_after_traced_run():
    originals = [vars(owner)[attr] for owner, attr, _, _ in spans.ENTRY_POINTS]
    tracer = spans.Tracer()
    bench.measure_traced(TINY, 0, 60, tracer)
    assert tracer.spans
    after = [vars(owner)[attr] for owner, attr, _, _ in spans.ENTRY_POINTS]
    assert all(a is b for a, b in zip(originals, after))


def test_entry_points_restored_when_the_loop_raises():
    tracer = spans.Tracer()
    original = vars(spans.simulate)["decide"]
    try:
        with tracer.installed():
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    assert vars(spans.simulate)["decide"] is original


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    self_s, counts = tracer.take()
    by_name = {s[2]: s for s in tracer.spans}
    outer_span = by_name["outer"]
    assert counts == {"inner_calls": 3, "outer_calls": 1}
    assert all(s[5] == outer_span[1] for s in tracer.spans if s[2] == "inner")
    covered = sum(s[4] - s[3] for s in tracer.spans if s[2] == "inner")
    assert abs(self_s["outer"] - (outer_span[4] - outer_span[3] - covered)) < 1e-9


def test_digest_sees_every_decision():
    _, corpus, assets = bench.build_inputs(TINY, 0)
    config = bench.make_config(TINY, 0, corpus, assets)
    record = bench.simulate.run_loop(config, corpus, assets)
    assert bench.check_record(record, config, corpus) == []
    before = bench.digest(record)
    rec = record.steps[-1][0]
    first = rec.decisions[0]
    nudged = replace(first, draw=math.nextafter(first.draw, 1.0))
    record.steps[-1][0] = replace(rec, decisions=(nudged,) + rec.decisions[1:])
    assert bench.digest(record) != before


def test_check_record_flags_a_reappearing_item():
    _, corpus, assets = bench.build_inputs(TINY, 0)
    config = bench.make_config(TINY, 0, corpus, assets)
    record = bench.simulate.run_loop(config, corpus, assets)
    user = record.users[0]
    seen = next(x.item_id for x in corpus.interactions
                if x.user_id == user and corpus.interested(x))
    rec = record.steps[0][0]
    record.steps[0][0] = replace(rec, item_ids=(seen,) + rec.item_ids[1:])
    assert any("shown again" in p for p in bench.check_record(record, config, corpus))


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    traced, _, _ = bench.measure_traced(TINY, 0, 60)
    assert [m["name"] for m in spec["per_layer"]] == list(traced)
    assert all(traced[m["name"]][1] == m["unit"] for m in spec["per_layer"])
    plain, _, _ = bench.measure(TINY, 0, 60)
    assert [m["name"] for m in spec["end_to_end"]] == list(plain)
    assert all(plain[m["name"]][1] == m["unit"] for m in spec["end_to_end"])


def test_refuses_to_run_without_the_package(tmp_path):
    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    for name in os.listdir(HERE):
        if name.endswith((".py", ".json")):
            shutil.copy(os.path.join(HERE, name), bench_dir)
    done = subprocess.run(
        [sys.executable, str(bench_dir / "run.py"), "--workload", "nudge",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
