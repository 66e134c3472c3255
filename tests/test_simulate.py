"""Simulation loop determinism, bookkeeping, and the four experiments."""

import csv
import json
import math
import re
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bheisr import detection, nudge, recommenders, simulate
from bheisr.belief import build_all
from bheisr.corpus import ORIGIN_GENERATED, Item, SynthSpec, corpus_to_json, \
    save_corpus, synth_corpus
from bheisr.features import CategoryGraph, GraphUpdateBuffer, ItemTable
from bheisr.rng import substream
from bheisr.simulate import (
    MODELS,
    SimConfig,
    build_assets,
    build_corpus,
    checkpoint_steps,
    decide,
    experiment_coverage,
    experiment_fb_count,
    experiment_trajectory,
    experiment_w_sweep,
    W_VALUES,
    prepare,
    run_loop,
    write_run,
)
from oracle import corpus_of, reverse_user_order, spy_featurize_texts, tokenize

# no bubble-affected users: enough for loop mechanics
PLAIN_SPEC = SynthSpec(n_users=12, n_categories=6, subcats_per_category=2,
                       n_items=120, bias_profile=0, seed=0)
# separates all five biased users at two sigma
FB_SPEC = SynthSpec(n_users=16, n_categories=10, subcats_per_category=2,
                    n_items=400, bias_profile=5, seed=0)

FB_USERS = tuple(f"u{j:04d}" for j in range(FB_SPEC.n_users))


@pytest.fixture(scope="module")
def fb_corpus():
    return synth_corpus(FB_SPEC)


@pytest.fixture(scope="module")
def fb_assets(fb_corpus):
    return build_assets(fb_corpus)


class TestCheckpointSteps:
    def test_short_runs_checkpoint_every_step(self):
        assert checkpoint_steps(5) == (1, 2, 3, 4, 5)
        assert checkpoint_steps(20) == tuple(range(1, 21))

    def test_long_runs_checkpoint_every_ten(self):
        assert checkpoint_steps(100) == tuple(range(10, 101, 10))
        assert checkpoint_steps(25) == (10, 20, 25)
        assert checkpoint_steps(21) == (10, 20, 21)


class TestDecide:
    def test_passes_ap_and_draw_through(self):
        assert decide(1.0, 0.5) == (True, 1.0, 0.5)
        assert decide(0.25, 0.5) == (False, 0.25, 0.5)

    def test_accept_iff_draw_below_probability(self):
        class Network:
            belief = {"a": 3.0, "b": 1.0}

        class Item:
            category_weights = {"a": 1.0}

        ap = recommenders.acceptance_share(Item(), Network(), 4.0)
        assert ap == pytest.approx(0.75)
        accepted, _, _ = decide(ap, 0.74)
        assert accepted
        accepted, _, _ = decide(ap, 0.75)
        assert not accepted   # strict inequality


class TestBuildCorpus:
    def test_synth_spec_wins(self):
        corpus = build_corpus(SimConfig(synth=PLAIN_SPEC))
        assert len(corpus.items) == PLAIN_SPEC.n_items

    def test_json_dataset(self, tmp_path):
        corpus = synth_corpus(PLAIN_SPEC)
        path = tmp_path / "corpus.json"
        save_corpus(corpus, str(path))
        loaded = build_corpus(SimConfig(dataset=str(path)))
        assert loaded.users == corpus.users

    def test_requires_some_source(self):
        with pytest.raises(ValueError, match="dataset path or a synth spec"):
            build_corpus(SimConfig())


class TestPrepare:
    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown model"):
            prepare(SimConfig(model="zz", synth=PLAIN_SPEC))

    @pytest.mark.parametrize("field, value, message", [
        ("feeds", -3, "feeds must be positive"),
        ("feeds", 0, "feeds must be positive"),
        ("theta", -1.0, "theta must be non-negative"),
        ("theta", math.nan, "theta must be non-negative"),
        ("w", math.nan, r"w must be in \[0, 1\]"),
        ("users", ("u0000", "u0000"), "duplicate user"),
        # `--users ,` or a config file's `users=` used to feed everyone
        ("users", (), "leave it unset to feed everyone"),
        ("seed", -1, "seed must be non-negative"),
        ("queue_discipline", "bogus", "unknown queue discipline"),
        ("max_path_len", 0, "max_path_len must be positive"),
        ("max_path_len", -1, "max_path_len must be positive"),
        # a config file's `generator.url=` used to mean the template
        ("generator_url", "", "generator_url is empty"),
        ("generator_timeout_ms", 0, "generator_timeout_ms must be positive"),
        ("generator_retries", -1, "generator_retries must be non-negative"),
        ("parallel", True, "parallel is not supported: runs are serial"),
        # each of these used to pass validate() and then fail mid-run, or
        # run on a value other than the one recorded
        ("k", 2.5, "k must be an integer, got 2.5"),
        ("k", True, "k must be an integer, got True"),
        ("feeds", 2.5, "feeds must be an integer"),
        ("seed", 1.5, "seed must be an integer"),
        ("max_path_len", 2.0, "max_path_len must be an integer"),
        ("generator_timeout_ms", 100.0, "generator_timeout_ms must be an integer"),
        ("generator_retries", "2", "generator_retries must be an integer"),
        ("w", True, "w must be a number, got True"),
        ("theta", "2", "theta must be a number"),
        ("users", "u0001", "users must be a list of user ids"),
        ("users", ("u0001", 2), "users must be a list of user ids"),
        ("dataset_format", "xml", "unknown dataset format 'xml'"),
        # each of these used to pass validate(), or fail with a TypeError
        ("track_fb", "no", "track_fb must be true or false, got 'no'"),
        ("parallel", 0, "parallel must be true or false"),
        ("target_user", 5, "target_user must be a string, got 5"),
        ("synth", 5, "synth must be a SynthSpec, got 5"),
        ("dataset", 5, "dataset must be a string, got 5"),
        ("model", ["cb"], r"model must be a string, got \['cb'\]"),
        ("model", None, "model must be a string, got None"),
        ("generator_url", True, "generator_url must be a string, got True"),
        # `--target-user ""` used to mean the default user
        ("target_user", "", "target_user is empty"),
    ])
    def test_bad_values_rejected(self, field, value, message):
        # the config names no corpus, so the value must be caught before any
        # corpus is built
        with pytest.raises(ValueError, match=message):
            prepare(SimConfig(**{field: value}))

    def test_dataset_and_synth_together_rejected(self):
        # the synth spec used to win silently
        with pytest.raises(ValueError, match="either dataset or synth, not both"):
            prepare(SimConfig(dataset="corpus.json", synth=PLAIN_SPEC))

    @pytest.mark.parametrize("fmt", ["json", "imdb_csv"])
    def test_dataset_format_with_synth_rejected(self, fmt):
        # the format used to be ignored silently, the default json included
        with pytest.raises(ValueError, match="dataset_format applies only to "
                                             "dataset, not synth"):
            prepare(SimConfig(dataset_format=fmt, synth=PLAIN_SPEC))

    def test_boundary_values_accepted(self):
        SimConfig(queue_discipline="replace", max_path_len=1, generator_retries=0,
                  generator_timeout_ms=1, generator_url="http://localhost:1",
                  theta=0.0, parallel=False).validate()
        # any integral value is an integer and any real value a number
        SimConfig(k=np.int64(3), seed=np.uint8(1), w=1, theta=np.float32(0.5),
                  users=["u0000"], dataset_format="mind_tsv").validate()

    def test_fed_users_decided_once(self, fb_corpus, fb_assets):
        config = SimConfig(model="rd", users=["u0009", "u0002"])
        assert prepare(config, fb_corpus, fb_assets).users == ("u0009", "u0002")
        state = prepare(SimConfig(model="rd"), fb_corpus, fb_assets)
        assert state.users == fb_corpus.users

    def test_unknown_target_user_rejected(self, fb_corpus, fb_assets):
        # simulate and experiment 3 used to run on, ignoring the target
        with pytest.raises(ValueError, match="unknown user 'nobody'"):
            prepare(SimConfig(target_user="nobody"), fb_corpus, fb_assets)
        config = SimConfig(target_user="u0003")
        assert prepare(config, fb_corpus, fb_assets).users == fb_corpus.users

    def test_index_of_another_corpus_rejected(self, fb_corpus, fb_assets):
        with pytest.raises(ValueError, match="candidate index was built from "
                                             "another corpus"):
            prepare(SimConfig(model="cb_w"), synth_corpus(PLAIN_SPEC), fb_assets)

    def test_sessions_only_for_fb_users_in_scope(self, fb_corpus, fb_assets):
        config = SimConfig(model="cb_w", users=("u0000", "u0009"))
        state = prepare(config, fb_corpus, fb_assets)
        assert set(state.sessions) == {"u0000"}   # u0009 is not bubble-affected
        assert state.classification.fb_users == tuple(f"u{i:04d}" for i in range(5))

    def test_population_of_exactly_min_population_is_classified(self):
        # two-sigma classification needs MIN_POPULATION users with history:
        # that many are classified, one fewer are not
        for n, classified in ((detection.MIN_POPULATION, True),
                              (detection.MIN_POPULATION - 1, False)):
            corpus = synth_corpus(replace(PLAIN_SPEC, n_users=n))
            _, result = simulate.build_population(corpus)
            assert (result is not None) is classified
            assert classified is False or set(result.extremes) == set(corpus.users)

    def test_pure_baselines_get_no_sessions(self, fb_corpus, fb_assets):
        state = prepare(SimConfig(model="uc"), fb_corpus, fb_assets)
        assert state.sessions == {}
        assert not state.with_bheisr

    def test_bheisr_model_forces_full_weight(self, fb_corpus, fb_assets):
        state = prepare(SimConfig(model="bheisr", w=0.3), fb_corpus, fb_assets)
        assert state.w_eff == 1.0
        assert state.ctx.baseline == "rd"

    def test_set_up_builds_no_feature_vector(self, fb_corpus, monkeypatch):
        # corpus item vectors live only as candidate index rows: the set-up
        # featurizes the catalog once, and prepare featurizes nothing
        calls = spy_featurize_texts(monkeypatch)
        assets = build_assets(fb_corpus)
        for model in ("bheisr", "cb_w", "uc_w"):
            prepare(SimConfig(model=model, track_fb=True), fb_corpus, assets)
        assert calls == [[tokenize(it.text()) for it in fb_corpus.items.values()]]

    def test_corpus_without_categories_rejected(self):
        # coverage is a share of the categories: a run used to stop at its
        # first record on a ZeroDivisionError
        corpus = corpus_of({}, [], {}, ("u0",))
        with pytest.raises(ValueError, match="the corpus has no categories"):
            prepare(SimConfig(model="rd"), corpus)

    def test_model_table(self):
        assert set(MODELS) == {"rd", "rd_w", "cb", "cb_w", "uc", "uc_w", "bheisr"}
        assert all(base in ("rd", "cb", "uc") for base, _, _, _ in MODELS.values())


class TestRunLoop:
    def config(self, **kw):
        base = dict(model="cb_w", w=0.6, k=6, feeds=4, seed=1,
                    users=("u0000", "u0001"))
        base.update(kw)
        return SimConfig(synth=FB_SPEC, **base)

    def test_identical_reruns(self, fb_corpus):
        # a run leaves the shared assets as it found them: the candidate
        # index's entries are bit for bit the same after a cb_w run, whose
        # accepts append generated rows to the run's item table, and a rerun
        # on the same assets equals a run on fresh ones
        assets = build_assets(fb_corpus)
        before = [array.copy() for array in assets.entries]
        a = run_loop(self.config(), fb_corpus, assets)
        assert all(np.array_equal(was, now) and was.dtype == now.dtype
                   for was, now in zip(before, assets.entries))
        b = run_loop(self.config(), fb_corpus, assets)
        fresh = run_loop(self.config(), fb_corpus, build_assets(fb_corpus))
        for run in (b, fresh):
            assert a.steps == run.steps
            assert a.checkpoints == run.checkpoints
        assert any(d.accepted and d.origin == ORIGIN_GENERATED
                   for recs in a.steps for r in recs for d in r.decisions)

    @pytest.mark.parametrize("model", ["bheisr", "cb_w"])
    def test_no_generated_id_resolves_to_an_index_row(
            self, fb_corpus, fb_assets, model, monkeypatch):
        # a generated item takes the table row of its text, after the index
        # rows (Corpus.validate rejects a corpus item named as a generated one)
        generated, states = [], []
        generate, prep = nudge._generate_for, simulate.prepare
        monkeypatch.setattr(nudge, "_generate_for", lambda *args: (
            generated.append(generate(*args)) or generated[-1]))
        monkeypatch.setattr(simulate, "prepare", lambda *args: (
            states.append(prep(*args)) or states[-1]))
        run_loop(self.config(users=None, model=model, feeds=6), fb_corpus,
                 fb_assets)
        (state,) = states
        table, n = state.ctx.table, len(fb_assets.ids)
        assert generated and all(it.id.startswith("gi:") for it in generated)
        assert not any(it.id in table.index.pos for it in generated)
        assert (table.rows(generated) >= n).all()

    def test_external_generator_is_asked_only_for_accepted_items(
            self, fb_corpus, fb_assets, monkeypatch):
        # a generated item's text is generated when the barrier reads it,
        # which it does for accepted items only; an endpoint that always
        # fails leaves the template's text, so the record is the template's,
        # and after the first item's retries the run posts no more
        generate = nudge._generate_for

        def run(reverse):
            prompts, posts, generated, generators = [], [], {}, []

            class Recording(nudge.ExternalGenerator):
                def generate(self, prompt_categories, seed=0):
                    generators.append(self)
                    prompts.append(tuple(prompt_categories))
                    return super().generate(prompt_categories, seed)

            def post(url, json, timeout):
                posts.append(tuple(json["prompt_categories"]))
                raise OSError("endpoint down")

            def record(session, prompt, generator):
                item = generate(session, prompt, generator)
                generated[item.id] = item
                return item

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(nudge, "ExternalGenerator", partial(Recording, post=post))
                mp.setattr(nudge, "_generate_for", record)
                if reverse:
                    reverse_user_order(mp)
                result = run_loop(external, fb_corpus, fb_assets)
            assert posts == prompts[:1] * 2                  # retries + 1, once
            assert all(g is generators[0] for g in generators)
            assert generators[0].fallback_count == len(prompts)
            return result, prompts, generated

        config = self.config(users=None, model="bheisr", feeds=8, seed=3)
        external = replace(config, generator_url="http://gen",
                           generator_retries=1)
        forward, prompts, generated = run(False)
        accepted = [generated[d.item_id].prompt.nodes for recs in forward.steps
                    for r in recs for d in r.decisions
                    if d.accepted and d.origin == ORIGIN_GENERATED]
        assert len(accepted) > 1 and len(generated) > len(accepted)
        assert sorted(prompts) == sorted(accepted)       # once each
        assert repr(forward) == repr(run_loop(config, fb_corpus, fb_assets))
        # the barrier reads text in user order, whatever order a step
        # visited its users in
        backward, backward_prompts, _ = run(True)
        assert backward == forward
        assert backward_prompts == prompts

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**16), model=st.sampled_from(sorted(MODELS)),
           w=st.floats(0.0, 1.0))
    @example(seed=1, model="cb_w", w=0.6)
    def test_reversed_user_order_matches_forward(self, fb_corpus, fb_assets,
                                                 seed, model, w):
        # users share no state inside a step, so a step block that visits
        # its users last to first changes no record
        config = self.config(users=None, model=model, w=w, seed=seed,
                             trace_paths=True)
        forward = run_loop(config, fb_corpus, fb_assets)
        with pytest.MonkeyPatch.context() as mp:
            reverse_user_order(mp)
            backward = run_loop(config, fb_corpus, fb_assets)
        assert forward.steps == backward.steps
        assert forward.checkpoints == backward.checkpoints
        assert forward.path_traces == backward.path_traces

    @pytest.mark.parametrize("model", ["bheisr", "uc_w"])
    def test_draws_are_the_scalar_stream_in_item_order(self, fb_corpus,
                                                        fb_assets, model):
        # a user-step draws its uniforms in one call; they are the doubles
        # of one scalar call per item on the user-step's stream
        run = run_loop(self.config(users=None, model=model), fb_corpus,
                       fb_assets)
        n = 0
        for recs in run.steps:
            for rec in recs:
                rng = substream(run.seed, "decide", rec.user_id, rec.step)
                assert [d.draw for d in rec.decisions] == \
                    [rng.random() for _ in rec.decisions]
                n += len(rec.decisions)
        assert n == run.k * len(run.users) * len(run.steps)

    @pytest.mark.parametrize("model", ["bheisr", "uc_w"])
    def test_records_do_not_depend_on_blocks_or_user_order(self, fb_corpus,
                                                           fb_assets, model):
        # a step block runs phase by phase over its users; neither the block
        # size nor the order of its users changes a record
        config = self.config(users=None, model=model, feeds=5, track_fb=True,
                             trace_paths=True)
        forward = run_loop(config, fb_corpus, fb_assets)
        assert forward.path_traces or model != "bheisr"
        for batch in (simulate.BATCH_USERS, 1, 3):
            for reverse in (False, True):
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(simulate, "BATCH_USERS", batch)
                    if reverse:
                        reverse_user_order(mp)
                    run = run_loop(config, fb_corpus, fb_assets)
                assert run == forward, (batch, reverse)

    @pytest.mark.parametrize("model", ["bheisr", "cb_w"])
    def test_loop_featurizes_each_accepted_generated_text_once(
            self, fb_corpus, fb_assets, model, monkeypatch):
        # the template generator featurizes its exemplars in one call; then
        # each flush featurizes just the accepted generated texts the run has
        # not met before, so over the run every such text is one row
        generated = {}
        generate = nudge._generate_for

        def record(session, prompt, generator):
            item = generate(session, prompt, generator)
            generated[item.id] = item
            return item

        monkeypatch.setattr(nudge, "_generate_for", record)
        calls = spy_featurize_texts(monkeypatch)
        run = run_loop(self.config(users=None, model=model, feeds=6), fb_corpus,
                       fb_assets)
        accepted = {generated[d.item_id].text() for recs in run.steps
                    for r in recs for d in r.decisions
                    if d.accepted and d.origin == ORIGIN_GENERATED}
        assert len(accepted) > 1
        exemplars = simulate._collect_exemplars(fb_corpus)
        assert calls[0] == [tokenize(it.text())
                            for items in exemplars.values() for it in items]
        flushed = [tuple(tokens) for call in calls[1:] for tokens in call]
        assert sorted(flushed) == sorted(tuple(tokenize(t)) for t in accepted)
        assert sum(map(len, calls)) == \
            len(accepted) + sum(map(len, exemplars.values()))

    @pytest.mark.parametrize("model,seed", [("uc", 0), ("uc_w", 1), ("uc_w", 7)])
    def test_batched_uc_ranking_changes_no_record(self, fb_corpus, fb_assets,
                                                  model, seed):
        config = self.config(users=None, model=model, seed=seed,
                             trace_paths=True, track_fb=True)
        certified = []
        best = recommenders._certified_uc_best

        def counted(*args):
            result = best(*args)
            certified.append(result is not None)
            return result

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(recommenders, "_certified_uc_best", counted)
            batched = run_loop(config, fb_corpus, fb_assets)
            # blocks of 3 users
            mp.setattr(simulate, "BATCH_USERS", 3)
            blocked = run_loop(config, fb_corpus, fb_assets)
        # every user-step tried the batched row, but for the lone user of
        # the last block of 3, and both outcomes occurred
        assert len(certified) == config.feeds * (2 * len(fb_corpus.users) - 1)
        assert 0 < sum(certified) < len(certified)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulate.FeedContext, "batch_neighbor_mass",
                       lambda ctx, users: None)
            exact = run_loop(config, fb_corpus, fb_assets)
        for run in (batched, blocked):
            assert run == exact

    def test_seed_changes_decisions(self, fb_corpus, fb_assets):
        a = run_loop(self.config(seed=1), fb_corpus, fb_assets)
        b = run_loop(self.config(seed=2), fb_corpus, fb_assets)
        draws_a = [d.draw for recs in a.steps for r in recs for d in r.decisions]
        draws_b = [d.draw for recs in b.steps for r in recs for d in r.decisions]
        assert draws_a != draws_b

    def test_feed_shape_and_mix(self, fb_corpus, fb_assets):
        run = run_loop(self.config(), fb_corpus, fb_assets)
        for recs in run.steps:
            for rec in recs:
                assert len(rec.item_ids) == 6
                if rec.user_id == "u0000":   # bubble-affected, nudged
                    assert rec.origins.count(ORIGIN_GENERATED) == 4  # round(0.6*6)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**16), model=st.sampled_from(sorted(MODELS)),
           w=st.floats(0.0, 1.0))
    @example(seed=1, model="cb_w", w=0.6)
    def test_accepted_items_never_reappear(self, fb_corpus, fb_assets, seed,
                                           model, w):
        run = run_loop(self.config(feeds=6, model=model, w=w, seed=seed),
                       fb_corpus, fb_assets)
        seeded = build_all(fb_corpus)
        accepted = {u: set(seeded[u].accepted) for u in run.users}
        for recs in run.steps:
            for rec in recs:
                assert accepted[rec.user_id].isdisjoint(rec.item_ids)
            for rec in recs:
                accepted[rec.user_id].update(
                    d.item_id for d in rec.decisions if d.accepted)

    def test_unknown_user_rejected(self, fb_corpus, fb_assets):
        with pytest.raises(ValueError, match="unknown user"):
            run_loop(self.config(users=("ghost",)), fb_corpus, fb_assets)

    def test_unknown_user_rejected_before_any_state_is_built(
            self, fb_corpus, monkeypatch):
        built = []
        monkeypatch.setattr(simulate.CategoryGraph, "build",
                            lambda *args: built.append("graph"))
        monkeypatch.setattr(simulate.belief_mod, "build_all",
                            lambda *args: built.append("networks"))
        with pytest.raises(ValueError, match="unknown user 'nobody'"):
            run_loop(SimConfig(users=("u0000", "nobody")), fb_corpus)
        assert built == []

    def test_duplicate_user_rejected(self, fb_corpus, fb_assets):
        # a repeated id would run two user-steps per step but log only one
        with pytest.raises(ValueError, match="duplicate user"):
            run_loop(self.config(model="rd", feeds=3, users=("u0000", "u0000")),
                     fb_corpus, fb_assets)

    def test_checkpoints_at_expected_steps(self, fb_corpus, fb_assets):
        run = run_loop(self.config(feeds=4), fb_corpus, fb_assets)
        assert [s for s, _ in run.checkpoints["u0000"]] == [1, 2, 3, 4]
        step, beliefs = run.checkpoints["u0000"][-1]
        assert set(beliefs) == set(fb_corpus.taxonomy)

    def test_fb_tracking_includes_initial_count(self, fb_corpus, fb_assets):
        run = run_loop(self.config(track_fb=True), fb_corpus, fb_assets)
        assert run.fb_counts[0] == (0, 5)
        assert len(run.fb_counts) == 5   # initial plus one per feed
        assert run.initial_fb_users == tuple(f"u{i:04d}" for i in range(5))

    def test_fb_tracking_skips_normality_statistics(self, fb_corpus, fb_assets,
                                                     monkeypatch):
        calls = []

        def spy(name, fn):
            def counted(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return counted

        for name in ("ks_normality", "skewness"):
            monkeypatch.setattr(detection, name,
                                spy(name, getattr(detection, name)))
        run = run_loop(self.config(track_fb=True), fb_corpus, fb_assets)
        assert len(run.fb_counts) == 5
        assert calls == []
        # the spies sit where a read of the statistics looks them up
        stats = simulate._classify(fb_corpus, build_all(fb_corpus)).stats
        stats["cat00"].ks, stats["cat00"].skewness
        assert calls == ["ks_normality", "skewness"]

    def test_one_graph_flush_per_step(self, fb_corpus, fb_assets, monkeypatch):
        counts = []
        flush = GraphUpdateBuffer.flush

        def spy(buffer):
            counts.append(flush(buffer))
            return counts[-1]

        monkeypatch.setattr(GraphUpdateBuffer, "flush", spy)
        run = run_loop(self.config(users=None, model="bheisr"), fb_corpus,
                       fb_assets)
        accepts = [sum(d.accepted for rec in recs for d in rec.decisions)
                   for recs in run.steps]
        assert counts == accepts
        assert len(counts) == 4 and sum(counts) > 0

    def test_path_traces_when_requested(self, fb_corpus, fb_assets):
        run = run_loop(self.config(trace_paths=True), fb_corpus, fb_assets)
        assert [t["user"] for t in run.path_traces] == ["u0000", "u0001"]
        assert all("->" in t["path"] for t in run.path_traces)

    def test_coverage_series_helper(self, fb_corpus, fb_assets):
        run = run_loop(self.config(), fb_corpus, fb_assets)
        series = run.coverage_series("u0000")
        assert len(series) == 4
        assert all(0.0 < c <= 1.0 for c in series)


class TestCatalogExhaustion:
    # the fed user accepts every item of a 6-item corpus in its history; with
    # 12 items the run empties the catalog at step 3
    @pytest.mark.parametrize("n_items", [6, 12])
    @pytest.mark.parametrize("model", ["rd", "cb", "uc", "rd_w"])
    def test_empty_feed_is_recorded_and_the_loop_goes_on(self, model, n_items):
        corpus = synth_corpus(SynthSpec(n_users=8, n_categories=3,
                                        subcats_per_category=1, n_items=n_items))
        run = run_loop(SimConfig(model=model, k=n_items, feeds=30,
                                 users=("u0000",)), corpus)
        assert len(run.steps) == 30
        records = [recs[0] for recs in run.steps]
        empty = [rec for rec in records if not rec.item_ids]
        assert empty and records[-1] in empty
        for rec in empty:
            assert rec.decisions == ()
            assert rec.origins == ()
            assert rec.categories == ()
            assert rec.coverage == 0.0


@st.composite
def valid_corpora(draw):
    """Corpora of 0-3 categories, each with 0-2 subcategories, 0-6 items,
    0-10 users and 0-40 log rows of either signal scheme."""
    taxonomy = {f"c{c}": tuple(f"c{c}/s{s}" for s in range(draw(st.integers(0, 2))))
                for c in range(draw(st.integers(0, 3)))}
    pairs = [(c, sub) for c, subs in taxonomy.items() for sub in subs]
    items = {}
    for j in range(draw(st.integers(0, 6)) if pairs else 0):
        cat, sub = draw(st.sampled_from(pairs))
        words = draw(st.lists(st.sampled_from(("apple", "chip", "opera")), max_size=3))
        items[f"i{j}"] = Item(f"i{j}", cat, sub, " ".join(words), "", {cat: 1.0})
    users = tuple(f"u{k}" for k in range(draw(st.integers(0, 10))))
    scheme = draw(st.sampled_from(["click", "rating"]))
    signals = [0.0, 1.0] if scheme == "click" else [0.0, 2.5, 3.0, 5.0]
    rows = st.tuples(st.sampled_from(users), st.sampled_from(sorted(items)),
                     st.integers(0, 3), st.sampled_from(signals))
    log = draw(st.lists(rows, max_size=40)) if users and items else []
    return corpus_of(items, log, taxonomy, users, signal_scheme=scheme)


def one_bubble_user_corpus():
    """u0-u8 accept i0 and i1, and u9 accepts i0 and i2, which leaves u9
    extreme-high on c0 and extreme-low on c1."""
    items = {i: Item(i, sub[:2], sub, i, "", {sub[:2]: 1.0})
             for i, sub in (("i0", "c0/s0"), ("i1", "c1/s0"), ("i2", "c0/s1"))}
    users = tuple(f"u{k}" for k in range(10))
    log = [(u, i, 0, 1.0) for u in users[:9] for i in ("i0", "i1")]
    log += [("u9", "i0", 0, 1.0), ("u9", "i2", 0, 1.0)]
    return corpus_of(items, log, {"c0": ("c0/s0", "c0/s1"), "c1": ("c1/s0",)}, users)


class TestEveryValidCorpusRuns:
    @settings(max_examples=40, deadline=None)
    @given(corpus=valid_corpora())
    # no categories, so no items: coverage used to divide by zero mid-run
    @example(corpus=corpus_of({}, [], {}, ("u0",)))
    # a session for u9: few drawn corpora reach a classified population
    @example(corpus=one_bubble_user_corpus())
    def test_runs_every_model_or_prepare_refuses(self, corpus):
        corpus.validate()
        assets = build_assets(corpus)
        for model in MODELS:
            config = SimConfig(model=model, feeds=2, track_fb=True,
                               trace_paths=True)
            try:
                run_loop(config, corpus, assets)
            except ValueError as exc:
                # refused before any step: prepare alone raises it
                with pytest.raises(ValueError, match=re.escape(str(exc))):
                    prepare(config, corpus, assets)


class TestStateMatchesLog:
    def test_accepts_in_state_equal_accepts_in_log(self, fb_corpus, fb_assets,
                                                   monkeypatch):
        states, flushed = [], {}

        def spy(*args, **kwargs):
            states.append(prepare(*args, **kwargs))
            return states[-1]

        def queue(buffer, items):
            flushed.update((item.id, item) for item in items)
            buffer.pending.extend(items)

        monkeypatch.setattr(simulate, "prepare", spy)
        monkeypatch.setattr(GraphUpdateBuffer, "accept_items", queue)
        run = run_loop(SimConfig(model="uc_w", w=0.6, k=6, feeds=5, seed=0),
                       fb_corpus, fb_assets)
        (state,) = states
        # the graph and the scoring state share one table, whose appended
        # rows are exactly the texts of the accepted items outside the index
        table = state.ctx.table
        assert state.graph.table is table
        outside = {i: item for i, item in flushed.items()
                   if i not in table.index.pos}
        assert set(table.text_rows) == {item.text() for item in outside.values()}
        seeded = build_all(fb_corpus)
        members = CategoryGraph.build(fb_corpus, ItemTable(fb_assets)).member_counts
        generated_accepts = 0
        for user in run.users:
            network = state.networks[user]
            logged = [d for recs in run.steps for r in recs if r.user_id == user
                      for d in r.decisions if d.accepted]
            assert network.accepted == \
                seeded[user].accepted + [d.item_id for d in logged]
            # the accept row holds exactly the history's index items
            row = state.ctx.user_pos[user]
            pos = state.ctx.table.index.pos
            assert set(np.flatnonzero(state.ctx.accept_matrix[row])) == \
                {pos[i] for i in network.accepted if i in pos}
            # every accepted item outside the index is generated, and takes
            # the row of its text
            assert all(i in pos or (i.startswith("gi:")
                                    and flushed[i].text() in table.text_rows)
                       for i in network.accepted)
            # an accepted generated item is credited once, at unit weight, to
            # the synthetic subcategories
            gen = [d.item_id for d in logged if d.origin == ORIGIN_GENERATED]
            generated_accepts += len(gen)
            gen_mass = sum(c for s, c in network.click_counts.items()
                           if s.endswith("/generated"))
            assert gen_mass == pytest.approx(len(gen))
            # and every accept joins each of its categories' graph members
            for d in logged:
                for cat, w in flushed[d.item_id].category_weights.items():
                    if w > 0.0:
                        members[state.graph.rows[cat]] += 1
        assert generated_accepts > 0
        assert np.array_equal(state.graph.member_counts, members)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**16), feeds=st.integers(1, 6),
           users=st.none() | st.sets(st.sampled_from(FB_USERS), min_size=1))
    @example(seed=0, feeds=5, users=None)
    def test_refreshed_mass_rows_equal_a_rebuild(self, fb_corpus, fb_assets,
                                                  seed, feeds, users):
        # the barrier re-snapshots only the rows of users who accepted
        states = []

        def spy(*args, **kwargs):
            states.append(prepare(*args, **kwargs))
            return states[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulate, "prepare", spy)
            run_loop(SimConfig(model="uc_w", w=0.6, k=6, feeds=feeds, seed=seed,
                               users=tuple(sorted(users)) if users else None),
                     fb_corpus, fb_assets)
        ctx = states[0].ctx
        mass, norms = ctx.mass_matrix.copy(), ctx.mass_norms.copy()
        ctx.refresh_mass(list(ctx.user_pos))
        assert np.array_equal(mass, ctx.mass_matrix)
        assert np.array_equal(norms, ctx.mass_norms)


class TestResolveTargetUser:
    def test_explicit_target_wins(self, fb_corpus):
        config = SimConfig(target_user="u0003")
        assert simulate._target(config, fb_corpus)[0] == "u0003"

    def test_defaults_to_first_fb_user(self, fb_corpus):
        assert simulate._target(SimConfig(), fb_corpus)[0] == "u0000"

    def test_no_fb_population_raises(self):
        corpus = synth_corpus(PLAIN_SPEC)
        with pytest.raises(ValueError, match="no bubble-affected"):
            simulate._target(SimConfig(), corpus)


class TestExperimentCoverage:
    def test_table_shape_and_csv(self, tmp_path):
        config = SimConfig(w=0.6, k=5, feeds=3, seed=0, synth=FB_SPEC)
        table = experiment_coverage(config, str(tmp_path))
        assert tuple(table["sums"]) == tuple(MODELS)
        assert len(table["rows"]) == 3
        assert set(table["improvements"]) == {"rd_w", "cb_w", "uc_w"}
        for model, total in table["sums"].items():
            assert total == pytest.approx(sum(r[model] for r in table["rows"]))

        with open(tmp_path / "coverage.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["Times", "RD", "RD_wC", "CB", "CB_wC", "UC", "UC_wC",
                           "BHEISR"]
        assert [r[0] for r in rows[1:]] == ["feed_1", "feed_2", "feed_3", "Sum",
                                            "Improv"]
        assert rows[-1][2].endswith("%")
        assert rows[-1][1] == ""   # pure baselines carry no improvement entry

    def test_mixed_models_beat_their_baselines_here(self, tmp_path):
        table = experiment_coverage(
            SimConfig(w=0.6, k=5, feeds=3, seed=0, synth=FB_SPEC), str(tmp_path))
        assert table["sums"]["cb_w"] > table["sums"]["cb"]


class TestExperimentTrajectory:
    def test_series_at_checkpoints(self, tmp_path):
        config = SimConfig(model="cb_w", w=0.6, k=5, feeds=4, seed=0,
                           synth=FB_SPEC)
        result = experiment_trajectory(config, str(tmp_path))
        assert result["user"] == "u0000"
        assert result["steps"] == [1, 2, 3, 4]
        assert len(result["interest_series"]) == 4
        assert result["interest"] != result["disinterest"]
        with open(tmp_path / "trajectory.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["step", "series", "value"]
        assert len(rows) == 1 + 2 * 4

    def test_networks_built_once_for_target_and_endpoints(self, fb_corpus,
                                                          monkeypatch, tmp_path):
        calls = []

        def spy(corpus):
            calls.append(corpus)
            return build_all(corpus)

        monkeypatch.setattr(simulate.belief_mod, "build_all", spy)
        config = SimConfig(model="cb_w", k=5, feeds=2, seed=0, synth=FB_SPEC)
        result = experiment_trajectory(config, str(tmp_path))
        # one for the target and the endpoints, one in run_loop's prepare
        assert len(calls) == 2
        assert result["user"] == simulate._target(config, fb_corpus)[0]

    @pytest.mark.parametrize("target,message", [
        ("nobody", "unknown user 'nobody'"),
        ("idle", "user 'idle', who has no history")])
    def test_unknown_or_unclassified_target_rejected(self, fb_corpus, tmp_path,
                                                     target, message):
        # "idle" is a corpus user without history, so it has no class
        doc = json.loads(corpus_to_json(fb_corpus))
        doc["users"].append("idle")
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc))
        config = SimConfig(model="cb_w", k=5, feeds=2, seed=0, target_user=target,
                           dataset=str(path))
        with pytest.raises(ValueError, match=message):
            experiment_trajectory(config, str(tmp_path / "out"))

    def test_target_in_an_unclassified_population_rejected(self, tmp_path):
        spec = replace(PLAIN_SPEC, n_users=detection.MIN_POPULATION - 1)
        config = SimConfig(model="cb_w", k=5, feeds=2, seed=0,
                           target_user="u0000", synth=spec)
        with pytest.raises(ValueError, match="without a classified population"):
            experiment_trajectory(config, str(tmp_path))

    def test_explicit_target_infers_its_endpoints(self, tmp_path):
        config = SimConfig(model="cb_w", k=5, feeds=2, seed=0,
                           target_user="u0001", synth=FB_SPEC)
        result = experiment_trajectory(config, str(tmp_path))
        assert result["user"] == "u0001"
        assert result["interest"] != result["disinterest"]


class TestExperimentFbCount:
    def test_counts_per_model(self, tmp_path):
        config = SimConfig(w=0.6, k=4, feeds=2, seed=0, synth=FB_SPEC,
                           users=tuple(f"u{i:04d}" for i in range(5)))
        counts = experiment_fb_count(config, str(tmp_path))
        assert tuple(counts) == tuple(MODELS)
        for series in counts.values():
            assert series[0] == (0, 5)
            assert len(series) == 3
        with open(tmp_path / "fb_count.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["step", *MODELS]
        assert rows[1][0] == "0"


class TestExperimentWSweep:
    def test_series_per_w(self, tmp_path):
        config = SimConfig(model="uc_w", k=5, feeds=3, seed=0, synth=FB_SPEC)
        result = experiment_w_sweep(config, str(tmp_path))
        assert tuple(result["series"]) == W_VALUES == (0.2, 0.4, 0.6, 0.8)
        assert all(len(s) == 3 for s in result["series"].values())
        with open(tmp_path / "w_sweep.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["step", "w", "belief_coverage"]
        assert len(rows) == 1 + 4 * 3

    def test_unknown_model_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown model"):
            experiment_w_sweep(SimConfig(model="zz", synth=FB_SPEC),
                               str(tmp_path))

    def test_bheisr_has_no_w_to_sweep(self, monkeypatch, tmp_path):
        # prepare fixes bheisr's w at 1.0: the sweep fails before any run
        monkeypatch.setattr(simulate, "run_loop", None)
        with pytest.raises(ValueError, match="'bheisr' .* no w to sweep"):
            experiment_w_sweep(SimConfig(model="bheisr", k=4, feeds=2,
                                         synth=FB_SPEC), str(tmp_path))

    @pytest.mark.parametrize("model", ["rd", "cb", "uc"])
    def test_pure_model_has_no_w_to_sweep(self, monkeypatch, tmp_path, model):
        # a pure model used to sweep uc_w's w, and no output said so
        monkeypatch.setattr(simulate, "run_loop", None)
        with pytest.raises(ValueError, match=re.escape(
                f"model {model!r} has no w to sweep; pick from the mixed "
                f"models ['rd_w', 'cb_w', 'uc_w']")):
            experiment_w_sweep(SimConfig(model=model, k=4, feeds=2,
                                         synth=FB_SPEC), str(tmp_path))


class TestExperimentBoundary:
    """A bad config fails before a corpus is built or the first run starts."""

    CONFIG = SimConfig(w=0.6, k=4, feeds=2, seed=0, synth=FB_SPEC)

    @pytest.fixture
    def started(self, monkeypatch):
        started = []

        def spy(config, *args):
            started.append(config.model)
            return run_loop(config, *args)

        monkeypatch.setattr(simulate, "run_loop", spy)
        monkeypatch.setattr(simulate, "build_corpus",
                            lambda config: pytest.fail("a corpus was built"))
        return started

    @pytest.mark.parametrize("experiment", [experiment_coverage,
                                            experiment_fb_count])
    def test_unknown_model(self, started, tmp_path, experiment):
        # these experiments run every model, but the config is still checked
        with pytest.raises(ValueError, match="unknown model 'zz'"):
            experiment(replace(self.CONFIG, model="zz"), str(tmp_path))
        assert started == []
        assert list(tmp_path.iterdir()) == []

    def test_w_outside_the_unit_interval(self, started, tmp_path):
        # the sweep replaces w, but the config's own w is still checked
        with pytest.raises(ValueError, match=r"w must be in \[0, 1\]"):
            experiment_w_sweep(replace(self.CONFIG, model="uc_w", w=1.5),
                               str(tmp_path))
        assert started == []
        assert list(tmp_path.iterdir()) == []


class TestWriters:
    def test_run_log_round_trips_as_jsonl(self, fb_corpus, fb_assets, tmp_path):
        config = SimConfig(synth=FB_SPEC, model="cb_w", k=4, feeds=2,
                           users=("u0000",))
        record = run_loop(config, fb_corpus, fb_assets)
        write_run(record, str(tmp_path))
        path = tmp_path / "runlog.jsonl"
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(rows) == 2
        assert rows[0]["step"] == 1
        assert rows[0]["user"] == "u0000"
        assert len(rows[0]["items"]) == 4
        assert {d["accepted"] for d in rows[0]["decisions"]} <= {True, False}

    def test_belief_snapshots_one_file_per_user(self, fb_corpus, fb_assets,
                                                tmp_path):
        config = SimConfig(synth=FB_SPEC, model="cb", k=4, feeds=2,
                           users=("u0000", "u0001"))
        record = run_loop(config, fb_corpus, fb_assets)
        write_run(record, str(tmp_path))
        for user in ("u0000", "u0001"):
            doc = json.loads((tmp_path / "networks" / f"{user}.json").read_text())
            assert [d["step"] for d in doc] == [1, 2]
            assert set(doc[0]["belief"]) == set(fb_corpus.taxonomy)

    def test_coverage_csv_byte_identical_across_runs(self, tmp_path):
        config = SimConfig(w=0.6, k=5, feeds=3, seed=0, synth=FB_SPEC)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        out_a.mkdir()
        out_b.mkdir()
        experiment_coverage(config, str(out_a))
        experiment_coverage(config, str(out_b))
        assert (out_a / "coverage.csv").read_bytes() == \
            (out_b / "coverage.csv").read_bytes()
