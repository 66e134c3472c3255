"""Command line front end: ingest, detect, graph, recommend, simulate,
experiment."""

import argparse
import dataclasses
import json
import os
import sys

from . import detection, simulate
from .corpus import SynthSpec, save_corpus
from .features import CategoryGraph, ItemTable
from .folds import fold_sum
from .nudge import QUEUE_DISCIPLINES
from .recommenders import assemble_feed
from .simulate import SimConfig

# config-file keys that differ from SimConfig field names
CONFIG_ALIASES = {
    "nudge.theta": "theta",
    "nudge.queue_discipline": "queue_discipline",
    "nudge.max_path_len": "max_path_len",
    "generator.kind": "generator_kind",
    "generator.url": "generator_url",
    "generator.timeout_ms": "generator_timeout_ms",
    "generator.retries": "generator_retries",
}

# field name -> annotated type, which drives the coercion of text values
SIM_FIELDS = {f.name: f.type for f in dataclasses.fields(SimConfig)}
SYNTH_FIELDS = {f.name: f.type for f in dataclasses.fields(SynthSpec)}
BOOL_TEXT = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def parse_kv_list(text: str) -> dict:
    out = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"expected key=value, got {part!r}")
        key, value = part.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def parse_synth(text: str) -> SynthSpec:
    spec = SynthSpec()
    for key, value in parse_kv_list(text).items():
        if key not in SYNTH_FIELDS:
            raise ValueError(f"unknown synth field {key!r}")
        setattr(spec, key, SYNTH_FIELDS[key](value))
    return spec


def load_config_file(path: str) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, value = line.split("=", 1)
            values[key.strip()] = value.strip()
    return values


def _coerce(field: str, value):
    if not isinstance(value, str):
        return value
    kind = SIM_FIELDS[field]
    if kind is bool:
        text = value.lower()
        if text in BOOL_TEXT:
            return BOOL_TEXT[text]
        raise ValueError(f"{field}: expected one of {sorted(BOOL_TEXT)}, "
                         f"got {value!r}")
    if kind is tuple:
        return tuple(u.strip() for u in value.split(",") if u.strip())
    if kind is SynthSpec:
        return parse_synth(value)
    return kind(value)


def build_config(args) -> SimConfig:
    """Config file first, then CLI flags override key by key; validated
    whole, so every subcommand rejects a bad key before building a corpus."""
    config = SimConfig()
    raw = {}
    if getattr(args, "config", None):
        for key, value in load_config_file(args.config).items():
            raw[CONFIG_ALIASES.get(key, key)] = value
    for field in SIM_FIELDS:
        value = getattr(args, field, None)
        if value is not None and value is not False:
            raw[field] = value
    for field, value in raw.items():
        if field not in SIM_FIELDS:
            raise ValueError(f"unknown config key {field!r}")
        setattr(config, field, _coerce(field, value))
    config.validate()
    return config


def cmd_ingest(args) -> int:
    config = build_config(args)
    corpus = simulate.build_corpus(config)
    if args.out:
        save_corpus(corpus, args.out)
    print(f"items={len(corpus.items)} interactions={len(corpus.log_user)} "
          f"users={len(corpus.users)} categories={len(corpus.taxonomy)} "
          f"rejects={len(corpus.rejects)}")
    if args.out:
        print(f"wrote {args.out}")
    return 0


def cmd_detect(args) -> int:
    config = build_config(args)
    corpus = simulate.build_corpus(config)
    _, result = simulate.build_population(corpus)
    if result is None:
        print(f"need at least {detection.MIN_POPULATION} users with history "
              f"to classify", file=sys.stderr)
        return 1
    doc = {
        "population": len(corpus.users),
        "classified": len(result.extremes),
        "fb_users": list(result.fb_users),
        "categories": {
            cat: {
                "mu": stats.mu,
                "sigma": stats.sigma,
                "low_threshold": stats.low_threshold,
                "high_threshold": stats.high_threshold,
                "ks_stat": stats.ks.statistic if stats.ks else None,
                "ks_p": stats.ks.p_value if stats.ks else None,
                "skewness": stats.skewness,
            }
            for cat, stats in result.stats.items()
        },
        "classes": {
            user: {cat: exp.value for cat, exp in classes.items()
                   if exp is not detection.Exposure.NORMAL}
            for user, classes in result.classes.items()
        },
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
        print(f"wrote {args.out}")
    print(f"classified={len(result.extremes)} bubble_affected={len(result.fb_users)}")
    for user in result.fb_users:
        print(f"  {user}")
    return 0


def cmd_graph(args) -> int:
    config = build_config(args)
    corpus = simulate.build_corpus(config)
    assets = simulate.build_assets(corpus)
    graph = CategoryGraph.build(corpus, ItemTable(assets.vocab, assets.index))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(graph.to_json_dict(), fh, indent=2, sort_keys=True)
        print(f"wrote {args.out}")
    print(f"nodes={len(graph.categories)} edges={len(graph.edges)} "
          f"vocabulary={len(assets.vocab.term_ids)}")
    return 0


def cmd_recommend(args) -> int:
    config = build_config(args)
    state = simulate.prepare(config)
    if not state.corpus.users:
        raise ValueError("the corpus has no users to recommend to")
    user = args.user or config.target_user or state.corpus.users[0]
    if user not in state.networks:
        raise ValueError(f"unknown user {user!r}")
    feed = assemble_feed(state.baseline, state.with_bheisr, state.w_eff,
                         config.k, state.sessions.get(user), state.ctx,
                         user, 1, config.seed)
    for item in feed.items:
        print(f"{item.id}\t{item.origin}\t{item.category}\t{item.title}")
    return 0


def cmd_simulate(args) -> int:
    config = build_config(args)
    record = simulate.run_loop(config)
    out = args.out or "out"
    os.makedirs(out, exist_ok=True)
    simulate.write_run_log(record, os.path.join(out, "runlog.jsonl"))
    simulate.write_belief_snapshots(record, os.path.join(out, "networks"))
    if record.fb_counts is not None:
        with open(os.path.join(out, "fb_counts.json"), "w", encoding="utf-8") as fh:
            json.dump(record.fb_counts, fh)
    if record.path_traces:
        with open(os.path.join(out, "paths.jsonl"), "w", encoding="utf-8") as fh:
            for trace in record.path_traces:
                fh.write(json.dumps(trace, sort_keys=True, default=str) + "\n")
    mean_cov = fold_sum(r.coverage for step in record.steps for r in step) / max(
        1, sum(len(step) for step in record.steps))
    print(f"model={record.model} feeds={config.feeds} users={len(record.users)} "
          f"mean_coverage={mean_cov:.6f}")
    print(f"wrote {out}/runlog.jsonl")
    return 0


def cmd_experiment(args) -> int:
    config = build_config(args)
    out = args.out or "out"
    if args.number == 1:
        table = simulate.experiment_coverage(config, out_dir=out)
        for model in table.models:
            label = simulate.MODEL_LABELS[model]
            extra = (f" improvement={table.improvements[model]:+.2f}%"
                     if model in table.improvements else "")
            print(f"{label}: sum={table.sums[model]:.6f}{extra}")
        print(f"wrote {out}/coverage.csv")
    elif args.number == 2:
        result = simulate.experiment_trajectory(config, out_dir=out)
        print(f"user={result['user']} interest={result['interest']} "
              f"disinterest={result['disinterest']}")
        print(f"wrote {out}/trajectory.csv")
    elif args.number == 3:
        counts = simulate.experiment_fb_count(config, out_dir=out)
        for model, series in counts.items():
            print(f"{simulate.MODEL_LABELS[model]}: start={series[0][1]} "
                  f"end={series[-1][1]}")
        print(f"wrote {out}/fb_count.csv")
    else:                           # 4: argparse admits only 1-4
        result = simulate.experiment_w_sweep(config, out_dir=out)
        for w, series in result["series"].items():
            print(f"w={w}: final_belief_coverage={series[-1]:.6f}")
        print(f"wrote {out}/w_sweep.csv")
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", help="dataset path (file or directory)")
    parser.add_argument("--dataset-format", dest="dataset_format",
                        choices=("json", "mind_tsv", "imdb_csv"))
    parser.add_argument("--synth", type=parse_synth,
                        help="synthetic corpus, e.g. n_users=20,bias_profile=10")
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--out", help="output file or directory")


def _add_sim_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int)
    parser.add_argument("--model", choices=sorted(simulate.MODELS))
    parser.add_argument("--w", type=float)
    parser.add_argument("--k", type=int)
    parser.add_argument("--theta", type=float)
    parser.add_argument("--feeds", type=int)
    parser.add_argument("--users", type=lambda s: tuple(
        u.strip() for u in s.split(",") if u.strip()))
    parser.add_argument("--target-user", dest="target_user")
    parser.add_argument("--queue-discipline", dest="queue_discipline",
                        choices=QUEUE_DISCIPLINES)
    parser.add_argument("--max-path-len", dest="max_path_len", type=int)
    parser.add_argument("--generator-kind", dest="generator_kind",
                        choices=simulate.GENERATOR_KINDS)
    parser.add_argument("--generator-url", dest="generator_url")
    parser.add_argument("--generator-timeout-ms", dest="generator_timeout_ms",
                        type=int)
    parser.add_argument("--parallel", action="store_true", default=None)
    parser.add_argument("--track-fb", dest="track_fb", action="store_true",
                        default=None)
    parser.add_argument("--trace-paths", dest="trace_paths",
                        action="store_true", default=None)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bheisr",
        description="nudge-based recommendation simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="load a dataset and write canonical JSON")
    _add_common(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("detect", help="classify users and report extremes")
    _add_common(p)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("graph", help="build the category correlation graph")
    _add_common(p)
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("recommend", help="assemble one feed for a user")
    _add_common(p)
    _add_sim_flags(p)
    p.add_argument("--user")
    p.set_defaults(func=cmd_recommend)

    p = sub.add_parser("simulate", help="run the interaction loop")
    _add_common(p)
    _add_sim_flags(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("experiment", help="run a standard experiment")
    p.add_argument("number", type=int, choices=(1, 2, 3, 4))
    _add_common(p)
    _add_sim_flags(p)
    p.set_defaults(func=cmd_experiment)
    return parser


def main(argv: list = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
