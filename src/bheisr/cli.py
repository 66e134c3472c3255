"""Command line front end: ingest, detect, graph, recommend, simulate,
experiment."""

import argparse
import dataclasses
import json
import sys

from . import detection, simulate
from .corpus import KINDS, SynthSpec, save_corpus
from .features import CategoryGraph, ItemTable
from .folds import fold_sum
from .nudge import QUEUE_DISCIPLINES
from .simulate import SimConfig

# field name -> annotated type, which drives the coercion of text values
SIM_FIELDS = {f.name: f.type for f in dataclasses.fields(SimConfig)}
SYNTH_FIELDS = {f.name: f.type for f in dataclasses.fields(SynthSpec)}
BOOL_TEXT = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def parse_kv_list(text: str, sep: str = ",", path: str = None) -> dict:
    """The key=value parts of `text`, split at `sep`; blank parts and `#`
    comments are skipped, and a bad part's error names `path`:line."""
    out = {}
    for lineno, part in enumerate(text.split(sep), start=1):
        part = part.strip()
        if not part or part.startswith("#"):
            continue
        key, eq, value = part.partition("=")
        if not eq:
            where = f"{path}:{lineno}: " if path else ""
            raise ValueError(f"{where}expected key=value, got {part!r}")
        out[key.strip()] = value.strip()
    return out


def parse_synth(text: str) -> SynthSpec:
    spec = SynthSpec()
    for key, value in parse_kv_list(text).items():
        if key not in SYNTH_FIELDS:
            raise ValueError(f"unknown synth field {key!r}")
        setattr(spec, key, _coerce(SYNTH_FIELDS[key], value, f"synth {key}"))
    return spec


def load_config_file(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_kv_list(fh.read(), "\n", path)


def _coerce(kind, text, name: str):
    """The value of annotation `kind` that `text` spells, for the setting
    `name`; a value that is not text (a switch flag's True) passes as is."""
    if not isinstance(text, str):
        return text
    if kind is bool:
        if text.lower() in BOOL_TEXT:
            return BOOL_TEXT[text.lower()]
        raise ValueError(f"{name}: expected one of {sorted(BOOL_TEXT)}, "
                         f"got {text!r}")
    if kind is tuple:
        return tuple(u.strip() for u in text.split(",") if u.strip())
    if kind is SynthSpec:
        return parse_synth(text)
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"{name} must be {KINDS[kind][1]}, got {text!r}") \
            from None


def build_config(args) -> SimConfig:
    """Config file first, then CLI flags override key by key; validated
    whole, so every subcommand rejects a bad key before building a corpus."""
    config = SimConfig()
    raw = load_config_file(args.config) if args.config else {}
    for field in SIM_FIELDS:
        value = getattr(args, field, None)
        if value is not None:
            raw[field] = value
    for field, value in raw.items():
        if field not in SIM_FIELDS:
            raise ValueError(f"unknown config key {field!r}")
        setattr(config, field, _coerce(SIM_FIELDS[field], value, field))
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
            user: {**dict.fromkeys(highs, "ExtremeHigh"),
                   **dict.fromkeys(lows, "ExtremeLow")}
            for user, (highs, lows) in result.extremes.items()
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
    index = simulate.build_assets(corpus)
    graph = CategoryGraph.build(corpus, ItemTable(index))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(graph.to_json_dict(), fh, indent=2, sort_keys=True)
        print(f"wrote {args.out}")
    print(f"nodes={len(graph.categories)} edges={len(graph.edges)} "
          f"vocabulary={len(index.vocab.term_ids)}")
    return 0


def cmd_recommend(args) -> int:
    config = build_config(args)
    state = simulate.prepare(config)
    if not state.users:
        raise ValueError("the corpus has no users to recommend to")
    user = config.target_user or state.users[0]
    if user not in state.users:
        raise ValueError(f"unknown user {user!r}: not among the fed users")
    feed = simulate.feed_for(state, 1, user)
    for item in feed.items:
        print(f"{item.id}\t{item.origin}\t{item.category}\t{item.title}")
    return 0


def cmd_simulate(args) -> int:
    config = build_config(args)
    record = simulate.run_loop(config)
    out = args.out or "out"
    simulate.write_run(record, out)
    mean_cov = fold_sum(r.coverage for step in record.steps for r in step) / max(
        1, sum(len(step) for step in record.steps))
    print(f"model={record.model} feeds={config.feeds} users={len(record.users)} "
          f"mean_coverage={mean_cov:.6f}")
    print(f"wrote {out}/runlog.jsonl")
    return 0


def cmd_experiment(args) -> int:
    config = build_config(args)
    out = args.out or "out"
    if args.number == "1":
        table = simulate.experiment_coverage(config, out_dir=out)
        for model in table.models:
            label = simulate.MODELS[model][2]
            extra = (f" improvement={table.improvements[model]:+.2f}%"
                     if model in table.improvements else "")
            print(f"{label}: sum={table.sums[model]:.6f}{extra}")
        print(f"wrote {out}/coverage.csv")
    elif args.number == "2":
        result = simulate.experiment_trajectory(config, out_dir=out)
        print(f"user={result['user']} interest={result['interest']} "
              f"disinterest={result['disinterest']}")
        print(f"wrote {out}/trajectory.csv")
    elif args.number == "3":
        counts = simulate.experiment_fb_count(config, out_dir=out)
        for model, series in counts.items():
            print(f"{simulate.MODELS[model][2]}: start={series[0][1]} "
                  f"end={series[-1][1]}")
        print(f"wrote {out}/fb_count.csv")
    else:                           # 4: argparse admits only 1-4
        result = simulate.experiment_w_sweep(config, out_dir=out)
        for w, series in result["series"].items():
            print(f"w={w}: final_belief_coverage={series[-1]:.6f}")
        print(f"wrote {out}/w_sweep.csv")
    return 0


# argparse keywords of a flag beyond its name; a flag named after a SimConfig
# field sets that field, --a-b setting a_b, and a bool field is a switch
FLAG_OPTIONS = {
    "dataset": {"help": "dataset path (file or directory)"},
    "dataset_format": {"choices": simulate.DATASET_FORMATS},
    "synth": {"help": "synthetic corpus, e.g. n_users=20,bias_profile=10"},
    "config": {"help": "key=value config file"},
    "out": {"help": "output file or directory"},
    "model": {"choices": sorted(simulate.MODELS)},
    "queue_discipline": {"choices": QUEUE_DISCIPLINES},
}
SOURCE_FLAGS = ("dataset", "dataset_format", "synth", "config")
RUN_FLAGS = ("seed", "k", "theta", "queue_discipline", "max_path_len",
             "generator_url", "generator_timeout_ms")
LOOP_FLAGS = RUN_FLAGS + ("out", "feeds")   # a run of many feeds, written out
# command -> (help, handler, flags besides SOURCE_FLAGS): only flags it reads,
# so one it would ignore is a parse error. An experiment takes none of the
# models, users, w or bubble tracking it sets itself
COMMANDS = {
    "ingest": ("load a dataset and write canonical JSON", cmd_ingest, ("out",)),
    "detect": ("classify users and report extremes", cmd_detect, ("out",)),
    "graph": ("build the category correlation graph", cmd_graph, ("out",)),
    "recommend": ("assemble one feed for a user", cmd_recommend,
                  RUN_FLAGS + ("model", "w", "users", "target_user")),
    "simulate": ("run the interaction loop", cmd_simulate, LOOP_FLAGS + (
        "model", "w", "users", "track_fb", "trace_paths")),
    "experiment 1": ("one user's coverage under every model", cmd_experiment,
                     LOOP_FLAGS + ("w", "target_user")),
    "experiment 2": ("one user's extreme-category beliefs", cmd_experiment,
                     LOOP_FLAGS + ("model", "w", "target_user")),
    "experiment 3": ("bubble-affected users under every model", cmd_experiment,
                     LOOP_FLAGS + ("w", "users")),
    "experiment 4": ("one user's belief coverage at each w", cmd_experiment,
                     LOOP_FLAGS + ("model", "target_user")),
}


def make_parser() -> argparse.ArgumentParser:
    """A sub-parser per command and experiment number; none reads prefixes."""
    parser = argparse.ArgumentParser(
        prog="bheisr", allow_abbrev=False,
        description="nudge-based recommendation simulator")
    sub = parser.add_subparsers(dest="command", required=True)
    numbered = {}
    for name, (text, handler, flags) in COMMANDS.items():
        command, _, number = name.partition(" ")
        if number and command not in numbered:
            numbered[command] = sub.add_parser(
                command, help="run a standard experiment", allow_abbrev=False,
            ).add_subparsers(dest="number", required=True)
        p = (numbered[command] if number else sub).add_parser(
            number or command, help=text, allow_abbrev=False)
        for flag in SOURCE_FLAGS + flags:
            options = FLAG_OPTIONS.get(flag, {})
            if SIM_FIELDS.get(flag) is bool:
                options = {"action": "store_true", "default": None}
            p.add_argument("--" + flag.replace("_", "-"), **options)
        p.set_defaults(func=handler)
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
