"""Command line interface: argument plumbing and subcommand output."""

import csv
import io
import json
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bheisr import simulate
from bheisr.belief import build_all
from bheisr.cli import (
    COMMANDS,
    build_config,
    load_config_file,
    main,
    make_parser,
    parse_kv_list,
    parse_synth,
)
from bheisr.corpus import Corpus, save_corpus, synth_corpus
from bheisr.detection import ks_normality, skewness

SYNTH = "n_users=16,n_categories=10,subcats_per_category=2,n_items=400,bias_profile=5,seed=0"


def corpus_file(tmp_path, synth=SYNTH):
    """tmp_path/c.json, the synthetic corpus `synth` names saved as JSON,
    and its document."""
    path = tmp_path / "c.json"
    save_corpus(synth_corpus(parse_synth(synth)), str(path))
    return path, json.loads(path.read_text())


class TestParsing:
    def test_parse_kv_list(self):
        assert parse_kv_list("a=1, b = two,") == {"a": "1", "b": "two"}

    def test_parse_kv_list_rejects_bare_tokens(self):
        with pytest.raises(ValueError, match="key=value"):
            parse_kv_list("a=1,oops")

    def test_parse_synth(self):
        spec = parse_synth("n_users=7,bias_profile=2")
        assert spec.n_users == 7
        assert spec.bias_profile == 2
        assert spec.n_categories == 17   # untouched default

    def test_parse_synth_unknown_field(self):
        with pytest.raises(ValueError, match="unknown synth field"):
            parse_synth("n_users=7,flavor=3")

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("# comment\nmodel=uc_w\n\nw = 0.4\nnudge.theta=3\n")
        assert load_config_file(str(path)) == {
            "model": "uc_w", "w": "0.4", "nudge.theta": "3"}

    def test_load_config_file_bad_line(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("model\n")
        with pytest.raises(ValueError, match="run.conf:1"):
            load_config_file(str(path))

    def test_load_config_file_not_utf8(self, tmp_path):
        # the codec's message used to be the whole error, without the file
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"seed=1\n\xff\xfe\n")
        with pytest.raises(ValueError, match=r"bad\.cfg: not UTF-8 text: "):
            load_config_file(str(path))


class TestBuildConfig:
    def parse(self, argv):
        return make_parser().parse_args(argv)

    def test_flags_map_to_config(self):
        args = self.parse(["simulate", "--model", "uc_w", "--w", "0.4", "--k",
                           "7", "--feeds", "3", "--seed", "9", "--users",
                           "u1,u2", "--max-path-len", "3", "--track-fb",
                           "--synth", SYNTH])
        config = build_config(args)
        assert config.model == "uc_w"
        assert config.w == 0.4
        assert config.k == 7
        assert config.feeds == 3
        assert config.seed == 9
        assert config.users == ("u1", "u2")
        assert config.max_path_len == 3
        assert config.track_fb is True
        assert config.parallel is False   # untouched default
        assert config.synth.n_users == 16

    def test_config_file_keys_are_field_names(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("model=cb_w\nw=0.2\ntheta=5\n"
                        "queue_discipline=replace\nmax_path_len=4\n"
                        "generator_url=http://gen\nusers=u0000,u0001\n"
                        "track_fb=yes\nsynth=" + SYNTH + "\n")
        args = self.parse(["simulate", "--config", str(path)])
        config = build_config(args)
        assert config.model == "cb_w"
        assert config.theta == 5.0
        assert config.queue_discipline == "replace"
        assert config.max_path_len == 4
        assert config.generator_url == "http://gen"
        assert config.users == ("u0000", "u0001")
        assert config.track_fb is True
        assert config.synth.bias_profile == 5

    def test_cli_flags_override_config_file(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("model=cb\nw=0.2\nseed=1\n")
        args = self.parse(["simulate", "--config", str(path), "--w", "0.9"])
        config = build_config(args)
        assert config.model == "cb"    # file value survives
        assert config.w == 0.9         # flag wins
        assert config.seed == 1

    def test_unknown_config_key_rejected(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("wibble=1\n")
        args = self.parse(["simulate", "--config", str(path)])
        with pytest.raises(ValueError, match="unknown config key"):
            build_config(args)

    @pytest.mark.parametrize("text, expected", [
        ("on", True), ("TRUE", True), ("1", True),
        ("off", False), ("No", False), ("0", False),
    ])
    def test_boolean_config_text(self, tmp_path, text, expected):
        path = tmp_path / "run.conf"
        path.write_text(f"track_fb={text}\n")
        config = build_config(self.parse(["simulate", "--config", str(path)]))
        assert config.track_fb is expected

    def test_unknown_boolean_text_exits_2(self, tmp_path, capsys):
        path = tmp_path / "run.conf"
        path.write_text("track_fb=ture\n")
        out = tmp_path / "run"
        code = main(["simulate", "--config", str(path), "--synth", SYNTH,
                     "--feeds", "2", "--out", str(out)])
        assert code == 2
        assert "track_fb: expected one of" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("config_text, flags, message", [
        ("k=abc", ["--synth", SYNTH], "k must be an integer, got 'abc'"),
        ("", ["--synth", SYNTH, "--k", "abc"], "k must be an integer, got 'abc'"),
        ("", ["--synth", SYNTH, "--w", "abc"], "w must be a number, got 'abc'"),
        ("", ["--synth", "n_users=abc"],
         "synth n_users must be an integer, got 'abc'"),
        ("synth=n_users=abc", [], "synth n_users must be an integer, got 'abc'"),
        # an empty URL used to mean the template generator
        ("generator_url=", ["--synth", SYNTH], "generator_url is empty"),
        # a repeated key used to win over the first
        ("", ["--synth", "n_users=8,bias_profile=2,n_users=20"],
         "repeated key 'n_users'"),
    ])
    def test_bad_value_exits_2_naming_its_setting(self, tmp_path, capsys,
                                                  monkeypatch, config_text,
                                                  flags, message):
        # flags, config-file values and --synth parts are coerced by one
        # function, so each error names the setting, before any corpus
        path = tmp_path / "run.conf"
        path.write_text(config_text + "\n")
        monkeypatch.setattr(simulate, "build_corpus",
                            lambda config: pytest.fail("a corpus was built"))
        out = tmp_path / "run"
        code = main(["simulate", "--config", str(path), *flags,
                     "--out", str(out)])
        assert code == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_config_key_exits_2_and_writes_nothing(self, tmp_path,
                                                            capsys, monkeypatch):
        # the last one used to win
        path = tmp_path / "run.conf"
        path.write_text("seed=1\nseed=2\n")
        monkeypatch.setattr(simulate, "build_corpus",
                            lambda config: pytest.fail("a corpus was built"))
        out = tmp_path / "run"
        code = main(["simulate", "--config", str(path), "--synth", SYNTH,
                     "--out", str(out)])
        assert code == 2
        assert f"error: {path}:2: repeated key 'seed'" in capsys.readouterr().err
        assert not out.exists()



# (command, flag) pairs the command does not read, each flag with its value
UNREAD_FLAGS = [
    ("recommend", "--out x"), ("recommend", "--feeds 2"),
    ("recommend", "--track-fb"), ("recommend", "--trace-paths"),
    ("recommend", "--user u0000"), ("recommend", "--users u0000"),
    ("simulate", "--target-user u0000"),
    *[(f"experiment {number}", flag) for number, flags in (
        (1, ("--model rd", "--users u0000")), (2, ("--users u0000",)),
        (3, ("--model rd", "--target-user u0000")),
        (4, ("--w 0.3", "--users u0000")))
      for flag in flags + ("--track-fb", "--trace-paths")],
    # prefixes of --feeds and --model, which argparse would read as them
    ("simulate", "--feed 1"), ("simulate", "--mod rd"),
]
UNREAD_SETTINGS = [
    *[(f"{command} {flag}", f"unrecognized arguments: {flag}")
      for command, flag in UNREAD_FLAGS],
    # a config-file key is a field name, as a flag is
    ("simulate --config nudge.conf", "unknown config key 'nudge.theta'"),
]


class TestUnreadSettings:
    @pytest.mark.parametrize("argv, message", UNREAD_SETTINGS,
                             ids=[argv for argv, _ in UNREAD_SETTINGS])
    def test_exits_2_naming_it_and_writes_nothing(self, tmp_path, capsys,
                                                  monkeypatch, argv, message):
        # each used to run as if it were not given, or as another setting
        monkeypatch.chdir(tmp_path)
        (tmp_path / "nudge.conf").write_text("nudge.theta=3\n")
        monkeypatch.setattr(simulate, "build_corpus",
                            lambda config: pytest.fail("a corpus was built"))
        try:
            code = main([*argv.split(), "--synth", SYNTH])
        except SystemExit as exc:       # argparse's exit on a bad flag
            code = exc.code
        assert code == 2
        assert message in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["nudge.conf"]


class TestIngest:
    def test_synth_to_json(self, tmp_path, capsys):
        out = tmp_path / "corpus.json"
        code = main(["ingest", "--synth", SYNTH, "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "items=400" in stdout
        assert "users=16" in stdout
        doc = json.loads(out.read_text())
        assert len(doc["items"]) == 400

    def test_ingest_behaviors_tsv(self, tmp_path, capsys):
        tsv = tmp_path / "behaviors.tsv"
        rows = []
        for u in range(3):
            for c in ("news", "sports"):
                rows.append(f"u{u}\t{u}{c}\t{c}\t{c}/main\tStory {c} {u}\t\t1")
        tsv.write_text("\n".join(rows) + "\n")
        code = main(["ingest", "--dataset", str(tsv), "--dataset-format",
                     "mind_tsv"])
        assert code == 0
        assert "users=3" in capsys.readouterr().out

    def test_item_missing_a_key_exits_2(self, tmp_path, capsys):
        path, doc = corpus_file(tmp_path)
        del doc["items"][3]["abstract"]
        path.write_text(json.dumps(doc))
        assert main(["ingest", "--dataset", str(path)]) == 2
        assert "items[3]: missing key 'abstract'" in capsys.readouterr().err

    def test_repeated_category_exits_2(self, tmp_path, capsys):
        path, doc = corpus_file(tmp_path)
        doc["taxonomy"].append(dict(doc["taxonomy"][0], subcategories=["x/y"]))
        path.write_text(json.dumps(doc))
        assert main(["ingest", "--dataset", str(path)]) == 2
        cat = doc["taxonomy"][0]["category"]
        assert f"duplicate category {cat!r}" in capsys.readouterr().err

    def test_missing_source_exits_2(self, capsys):
        assert main(["ingest"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_file_that_is_not_json_exits_2_naming_it(self, tmp_path, capsys):
        # the error used to be json's alone, naming neither file nor format
        tsv = tmp_path / "behaviors.tsv"
        tsv.write_text("u0\t1\tnews\tnews/main\tStory\t\t1\n")
        assert main(["ingest", "--dataset", str(tsv)]) == 2
        assert f"error: {tsv}: not a JSON document: Expecting value" in \
            capsys.readouterr().err

    def test_ratings_directory_without_movies_exits_2_naming_it(self, tmp_path,
                                                                capsys):
        # the error used to be the bare path
        (tmp_path / "ratings.csv").write_text("user_id,movie_id,rating,timestamp\n")
        assert main(["ingest", "--dataset", str(tmp_path), "--dataset-format",
                     "imdb_csv"]) == 2
        assert (f"error: [Errno 2] No such file or directory: "
                f"'{tmp_path / 'movies.csv'}'") in capsys.readouterr().err

    @pytest.mark.parametrize("fmt,name", [
        ("json", "c.json"), ("mind_tsv", "behaviors.tsv"),
        ("imdb_csv", "movies.csv"), ("imdb_csv", "ratings.csv")])
    def test_file_that_is_not_utf8_exits_2_naming_it(self, tmp_path, capsys,
                                                      fmt, name):
        # the error used to be the codec's alone, naming no file
        texts = {"c.json": "{}", "behaviors.tsv": "u0\t1\tnews\tnews/main\tS\t\t1\n",
                 "movies.csv": "id,genres,title,overview\nm1,Drama,T,O\n",
                 "ratings.csv": "user_id,movie_id,rating,timestamp\nu1,m1,4,1\n"}
        for file, text in texts.items():
            (tmp_path / file).write_bytes(
                text.encode() + (b"\xff\n" if file == name else b""))
        dataset = tmp_path if fmt == "imdb_csv" else tmp_path / name
        assert main(["ingest", "--dataset", str(dataset), "--dataset-format",
                     fmt]) == 2
        assert (f"error: {tmp_path / name}: not UTF-8 text: 'utf-8' codec "
                f"can't decode byte 0xff") in capsys.readouterr().err

    @pytest.mark.parametrize("weight", ["x", True])
    def test_weight_that_is_not_a_number_exits_2(self, tmp_path, capsys, weight):
        path, doc = corpus_file(tmp_path)
        item = doc["items"][0]
        item["category_weights"] = {item["category"]: weight}
        path.write_text(json.dumps(doc))
        assert main(["ingest", "--dataset", str(path)]) == 2
        assert "is not a number" in capsys.readouterr().err

    @pytest.mark.parametrize("origin", ["generated", "bogus"])
    def test_origin_other_than_dataset_exits_2_and_writes_nothing(
            self, tmp_path, capsys, origin):
        path, doc = corpus_file(tmp_path)
        item = doc["items"][0]
        item["origin"] = origin
        path.write_text(json.dumps(doc))
        out = tmp_path / "out.json"
        assert main(["ingest", "--dataset", str(path), "--out", str(out)]) == 2
        assert f"item {item['id']}: origin {origin!r}" in capsys.readouterr().err
        assert not out.exists()


class TestDetect:
    def test_reports_bubble_affected_users(self, tmp_path, capsys):
        out = tmp_path / "detect.json"
        code = main(["detect", "--synth", SYNTH, "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "bubble_affected=5" in stdout
        doc = json.loads(out.read_text())
        assert doc["fb_users"] == [f"u{i:04d}" for i in range(5)]
        assert doc["population"] == 16
        cat = next(iter(doc["categories"].values()))
        assert set(cat) >= {"mu", "sigma", "low_threshold", "high_threshold",
                            "ks_p", "skewness"}
        # every classified user's labels, from its extremes; none for a user
        # with no extreme category
        high, low = "ExtremeHigh", "ExtremeLow"
        assert doc["classes"] == {
            "u0000": {"cat02": low, "cat05": high},
            "u0001": {"cat03": low, "cat06": high},
            "u0002": {"cat08": high, "cat09": low},
            "u0003": {"cat01": high, "cat02": low},
            "u0004": {"cat03": low, "cat07": high},
            **{f"u{i:04d}": {} for i in range(5, 16)}}

    def test_normality_statistics_match_direct_calls(self, tmp_path):
        out = tmp_path / "detect.json"
        assert main(["detect", "--synth", SYNTH, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        networks = build_all(synth_corpus(parse_synth(SYNTH)))
        users = sorted(u for u, net in networks.items() if net.total_mass() > 0.0)
        assert len(users) == doc["classified"]
        checked = 0
        for cat, stats in doc["categories"].items():
            values = [networks[u].belief.get(cat, 0.0) for u in users]
            if stats["sigma"] == 0.0:
                assert stats["ks_stat"] is stats["ks_p"] is stats["skewness"] is None
                continue
            ks = ks_normality(values, stats["mu"], stats["sigma"])
            assert stats["ks_stat"] == ks.statistic
            assert stats["ks_p"] == ks.p_value
            assert stats["skewness"] == skewness(values)
            checked += 1
        assert checked > 0

    @pytest.mark.parametrize("source, validations", [("dataset", 1), ("synth", 0)])
    def test_loaded_corpus_validated_once_and_synthetic_never(
            self, tmp_path, monkeypatch, capsys, source, validations):
        # the loader checks a read corpus; a synthetic one is valid by
        # construction
        path, _ = corpus_file(tmp_path, "n_users=20,bias_profile=10")
        value = {"dataset": str(path), "synth": "n_users=20,bias_profile=10"}
        calls = []
        validate = Corpus.validate
        monkeypatch.setattr(Corpus, "validate",
                            lambda corpus: calls.append(1) or validate(corpus))
        assert main(["detect", "--" + source, value[source]]) == 0
        assert len(calls) == validations

    def test_small_population_exits_2(self, capsys):
        # it used to print its own error and exit 1, unlike every other failure
        code = main(["detect", "--synth",
                     "n_users=4,n_categories=5,subcats_per_category=2,n_items=40"])
        assert code == 2
        assert "need at least" in capsys.readouterr().err

    def test_seed_flag_rejected(self, capsys):
        # a synthetic corpus takes its seed from --synth ...,seed=N
        with pytest.raises(SystemExit) as exc:
            main(["detect", "--synth", "n_users=20,bias_profile=10", "--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


class TestGraph:
    def test_writes_graph_json(self, tmp_path, capsys):
        out = tmp_path / "graph.json"
        code = main(["graph", "--synth", SYNTH, "--out", str(out)])
        assert code == 0
        assert "nodes=10 edges=45" in capsys.readouterr().out
        doc = json.loads(out.read_text())
        assert len(doc["nodes"]) == 10
        assert len(doc["edges"]) == 45


class TestCorpusCommandConfig:
    """ingest, detect and graph read only a config file's corpus keys, but
    check every key before building a corpus, as simulate does."""

    @pytest.mark.parametrize("command", ["ingest", "detect", "graph"])
    @pytest.mark.parametrize("line, message", [
        ("seed=-5", "seed must be non-negative"), ("k=0", "k must be positive"),
        # a config file bypasses --dataset-format's choices
        ("dataset_format=xml", "unknown dataset format 'xml'")])
    def test_bad_run_key_exits_2_before_any_corpus(self, tmp_path, capsys,
                                                    monkeypatch, command, line,
                                                    message):
        path = tmp_path / "c.cfg"
        path.write_text(line + "\n")
        monkeypatch.setattr(simulate, "build_corpus",
                            lambda config: pytest.fail("a corpus was built"))
        out = tmp_path / "out.json"
        code = main([command, "--synth", "n_users=20,bias_profile=10",
                     "--config", str(path), "--out", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["ingest", "detect", "graph"])
    @pytest.mark.parametrize("out, message", [
        (".", "--out '.' is a directory, not a file"),
        ("nodir/x.json",
         "--out 'nodir/x.json' is in a directory that does not exist"),
        ("dangling", "--out 'dangling' is in a directory that does not exist"),
        ("afile/x", "--out 'afile/x' is in a directory that does not exist"),
        ("", "--out is empty")])
    def test_out_it_cannot_write_exits_2_before_any_corpus(
            self, tmp_path, capsys, monkeypatch, command, out, message):
        # each used to build (and classify) the whole corpus, then fail to
        # open its file; an empty --out used to mean no file
        monkeypatch.chdir(tmp_path)
        (tmp_path / "afile").write_text("kept\n")
        (tmp_path / "dangling").symlink_to("nowhere/x")
        monkeypatch.setattr(simulate, "build_corpus",
                            lambda config: pytest.fail("a corpus was built"))
        assert main([command, "--synth", SYNTH, "--out", out]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "dangling"]
        assert (tmp_path / "afile").read_text() == "kept\n"

    @pytest.mark.parametrize("command", ["ingest", "detect", "graph"])
    def test_valid_run_keys_accepted(self, tmp_path, capsys, command):
        path = tmp_path / "c.cfg"
        path.write_text("seed=3\nk=5\nmodel=uc_w\n")
        base = [command, "--synth", "n_users=20,bias_profile=10", "--out"]
        assert main(base + [str(tmp_path / "plain.json")]) == 0
        plain = capsys.readouterr().out
        assert main(base + [str(tmp_path / "cfg.json"), "--config", str(path)]) == 0
        assert capsys.readouterr().out == plain.replace("plain.json", "cfg.json")
        assert (tmp_path / "plain.json").read_bytes() == \
            (tmp_path / "cfg.json").read_bytes()


class TestRecommend:
    def test_prints_one_line_per_item(self, capsys):
        code = main(["recommend", "--synth", SYNTH, "--model", "cb_w",
                     "--k", "5", "--target-user", "u0000"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5
        origins = [line.split("\t")[1] for line in lines]
        assert origins.count("generated") == 3   # round(0.6 * 5)
        assert all(len(line.split("\t")) == 4 for line in lines)

    def test_unknown_user_exits_2(self, capsys):
        # the exit code and message simulate and experiment give
        code = main(["recommend", "--synth", SYNTH, "--target-user", "nobody"])
        assert code == 2
        assert "error: unknown user 'nobody'" in capsys.readouterr().err

    def test_default_user_is_the_corpus_first_user(self, capsys):
        base = ["recommend", "--synth", "n_users=20,bias_profile=10",
                "--model", "bheisr"]
        assert main(base) == 0
        default = capsys.readouterr().out
        assert main(base + ["--target-user", "u0000"]) == 0
        assert capsys.readouterr().out == default
        # the target is nudged: its feed opens with its own generated item
        assert main(base + ["--target-user", "u0005"]) == 0
        assert capsys.readouterr().out.startswith("gi:u0005:1\t")

    def test_corpus_without_users_exits_2(self, tmp_path, capsys):
        # simulate, detect and graph run on it; recommend has no user to pick
        path, doc = corpus_file(tmp_path)
        doc["users"], doc["interactions"] = [], []
        path.write_text(json.dumps(doc))
        assert main(["recommend", "--dataset", str(path)]) == 2
        assert "error: the corpus has no users" in capsys.readouterr().err


class TestCorpusWithoutCategories:
    @pytest.mark.parametrize("command", [["simulate"], ["experiment", "3"],
                                         ["recommend"]])
    def test_exits_2_and_writes_nothing(self, tmp_path, capsys, command):
        # coverage is a share of the categories: simulate and experiment 3
        # used to stop mid-run on a ZeroDivisionError, and recommend printed
        # an empty feed
        path, doc = corpus_file(tmp_path)
        doc["taxonomy"], doc["items"], doc["interactions"] = [], [], []
        path.write_text(json.dumps(doc))
        out = tmp_path / "run"
        if command != ["recommend"]:     # which writes nothing at all
            command = [*command, "--out", str(out)]
        assert main([*command, "--dataset", str(path)]) == 2
        captured = capsys.readouterr()
        assert "error: the corpus has no categories" in captured.err
        assert captured.out == ""
        assert not out.exists()
        # the corpus itself loads
        assert main(["ingest", "--dataset", str(path)]) == 0


class TestDatasetWithSynth:
    @pytest.mark.parametrize("command", ["detect", "simulate"])
    @pytest.mark.parametrize("in_file", ["dataset", "synth", None])
    def test_exits_2_and_writes_nothing(self, tmp_path, capsys, command,
                                        in_file):
        # the synthetic corpus used to run, whether a flag or the config
        # file set either source
        sources = {"dataset": str(tmp_path / "missing.json"), "synth": SYNTH}
        argv = [command, "--out", str(tmp_path / "out")]
        for key, value in sources.items():
            if key == in_file:
                (tmp_path / "run.conf").write_text(f"{key}={value}\n")
                argv += ["--config", str(tmp_path / "run.conf")]
            else:
                argv += ["--" + key, value]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "error: set either dataset or synth, not both" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()


class TestDatasetFormatWithSynth:
    @pytest.mark.parametrize("command", ["detect", "simulate"])
    @pytest.mark.parametrize("in_file", [False, True])
    def test_exits_2_and_writes_nothing(self, tmp_path, capsys, command,
                                        in_file):
        # the format used to be ignored, whether a flag or the config file
        # set it
        argv = [command, "--synth", SYNTH, "--out", str(tmp_path / "out")]
        if in_file:
            (tmp_path / "run.conf").write_text("dataset_format=imdb_csv\n")
            argv += ["--config", str(tmp_path / "run.conf")]
        else:
            argv += ["--dataset-format", "imdb_csv"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "error: dataset_format applies only to dataset, not synth" \
            in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()


class TestSimulate:
    def test_reserved_generated_label_exits_2_before_the_run(self, tmp_path, capsys):
        # each category's last subcategory takes the next category's
        # generated label; the network would file generated mass under it
        path, doc = corpus_file(tmp_path, "n_users=20,bias_profile=10")
        cats = [entry["category"] for entry in doc["taxonomy"]]
        renamed = {}
        for entry, after in zip(doc["taxonomy"], cats[1:]):
            renamed[entry["subcategories"][-1]] = f"{after}/generated"
            entry["subcategories"][-1] = f"{after}/generated"
        for item in doc["items"]:
            item["subcategory"] = renamed.get(item["subcategory"], item["subcategory"])
        path.write_text(json.dumps(doc))
        out = tmp_path / "run"
        assert main(["simulate", "--dataset", str(path), "--model", "bheisr",
                     "--feeds", "10", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "reserved" in err and "already bound" not in err
        assert not out.exists()
        assert main(["ingest", "--dataset", str(path)]) == 2
        assert "reserved" in capsys.readouterr().err

    def test_prompt_key_separator_in_a_category_exits_2_and_writes_nothing(
            self, tmp_path, capsys):
        # a bubble user's prompt keys join categories with "->"; a category
        # holding it would be split apart again at a rejection, mid-run
        path, doc = corpus_file(tmp_path, "n_users=20,bias_profile=10")
        cat = doc["taxonomy"][0]["category"]
        path.write_text(path.read_text().replace(f'"{cat}"', f'"{cat}->x"'))
        out = tmp_path / "run"
        assert main(["simulate", "--dataset", str(path), "--model", "bheisr",
                     "--feeds", "10", "--out", str(out)]) == 2
        assert f"category '{cat}->x'" in capsys.readouterr().err
        assert not out.exists()

    def test_user_id_that_cannot_name_a_file_exits_2_and_writes_nothing(
            self, tmp_path, capsys):
        # networks/team/u19.json has no directory: the run would fail after
        # writing runlog.jsonl and part of networks/
        path, _ = corpus_file(tmp_path, "n_users=20,bias_profile=10")
        path.write_text(path.read_text().replace('"u0019"', '"team/u19"'))
        out = tmp_path / "run"
        assert main(["simulate", "--dataset", str(path), "--model", "bheisr",
                     "--feeds", "2", "--out", str(out)]) == 2
        assert "user id 'team/u19' cannot name a file" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_user_exits_2_and_writes_nothing(self, tmp_path, capsys):
        # a user listed twice would be fed twice a step from one network
        path, doc = corpus_file(tmp_path, "n_users=12,bias_profile=5")
        doc["users"].append("u0000")
        path.write_text(json.dumps(doc))
        out = tmp_path / "run"
        assert main(["simulate", "--dataset", str(path), "--model", "rd",
                     "--feeds", "2", "--out", str(out)]) == 2
        assert "duplicate user 'u0000'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--users", ","], "leave it unset to feed everyone"),
        (["--seed", "-1"], "seed must be non-negative")])
    def test_empty_users_or_negative_seed_exits_2_and_writes_nothing(
            self, tmp_path, capsys, flags, message):
        out = tmp_path / "run"
        assert main(["simulate", "--synth", SYNTH, "--model", "rd", "--feeds",
                     "1", *flags, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["ingest", "simulate"])
    @pytest.mark.parametrize("old, new, count, message", [
        ('"u0000"', "7", -1, "interactions[0]: 'user_id' holds a value of the "
                             "wrong type: 7 is not a string"),
        # JSON cannot hold a NaN, and no loader takes one
        ('"signal": 1.0', '"signal": NaN', 1,
         "interaction row 0: signal nan is not a click of 0 or 1"),
    ], ids=["numeric-user", "nan-signal"])
    def test_corpus_the_loader_rejects_exits_2_and_writes_nothing(
            self, tmp_path, capsys, command, old, new, count, message):
        path, _ = corpus_file(tmp_path)
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new, count))
        out = tmp_path / "out"
        assert main([command, "--dataset", str(path), "--out", str(out)]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", [["simulate"], ["experiment", "3"]])
    def test_unknown_target_user_exits_2_and_writes_nothing(self, tmp_path,
                                                            capsys, command):
        # both used to run on, ignoring a target the corpus lacks; neither
        # reads the target, but a config file may set it for other commands
        path = tmp_path / "run.conf"
        path.write_text("target_user=nobody\n")
        out = tmp_path / "run"
        assert main([*command, "--synth", SYNTH, "--feeds", "2", "--config",
                     str(path), "--out", str(out)]) == 2
        assert "error: unknown user 'nobody'" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_item_id_exits_2_and_writes_nothing(self, tmp_path, capsys):
        path, doc = corpus_file(tmp_path, "n_users=12,bias_profile=5")
        doc["items"].append(dict(doc["items"][1], id=doc["items"][0]["id"]))
        path.write_text(json.dumps(doc))
        out = tmp_path / "run"
        assert main(["simulate", "--dataset", str(path), "--model", "rd",
                     "--feeds", "2", "--out", str(out)]) == 2
        assert "duplicate item 'it00000'" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_movie_id_exits_2_and_writes_nothing(self, tmp_path, capsys):
        (tmp_path / "movies.csv").write_text(
            "id,genres,title,overview\n"
            "m1,Drama|Crime,First,a\nm2,Comedy,Second,b\nm1,Horror,Third,c\n")
        (tmp_path / "ratings.csv").write_text(
            "user_id,movie_id,rating,timestamp\na,m1,4.0,1\nb,m2,5.0,2\n")
        out = tmp_path / "run"
        assert main(["simulate", "--dataset", str(tmp_path), "--dataset-format",
                     "imdb_csv", "--model", "rd", "--feeds", "2",
                     "--out", str(out)]) == 2
        assert "line 4: duplicate movie 'm1'" in capsys.readouterr().err
        assert not out.exists()

    def test_writes_outputs(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["simulate", "--synth", SYNTH, "--model", "cb_w",
                     "--k", "4", "--feeds", "2", "--users", "u0000",
                     "--track-fb", "--trace-paths", "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "model=cb_w feeds=2 users=1 mean_coverage=" in stdout
        log_rows = [json.loads(line)
                    for line in (out / "runlog.jsonl").read_text().splitlines()]
        assert len(log_rows) == 2
        assert (out / "networks" / "u0000.json").exists()
        assert json.loads((out / "fb_counts.json").read_text())[0] == [0, 5]
        assert (out / "paths.jsonl").exists()

    @pytest.mark.parametrize("second", [
        ["simulate", "--model", "rd", "--users", "u0001"],
        *[["experiment", number] for number in "1234"]],
        ids=["simulate", *[f"experiment {number}" for number in "1234"]])
    def test_rerun_into_a_used_out_exits_2_and_changes_nothing(
            self, tmp_path, capsys, monkeypatch, second):
        # a second run used to replace runlog.jsonl and leave the first run's
        # fb_counts.json, paths.jsonl and other networks beside it, and an
        # experiment wrote its CSV beside them all; an out that the writes
        # would follow through a dangling symlink or a file used to fail
        # only after the whole run
        assert main(["simulate", "--synth", SYNTH, "--model", "bheisr",
                     "--feeds", "2", "--track-fb", "--trace-paths",
                     "--out", str(tmp_path / "run")]) == 0
        (tmp_path / "afile").write_text("kept\n")
        (tmp_path / "dangling").symlink_to("nowhere/x")
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        capsys.readouterr()
        monkeypatch.setattr(simulate, "build_corpus",
                            lambda config: pytest.fail("a corpus was built"))
        for target, message in [
                ("run", "exists and is not an empty directory"),
                ("dangling", "exists and is not an empty directory"),
                ("afile/x", f"is under '{tmp_path / 'afile'}', not a directory")]:
            out = tmp_path / target
            assert main([*second, "--synth", SYNTH, "--feeds", "1",
                         "--out", str(out)]) == 2
            assert f"error: --out '{out}' {message}" in capsys.readouterr().err
            assert {p: p.read_bytes() for p in tmp_path.rglob("*")
                    if p.is_file()} == before
            assert not (tmp_path / "nowhere").exists()

    def test_parallel_flag_is_gone(self, tmp_path):
        out = tmp_path / "run"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--synth", SYNTH, "--feeds", "2", "--parallel",
                  "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    def test_config_file_parallel_exits_2(self, tmp_path, capsys):
        # runs are serial; the key is still a config field, so validate()
        # names it rather than calling it unknown
        path = tmp_path / "run.conf"
        path.write_text("parallel=true\n")
        out = tmp_path / "run"
        code = main(["simulate", "--config", str(path), "--synth", SYNTH,
                     "--feeds", "2", "--out", str(out)])
        assert code == 2
        assert "parallel" in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_value_outside_flag_choices_exits_2(self, tmp_path, capsys):
        # a config file bypasses argparse choices; validate() must catch it
        path = tmp_path / "run.conf"
        path.write_text("queue_discipline=bogus\n")
        out = tmp_path / "run"
        code = main(["simulate", "--config", str(path), "--synth", SYNTH,
                     "--feeds", "2", "--out", str(out)])
        assert code == 2
        assert "unknown queue discipline" in capsys.readouterr().err
        assert not out.exists()


class TestExperiments:
    def test_experiment_1_prints_sums_and_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "e1"
        code = main(["experiment", "1", "--synth", SYNTH, "--w", "0.6",
                     "--k", "4", "--feeds", "2", "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        for label in ("RD:", "RD_wC:", "CB:", "CB_wC:", "UC:", "UC_wC:",
                      "BHEISR:"):
            assert label in stdout
        assert "improvement=" in stdout
        with open(out / "coverage.csv", encoding="utf-8", newline="") as fh:
            header = next(csv.reader(fh))
        assert header[0] == "Times"

    def test_experiment_2_trajectory(self, tmp_path, capsys):
        out = tmp_path / "e2"
        code = main(["experiment", "2", "--synth", SYNTH, "--model", "cb_w",
                     "--k", "4", "--feeds", "2", "--out", str(out)])
        assert code == 0
        assert "user=u0000" in capsys.readouterr().out
        assert (out / "trajectory.csv").exists()

    def test_experiment_2_unknown_or_unclassified_target_exits_2(self, tmp_path,
                                                                 capsys):
        out = tmp_path / "e2"
        assert main(["experiment", "2", "--synth", "n_users=30,bias_profile=10",
                     "--target-user", "nobody", "--out", str(out)]) == 2
        assert "unknown user 'nobody'" in capsys.readouterr().err
        # a corpus user without history has no class to pick endpoints from
        path, doc = corpus_file(tmp_path, "n_users=20,bias_profile=10")
        doc["users"].append("idle")
        path.write_text(json.dumps(doc))
        assert main(["experiment", "2", "--dataset", str(path), "--target-user",
                     "idle", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "'idle'" in err and "no history" in err
        assert not (out / "trajectory.csv").exists()

    def test_experiment_3_fb_counts(self, tmp_path, capsys):
        out = tmp_path / "e3"
        code = main(["experiment", "3", "--synth", SYNTH, "--k", "4",
                     "--feeds", "2", "--users", "u0000,u0001,u0002,u0003,u0004",
                     "--out", str(out)])
        assert code == 0
        assert "start=5" in capsys.readouterr().out
        assert (out / "fb_count.csv").exists()

    def test_experiment_4_w_sweep(self, tmp_path, capsys):
        out = tmp_path / "e4"
        code = main(["experiment", "4", "--synth", SYNTH, "--model", "uc_w",
                     "--k", "4", "--feeds", "2", "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "w=0.2" in stdout and "w=0.8" in stdout
        assert (out / "w_sweep.csv").exists()

    def test_experiment_4_bheisr_exits_2_before_any_run(self, tmp_path,
                                                        capsys, monkeypatch):
        # bheisr's w is fixed at 1.0, so every w would give the same series
        monkeypatch.setattr(simulate, "run_loop", None)
        out = tmp_path / "e4"
        assert main(["experiment", "4", "--synth", SYNTH, "--model", "bheisr",
                     "--feeds", "2", "--out", str(out)]) == 2
        assert "no w to sweep" in capsys.readouterr().err
        assert not (out / "w_sweep.csv").exists()

    @pytest.mark.parametrize("number, flags", [
        ("4", ["--model", "bheisr"]), ("4", ["--model", "cb"]),
        ("1", ["--w", "2"])])
    def test_rejected_experiment_leaves_no_directory(self, tmp_path, capsys,
                                                     number, flags):
        out = tmp_path / "X"
        assert main(["experiment", number, "--synth", "n_users=20,bias_profile=10",
                     "--feeds", "3", *flags, "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_feeds_exits_2_before_any_run(self, tmp_path, capsys):
        code = main(["experiment", "4", "--synth", SYNTH, "--feeds", "0",
                     "--out", str(tmp_path / "e4")])
        assert code == 2
        assert "feeds must be positive" in capsys.readouterr().err

    def test_unknown_experiment_number_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["experiment", "9", "--synth", SYNTH])


# the CLI grammar, at most 12 users, 60 items, 3 feeds and k 5 per call.
# Each part is (good, bad) choices; a call breaks the parts its faults name
SMALL = "n_users=12,n_categories=3,subcats_per_category=2,n_items=60,bias_profile=2"
SOURCES = (
    [["--synth", SMALL], ["--dataset", "corpus.json"],
     ["--synth", "n_users=6,n_categories=3,subcats_per_category=1,n_items=18"]],
    [["--synth", "n_users=abc"], ["--synth", "n_users=4,n_users=5"],
     ["--dataset", "missing.json"], ["--dataset", "corpus.json", "--synth", SMALL],
     ["--dataset", "corpus.json", "--dataset-format", "imdb_csv"], []])
# --generator-url is left out: a run with one asks an HTTP endpoint for items
FLAG_VALUES = {
    "--seed": (["0", "3"], ["-1", "x"]), "--k": (["1", "5"], ["0", "k"]),
    "--feeds": (["1", "3"], ["0", "x"]), "--w": (["0.0", "0.6"], ["1.5"]),
    "--theta": (["0.5"], ["-1"]),
    "--model": (sorted(simulate.MODELS), ["nope"]),
    "--target-user": (["u0000", "u0003"], ["nobody", ""]),
    "--users": (["u0000", "u0001,u0002"], [",", "nobody", "u0001,u0001"]),
    "--queue-discipline": (["drain", "replace"], ["bogus"]),
    "--max-path-len": (["4"], ["0"]),
    "--generator-timeout-ms": (["50"], ["0"]),
    "--track-fb": ([None], [None]), "--trace-paths": ([None], [None]),
}
CONFIG_LINES = (["seed=2", "w=0.4", "model=rd_w", "feeds=2", "k=3",
                 "users=u0001", "target_user=u0002", "trace_paths=yes"],
                ["k=0", "nudge.theta=3", "bogus", "track_fb=maybe",
                 "dataset_format=xml", "seed=2\nseed=3"])
# --out: a run's directory must be new or empty and under a directory, a
# file command's file, where its symlinks lead, must not be a directory and
# must be in one that exists
RUN_OUTS = (["new", "empty", "nodir/x"],
            ["used", "afile", "", "dangling", "afile/x"])
FILE_OUTS = (["new", "afile"], ["empty", "used", "nodir/x", "", "dangling",
                                "afile/x"])
FAULTS = ("source", "value", "unread", "config", "out")
# a source or value fault may still fail once the corpus is built
BOUNDARY_FAULTS = {"unread", "config", "out"}


@st.composite
def argvs(draw):
    """(argv, config lines or None, faults) drawn from the grammar, with
    paths relative to the directory a call runs in."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    reads = {"--" + flag.replace("_", "-") for flag in COMMANDS[command][2]}
    faults = draw(st.sets(st.sampled_from(FAULTS), max_size=2))

    def pick(fault, choices):
        return draw(st.sampled_from(choices[fault in faults]))

    argv = [*command.split(), *pick("source", SOURCES)]
    # feeds and k always bounded; other flags drawn
    flags = [flag for flag in ("--feeds", "--k") if flag in reads]
    others = sorted(reads & FLAG_VALUES.keys() - set(flags))
    if others:
        flags += draw(st.lists(st.sampled_from(others), max_size=3, unique=True))
    if "unread" in faults:
        flags.append(draw(st.sampled_from(sorted(FLAG_VALUES.keys() - reads))))
    for flag in flags:
        value = pick("value", FLAG_VALUES[flag])
        argv += [flag] if value is None else [flag, value]
    lines, overridden = None, set()
    if "config" in faults or draw(st.booleans()):
        lines = draw(st.lists(st.sampled_from(CONFIG_LINES[0]), max_size=2,
                              unique=True))
        if "config" in faults:
            lines.append(pick("config", CONFIG_LINES))
            if "--" + lines[-1].partition("=")[0].replace("_", "-") in argv:
                overridden = {"config"}     # a flag replaces the bad value
        argv += ["--config", "run.cfg"]
    if "out" in faults or (reads & {"--out"} and draw(st.booleans())):
        argv += ["--out", pick("out", RUN_OUTS if "--feeds" in reads
                               else FILE_OUTS)]
    return argv, lines, faults - overridden


def _files(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() if p.is_file() else None
            for p in root.rglob("*")}


class TestCliProperty:
    """Every argv the grammar draws either runs (exit 0), or is rejected
    (exit 2) with a message and leaves every file as it was; no call ends in
    a traceback. A bad --out, config file or unread flag is rejected before
    any corpus is built."""

    @pytest.fixture(scope="class")
    def corpus(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli") / "corpus.json"
        save_corpus(synth_corpus(parse_synth(SMALL)), str(path))
        return path

    @settings(max_examples=150, deadline=None)
    @given(drawn=argvs())
    def test_exits_0_or_2_and_a_rejected_call_writes_nothing(self, corpus,
                                                             drawn):
        argv, lines, faults = drawn
        with tempfile.TemporaryDirectory() as tmp, \
                pytest.MonkeyPatch.context() as mp:
            root = Path(tmp)
            mp.chdir(root)      # a run without --out writes ./out
            built, build = [], simulate.build_corpus
            mp.setattr(simulate, "build_corpus",
                       lambda config: built.append(config) or build(config))
            shutil.copy(corpus, root / "corpus.json")
            (root / "empty").mkdir()
            (root / "used").mkdir()
            (root / "used" / "runlog.jsonl").write_text("{}\n")
            (root / "afile").write_text("kept\n")
            (root / "dangling").symlink_to("nowhere/x")
            if lines is not None:
                (root / "run.cfg").write_text("\n".join(lines) + "\n")
            before = _files(root)
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:   # argparse's exit on a bad flag
                    code = exc.code
            assert code in (0, 2), (argv, lines)
            if faults & BOUNDARY_FAULTS:
                # argparse, build_config or check_out decides these first
                assert (code, built) == (2, []), (argv, lines)
            if code == 2:
                assert "error:" in err.getvalue(), (argv, lines)
                assert _files(root) == before, (argv, lines)
