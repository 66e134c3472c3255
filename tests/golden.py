"""Golden outputs: the sha256 of every file and of stdout that a fixed set of
in-process `bheisr` commands write, pinned in golden.json beside this file.
Every command runs on the 20-user, 10-biased synthetic corpus, except six
`ingest`s, which pin the synthetic corpus itself at edge shapes (one of
everything, every user biased, three categories, one subcategory, uneven
item pools, a residual that does not divide by the subcategories).

Every pinned output is equal under the SkylakeX, Haswell and Sandybridge
OpenBLAS kernels. UC runs and experiments 1 and 3 (which run UC) are left
out: their outputs depend on the kernel OpenBLAS picks at run time.

    PYTHONPATH=src python tests/golden.py           # print each difference
    PYTHONPATH=src python tests/golden.py --write   # re-pin golden.json

The dry run writes nothing and exits 1 when an output differs.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from bheisr import cli

PINS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")
SYNTH = ("--synth", "n_users=20,bias_profile=10")
RUN = ("--feeds", "5", "--track-fb", "--trace-paths")
# name -> argv, where "{out}" is the command's own output directory
COMMANDS = {
    "ingest": ("ingest", *SYNTH, "--out", "{out}/corpus.json"),
    "detect": ("detect", *SYNTH, "--out", "{out}/detect.json"),
    "graph": ("graph", *SYNTH, "--out", "{out}/graph.json"),
    **{f"simulate {model}": ("simulate", *SYNTH, "--model", model, *RUN,
                             "--out", "{out}")
       for model in ("rd", "rd_w", "cb", "cb_w", "bheisr")},
    # a second nudge discipline, whose paths.jsonl differs from the drain run's
    "simulate bheisr replace": ("simulate", *SYNTH, "--model", "bheisr", *RUN,
                                "--queue-discipline", "replace",
                                "--max-path-len", "4", "--out", "{out}"),
    **{f"experiment {n}": ("experiment", str(n), *SYNTH, "--feeds", "3",
                           "--out", "{out}")
       for n in (2, 4)},
    **{f"recommend {model}": ("recommend", *SYNTH, "--model", model)
       for model in ("cb_w", "bheisr")},
    "recommend bheisr u0005": ("recommend", *SYNTH, "--model", "bheisr",
                               "--target-user", "u0005"),
    **{f"ingest {shape}": ("ingest", "--synth", shape, "--out", "{out}/corpus.json")
       for shape in (
           "n_users=1,n_categories=1,subcats_per_category=1,n_items=1",
           "n_users=4,n_categories=5,n_items=40,bias_profile=4",
           "n_users=10,n_categories=3,subcats_per_category=2,n_items=30,"
           "bias_profile=2",
           "n_users=8,n_categories=4,subcats_per_category=1,n_items=11,"
           "bias_profile=1,seed=1",
           "n_users=30,n_categories=17,subcats_per_category=3,n_items=160,"
           "bias_profile=10,seed=2",
           "n_users=6,n_categories=5,subcats_per_category=2,n_items=60,"
           "bias_profile=2,seed=3")},
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(argv, out: str) -> dict:
    """{"<stdout>" or a path relative to `out`: sha256} of what the command
    writes into the new directory `out`; stdout spells `out` as "{out}"."""
    os.makedirs(out)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main([arg.replace("{out}", out) for arg in argv])
    if code != 0:
        raise RuntimeError(f"bheisr {' '.join(argv)} exited {code}")
    found = {"<stdout>": _sha256(stdout.getvalue().replace(out, "{out}").encode())}
    for root, _, names in os.walk(out):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, out).replace(os.sep, "/")] = \
                    _sha256(fh.read())
    return dict(sorted(found.items()))


def load_pins() -> dict:
    with open(PINS, encoding="utf-8") as fh:
        return json.load(fh)


def differences(pinned: dict, found: dict) -> list:
    """One line per command or output that is pinned, found or hashed
    differently on one side only."""
    lines = []
    for name in sorted(set(pinned) | set(found)):
        old, new = pinned.get(name), found.get(name)
        if old is None or new is None:
            lines.append(f"{name}: {'not pinned' if old is None else 'not run'}")
            continue
        for output in sorted(set(old) | set(new)):
            if old.get(output) != new.get(output):
                lines.append(f"{name}: {output}: pinned {old.get(output)}, "
                             f"now {new.get(output)}")
    return lines


def main(argv: list = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="re-pin golden.json (the default writes nothing)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        found = {name: digests(argv, os.path.join(tmp, str(n)))
                 for n, (name, argv) in enumerate(COMMANDS.items())}
    pinned = load_pins() if os.path.exists(PINS) else {}
    lines = differences(pinned, found)
    print("\n".join(lines) if lines else "every output equals its pin")
    if args.write:
        with open(PINS, "w", encoding="utf-8") as fh:
            json.dump(found, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {PINS}")
        return 0
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
