"""Benchmark of bheisr.simulate.run_loop on generated workloads.

    python3 perfbench/run.py --workload population --seed 0 --seconds 60 --trace 0

Run from the repository root or anywhere else: the package is imported from
the `src/` directory next to this one. With `--trace 0` the run reports the
end-to-end metrics; with `--trace 1` the per-layer breakdown from a traced
run. An untraced run makes a fixed number of passes over a fixed number of
sub-runs per workload and fails if they take longer than `--seconds`. The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. The exit code is 0 only when every
run_loop call succeeded and produced the expected RunRecord.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPANS_DIR = os.path.join(HERE, "out")


def _git_sha():
    try:
        done = subprocess.run(
            ["git", "--git-dir", os.path.join(ROOT, ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def environment(seed):
    import numpy
    import scipy
    return {"git_sha": _git_sha(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": _cpu_model(),
            "seed": seed}


def write_spans(tracer, workload, seed):
    os.makedirs(SPANS_DIR, exist_ok=True)
    path = os.path.join(SPANS_DIR, f"spans-{workload}-{seed}.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write('["run", "id", "name", "start", "end", "parent"]\n')
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")
    return path


def use_source():
    """Import bheisr from ../src; False if it is missing."""
    if not os.path.isfile(os.path.join(SRC, "bheisr", "__init__.py")):
        print(f"error: no bheisr package under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, SRC)
    return True


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("population", "nudge"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not use_source():
        return 2
    import bench

    workload = bench.WORKLOADS[args.workload]
    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    if args.trace:
        metrics, tally, tracer = bench.measure_traced(workload, args.seed,
                                                      args.seconds)
        print(f"spans {write_spans(tracer, workload.name, args.seed)}")
    else:
        started = perf_counter()
        metrics, samples, tally = bench.measure(workload, args.seed, args.seconds)
        print(f"the run took {perf_counter() - started:.1f} s, capped at "
              f"{args.seconds} s")
        for name, values in samples.items():
            print(f"{name} samples (n={len(values)}): "
                  + " ".join(f"{v:.4g}" for v in values))
    for run_seed, found in tally.digests.items():
        pinned = tally.pinned.get(run_seed)
        state = "none" if pinned is None else \
            ("match" if found == pinned else "MISMATCH")
        print(f"digest seed {run_seed} {found} (pinned: {state})")
    for problem in tally.problems:
        print(f"FAILED {problem}")
    print(f"failed_share {tally.failed / tally.attempted:.4f} "
          f"({tally.failed} of {tally.attempted} run_loop calls)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
