"""Recompute the pinned RunRecord digests in digests.json.

    python3 perfbench/pin.py

Pins every measured sub-run of benchmark seeds PINNED_SEEDS for every
workload. Re-pin only for a change that alters results on purpose, and say
why in that change.
"""

import json
import sys

import run

PINNED_SEEDS = range(21)


def main():
    import bench
    pinned = {}
    for name, workload in bench.WORKLOADS.items():
        pinned[name] = {}
        for seed in PINNED_SEEDS:
            for j in range(workload.sub_runs):
                run_seed = bench.sub_run_seed(seed, j)
                _, corpus, assets = bench.build_inputs(workload, run_seed)
                config = bench.make_config(workload, run_seed, corpus, assets)
                record = bench.simulate.run_loop(config, corpus, assets)
                problems = bench.check_record(record, config, corpus)
                if problems:
                    raise SystemExit(f"{name} seed {run_seed}: {problems[0]}")
                pinned[name][str(run_seed)] = bench.digest(record)
                print(name, run_seed, pinned[name][str(run_seed)], flush=True)
    with open(bench.DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if not run.use_source():
        sys.exit(2)
    main()
