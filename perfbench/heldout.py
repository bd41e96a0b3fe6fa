#!/usr/bin/env python3
"""Held-out-seed check for the repository benchmark.

    python3 perfbench/heldout.py

Run from the repository root. Runs every workload in BENCHMARK.json
RUNS times on each of SEEDS through perfbench/run.py, for BENCHMARK.json's
run_seconds each, and fails unless, for every workload, the second
seed's snapshot digest differs from the first's (the seed really changes the inputs) and the
median of every end-to-end metric over the second seed's runs lies
within the metric's bound of the first seed's median, in either
direction. A gain claimed on one seed can then be confirmed on a seed it
was not tuned on.

Exit codes: 0 ok, 1 a run failed or a check did not hold.
"""

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEEDS = (1, 2)  # the second is the held-out seed
RUNS = 3


def run(workload, seed, seconds):
    """Returns (detail, result) of one untraced run, or None on failure."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        print(f"{workload} seed {seed}: run failed (exit {proc.returncode})")
        return None
    return json.loads(lines[-2]), json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    a_seed, b_seed = SEEDS
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {seed: [run(workload, seed, spec["run_seconds"]) for _ in range(RUNS)]
                for seed in SEEDS}
        if any(r is None for rs in runs.values() for r in rs):
            ok = False
            continue
        digests = {seed: {r[0]["digest"] for r in rs} for seed, rs in runs.items()}
        if any(len(d) != 1 for d in digests.values()):
            print(f"{workload}: one seed gave different digests across runs")
            ok = False
        if digests[a_seed] & digests[b_seed]:
            print(f"{workload}: seeds {a_seed} and {b_seed} give the same digest")
            ok = False
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            va, vb = (statistics.median(r[1]["metrics"][name]["value"]
                                        for r in runs[seed])
                      for seed in (a_seed, b_seed))
            change = (vb - va) / va if va else float("inf")
            verdict = "ok" if abs(change) <= bound else "OUTSIDE BOUND"
            ok = ok and verdict == "ok"
            print(f"{workload:13s} {name:27s} seed {a_seed}: {va:.6g}  "
                  f"seed {b_seed}: {vb:.6g}  change {change:+.3f} "
                  f"(bound {bound}) {verdict}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
