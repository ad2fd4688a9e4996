#!/usr/bin/env python3
"""Benchmark two checkouts in alternated pairs of runs.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload W [--pairs N]
                                   [--seconds S] [--seed N]

Each pair runs bench/run.py once in each checkout, the parent first in odd
pairs and the change first in even ones, so a drift of the machine's speed
falls on both sides alike. Every run is a fresh process with
PYTHONDONTWRITEBYTECODE=1 and no CBPVDP_ variables, so no run reads
bytecode another one left and no setting changes the CLI's defaults.

For each end-to-end metric of this checkout's BENCHMARK.json the script
prints the parent's and the change's median over the pairs, the relative
change of the medians, the distance between the quartiles of the parent's
runs relative to its median, and in how many pairs the change was better
than the parent by the metric's direction. It exits 1 when some run failed
or reported a wrong or unstable answer.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(checkout: Path, workload: str, seconds: float, seed) -> dict:
    """One bench/run.py run in a checkout: its result line, parsed."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("CBPVDP_")}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    seed = [] if seed is None else ["--seed", str(seed)]
    done = subprocess.run(
        [sys.executable, str(checkout / "bench" / "run.py"),
         "--workload", workload, "--seconds", str(seconds), *seed],
        cwd=checkout, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"error: bench/run.py in {checkout} exited "
                         f"{done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def quartile_gap(values: list) -> float:
    """The distance between the upper and lower quartiles; 0 for one run."""
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4, method="inclusive")
    return high - low


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="the checkout to compare with")
    ap.add_argument("change", type=Path, help="the checkout under test")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="seconds of each run (bench/run.py --seconds)")
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed (default: the workload's own)")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    results = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            results[side].append(run_once(sides[side], args.workload,
                                          args.seconds, args.seed))
    seed = "" if args.seed is None else f" at seed {args.seed}"
    print(f"{args.workload}{seed}: {args.pairs} pairs of {args.seconds:g} s "
          f"runs, alternated")
    print(f"  {'metric':16s} {'parent':>12s} {'change':>12s} {'change':>8s} "
          f"{'parent IQR':>10s} {'wins':>6s}")
    for metric in spec["end_to_end"]:
        name, higher = metric["name"], metric["better"] == "higher"
        before = [r["metrics"][name]["value"] for r in results["parent"]]
        after = [r["metrics"][name]["value"] for r in results["change"]]
        wins = sum((a > b) if higher else (a < b)
                   for b, a in zip(before, after))
        mid_b, mid_a = statistics.median(before), statistics.median(after)
        rel = f"{100 * (mid_a - mid_b) / mid_b:+.1f}%" if mid_b else "n/a"
        iqr = (f"{100 * quartile_gap(before) / mid_b:.1f}%" if mid_b
               else "n/a")
        print(f"  {name:16s} {mid_b:12.6g} {mid_a:12.6g} {rel:>8s} "
              f"{iqr:>10s} {wins:>3d}/{args.pairs}")
    bad = [f"{side} run {k + 1}" for side, runs in results.items()
           for k, r in enumerate(runs) if not r["correct"] or r["failed"]]
    if bad:
        print(f"wrong, unstable or failed answers: {', '.join(bad)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
