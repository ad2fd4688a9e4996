#!/usr/bin/env python3
"""Time each stage of the benchmark's fixed pools in wall seconds.

    python3 scripts/stage_times.py [--limit N] [--repeat R]

The pools are count_ops.py's, run by their workloads' run(): rec-adequacy's
1,000 recursive programs through adequacy_check, and recfree-text's 600
fixed programs as text through parse, pr_limit and evaluate. The stages are
count_ops.py's too: a time.perf_counter timer wraps each stage's entry,
surface.parse, typecheck.elaborate, opsem.prob, opsem._Graph.solve and
densem.evaluate, and the time spent inside the innermost entry running is
charged to its stage, so engine's time leaves out the solves'.
So recfree-text elaborates each program once, inside parse, which checks
the text through typecheck.elaborate; that call counts as elaborate, and
pr_limit and evaluate read the checked core that parse returns. The rest
of a program's run, such as the workload's own code and adequacy_check's
verdict, counts as other.

Each pool runs R passes (default 5). For each stage the script prints the
least of its R pass times in seconds and its share of the sum of those
least times. --limit keeps the first N programs of each pool. A last line
gives the fixed cost of one harness.adequacy_check call on the parser's
unchecked tree of `produce (ret *)` (surface.Parser, not parse, which would
return a checked core), so elaboration is included: the least over R runs of
FIXED_CALLS calls of their mean time, in microseconds, timed before any
stage timer is installed.

Bytecode counts (count_ops.py) repeat exactly but miss the cost of code in
C, such as a call into a type's constructor; these times see it, but vary
from run to run on a shared machine, so compare the shares of one run, or
best-of-R times of runs made side by side.
"""

from __future__ import annotations

import argparse
import sys
from time import perf_counter

from count_ops import ENTRIES, STAGES, entry_owner, load, pools

# Calls of adequacy_check per timed run of the fixed cost.
FIXED_CALLS = 2000


class StageClock:
    """Wall seconds by stage: wrap() times an entry, and a pass's time
    outside every entry is other's."""

    def __init__(self):
        self.seconds = dict.fromkeys(STAGES, 0.0)
        self.stack = ["other"]
        self.mark = perf_counter()

    def charge(self) -> None:
        """Charge the time since the last mark to the stage running."""
        now = perf_counter()
        self.seconds[self.stack[-1]] += now - self.mark
        self.mark = now

    def wrap(self, fn, stage: str):
        stack = self.stack

        def timed(*args, **kwargs):
            self.charge()
            stack.append(stage)
            try:
                return fn(*args, **kwargs)
            finally:
                self.charge()
                stack.pop()
        return timed

    def run_pass(self, run_one, programs) -> dict:
        """The seconds by stage of one pass of run_one over the programs."""
        self.seconds = dict.fromkeys(STAGES, 0.0)
        self.mark = perf_counter()
        for program in programs:
            run_one(program)
        self.charge()
        return self.seconds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--limit", type=int, default=None,
                    help="time only the first N programs of each pool")
    ap.add_argument("--repeat", type=int, default=5, metavar="R",
                    help="passes per pool; each stage's least time is kept")
    args = ap.parse_args(argv)
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    run, pkg = load()
    fixed = fixed_cost(pkg, args.repeat)
    clock = StageClock()
    # Callers reach each entry through its module or class, so the timed
    # wrapper replaces it there.
    for stage, where in ENTRIES.items():
        owner, fn = entry_owner(pkg, *where)
        setattr(owner, fn, clock.wrap(getattr(owner, fn), stage))
    for name, spec, programs in pools(run, pkg, args.limit):
        passes = [clock.run_pass(lambda p: spec.run(pkg, p), programs)
                  for _ in range(args.repeat)]
        best = {stage: min(p[stage] for p in passes) for stage in STAGES}
        total = sum(best.values())
        print(f"{name}: {len(programs)} programs, best of {args.repeat} "
              f"passes, {total:.4f} s")
        for stage in STAGES:
            share = 100 * best[stage] / total if total else 0.0
            print(f"  {stage:10s} {best[stage]:8.4f} s {share:6.1f}%")
    print(f"adequacy_check(produce (ret *)): best of {args.repeat} runs of "
          f"{FIXED_CALLS} calls, {fixed * 1e6:.2f} us a call")
    return 0


def fixed_cost(pkg, repeat: int) -> float:
    """Seconds per adequacy_check call on the unchecked tree of
    produce (ret *), which each call elaborates, the least over repeat runs
    of FIXED_CALLS calls."""
    check = pkg.harness.adequacy_check
    term = pkg.surface.Parser("produce (ret *)").parse_term()
    times = []
    for _ in range(repeat):
        start = perf_counter()
        for _ in range(FIXED_CALLS):
            check(term)
        times.append(perf_counter() - start)
    return min(times) / FIXED_CALLS


if __name__ == "__main__":
    sys.exit(main())
