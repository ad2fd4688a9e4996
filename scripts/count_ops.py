#!/usr/bin/env python3
"""Count the Python bytecodes each stage runs over the benchmark's fixed
pools.

    python3 scripts/count_ops.py [--limit N]

Each pool runs once under sys.settrace with opcode events on, and every
bytecode executed is charged to the innermost stage running: parse
(surface.parse), elaborate (typecheck.elaborate), engine (opsem.prob) or
evaluate (densem.evaluate). The rest of a program's run, such as the
workload's own code and adequacy_check's verdict, is charged to other.

The pools are bench/run.py's, run by its workloads' run(): rec-adequacy's
1,000 recursive programs through adequacy_check, and recfree-text's 600
fixed programs as text through parse, pr_limit at epsilon 0 and evaluate
(its seeded programs are left out). --limit keeps the first N programs of
each pool.

Wall time on a shared machine can vary twofold between runs; these counts
repeat exactly, under any PYTHONHASHSEED. A count compares two versions of
the program; it is not a time, and code in C (dict and set operations,
integer arithmetic) counts for nothing.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STAGES = ("parse", "elaborate", "engine", "evaluate", "other")
# The workloads and how many of their programs, in build order, form the
# fixed pool.
POOLS = (("rec-adequacy", None), ("recfree-text", 600))


def count_ops(run_one, programs, entries: dict) -> Counter:
    """Bytecodes executed while run_one runs each program, by stage: the
    stage of the innermost frame running an entry code object, else
    other."""
    counts = Counter(dict.fromkeys(STAGES, 0))
    stack = ["other"]

    def charger(stage, entry):
        def local(frame, event, arg):
            if event == "opcode":
                counts[stage] += 1
            elif event == "return" and entry:
                stack.pop()
            return local
        return local

    inside = {stage: charger(stage, False) for stage in STAGES}
    enter = {stage: charger(stage, True) for stage in STAGES}

    def on_call(frame, event, arg):
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        stage = entries.get(frame.f_code)
        if stage is None:
            return inside[stack[-1]]
        stack.append(stage)
        return enter[stage]

    for program in programs:
        sys.settrace(on_call)
        try:
            run_one(program)
        finally:
            sys.settrace(None)
    return counts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--limit", type=int, default=None,
                    help="count only the first N programs of each pool")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "bench"))
    import run  # the checkout's bench/run.py

    if not run.prepare():  # puts the checkout's src/ on the path
        sys.exit(f"error: no cbpvdp sources under {ROOT}")
    import cbpvdp as pkg  # imports every module, each an attribute of pkg

    entries = {pkg.surface.parse.__code__: "parse",
               pkg.typecheck.elaborate.__code__: "elaborate",
               pkg.opsem.prob.__code__: "engine",
               pkg.densem.evaluate.__code__: "evaluate"}
    for name, fixed in POOLS:
        spec = run.WORKLOADS[name]
        programs = spec.build(pkg, spec.default_seed, None)[:fixed]
        programs = programs[:args.limit]
        counts = count_ops(lambda p: spec.run(pkg, p), programs, entries)
        print(f"{name}: {len(programs)} programs, "
              f"{sum(counts.values()):,} bytecodes")
        for stage in STAGES:
            print(f"  {stage:10s} {counts[stage]:>12,}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
