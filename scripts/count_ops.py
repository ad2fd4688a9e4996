#!/usr/bin/env python3
"""Count the Python bytecodes each stage runs over the benchmark's fixed
pools.

    python3 scripts/count_ops.py [--limit N] [--by-function N]

Each pool runs once under sys.settrace with opcode events on, and every
bytecode executed is charged to the innermost stage running: parse
(surface.parse), elaborate (typecheck.elaborate), engine (opsem.prob's
exploration and stepping), solve (opsem._Graph.solve, the bound solve
after each round) or evaluate (densem.evaluate). The rest of a program's
run, such as the workload's own code and adequacy_check's verdict, is
charged to other.

The pools are bench/run.py's, run by its workloads' run(): rec-adequacy's
1,000 recursive programs through adequacy_check, and recfree-text's 600
fixed programs as text through parse, pr_limit at epsilon 0 and evaluate
(its seeded programs are left out). Each of these is elaborated once, by
parse's call of typecheck.elaborate, which counts as elaborate; pr_limit
and evaluate read the checked core that parse returns.

Two last blocks count the set-ups:
the bytecodes of generation (harness.TermGen.term) and printing
(surface.print_term) while each workload's build makes the same programs,
and the rest of build as other. rec-adequacy's build generates until it
has 1,000 recursive programs, so its other holds harness.has_rec and the
build's loop; recfree-text's build makes the 600 fixed programs and prints
each. --limit keeps the first N programs of each pool and of each set-up.
--by-function N also prints, under each stage's line, the N functions
that ran the most of its bytecodes, as file:qualname and count
(functions of one file and qualified name, such as a module's lambdas,
are summed). A method that dataclasses or namedtuples generate is
compiled from a string, so its code reads <string>:__create_fn__.<locals>.__init__ or
<string>:<lambda> whatever its class; it is named instead by the module
and class that hold it, as syntax.py:Var.__init__.

Wall time on a shared machine can vary twofold between runs; these counts
repeat exactly, under any PYTHONHASHSEED. A count compares two versions of
the program; it is not a time, and code in C (dict and set operations,
integer arithmetic) counts for nothing.
"""

from __future__ import annotations

import argparse
import copy
import functools
import os
import sys
import types
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STAGES = ("parse", "elaborate", "engine", "solve", "evaluate", "other")
SETUP_STAGES = ("generate", "print", "other")
REC_SETUP_STAGES = ("generate", "other")
# The workloads and how many of their programs, in build order, form the
# fixed pool.
POOLS = (("rec-adequacy", None), ("recfree-text", 600))
# The function whose call starts each stage but other, as (module, dotted
# name in it).
ENTRIES = {"parse": ("surface", "parse"),
           "elaborate": ("typecheck", "elaborate"),
           "engine": ("opsem", "prob"),
           "solve": ("opsem", "_Graph.solve"),
           "evaluate": ("densem", "evaluate")}


def load():
    """The checkout's bench/run.py and cbpvdp package, as (run, pkg)."""
    sys.path.insert(0, str(ROOT / "bench"))
    import run  # the checkout's bench/run.py

    if not run.prepare():  # puts the checkout's src/ on the path
        sys.exit(f"error: no cbpvdp sources under {ROOT}")
    import cbpvdp as pkg  # imports every module, each an attribute of pkg

    return run, pkg


def entry_owner(pkg, module: str, name: str) -> tuple:
    """The object that holds the entry a dotted name in a module of pkg
    names, and the entry's name in it."""
    *path, last = name.split(".")
    return functools.reduce(getattr, path, getattr(pkg, module)), last


def pools(run, pkg, limit=None):
    """(name, workload, programs) of each fixed pool, in POOLS order,
    keeping the first limit programs of each."""
    for name, fixed in POOLS:
        spec = run.WORKLOADS[name]
        programs = spec.build(pkg, spec.default_seed, None)[:fixed]
        yield name, spec, programs[:limit]


def count_ops(run_one, programs, entries: dict) -> Counter:
    """Bytecodes executed while run_one runs each program, by stage and
    code object: the stage is that of the innermost frame running an entry
    code object, else other; the code object is the one executing."""
    counts = Counter()
    stack = ["other"]
    stages = (*entries.values(), "other")

    def charger(stage, entry):
        def local(frame, event, arg):
            if event == "opcode":
                counts[stage, frame.f_code] += 1
            elif event == "return" and entry:
                stack.pop()
            return local
        return local

    inside = {stage: charger(stage, False) for stage in stages}
    enter = {stage: charger(stage, True) for stage in stages}

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


def by_stage(counts: Counter, stages=STAGES) -> Counter:
    """The counts of count_ops summed per stage."""
    out = Counter(dict.fromkeys(stages, 0))
    for (stage, _), n in counts.items():
        out[stage] += n
    return out


def generated_names(modules) -> dict:
    """file:Class.method for the code of every method compiled from a
    string (co_filename <string>) that a class of the modules holds."""
    names = {}
    for module in modules:
        where = os.path.basename(module.__file__)
        for cls in vars(module).values():
            if not isinstance(cls, type) or cls.__module__ != module.__name__:
                continue
            for name, fn in vars(cls).items():
                # A staticmethod (a namedtuple's __new__) and a wrapped
                # __repr__ hold the generated function as __wrapped__.
                fn = getattr(fn, "__wrapped__", fn)
                code = getattr(fn, "__code__", None)
                if code is not None and code.co_filename == "<string>":
                    names[code] = f"{where}:{cls.__qualname__}.{name}"
    return names


def costliest(counts: Counter, stage: str, n: int, names: dict) -> list:
    """The n functions that ran the most bytecodes in a stage, as
    (file:qualname, count), ties by name. names gives the name of a code
    object whose own file and qualified name do not tell its class."""
    named = Counter()
    for (where, code), k in counts.items():
        if where == stage:
            name = names.get(code)
            if name is None:
                name = (f"{os.path.basename(code.co_filename)}:"
                        f"{code.co_qualname}")
            named[name] += k
    return sorted(named.items(), key=lambda item: (-item[1], item[0]))[:n]


def fixed_parts(fixed, limit) -> tuple:
    """The (seed, count, weight) parts of a build that make the first limit
    programs of the parts fixed, or all of them when limit is None."""
    out = []
    for seed, count, weight in fixed:
        if limit is not None:
            count = min(count, limit)
            limit -= count
        if count:
            out.append((seed, count, weight))
    return tuple(out)


def report(head: str, counts: Counter, stages, n: int, names: dict) -> None:
    """Print a block: its head and total, each stage's count and, under
    it, its n costliest functions."""
    totals = by_stage(counts, stages)
    print(f"{head}, {sum(totals.values()):,} bytecodes")
    for stage in stages:
        print(f"  {stage:10s} {totals[stage]:>12,}")
        for where, k in costliest(counts, stage, n, names):
            print(f"    {where} {k:,}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--limit", type=int, default=None,
                    help="count only the first N programs of each pool "
                    "and of the set-up")
    ap.add_argument("--by-function", type=int, default=0, metavar="N",
                    help="also print each stage's N costliest functions")
    args = ap.parse_args(argv)
    run, pkg = load()
    entries = {getattr(*entry_owner(pkg, *where)).__code__: stage
               for stage, where in ENTRIES.items()}
    names = generated_names([run] + [m for m in vars(pkg).values()
                                     if isinstance(m, types.ModuleType)])
    for name, spec, programs in pools(run, pkg, args.limit):
        counts = count_ops(lambda p: spec.run(pkg, p), programs, entries)
        report(f"{name}: {len(programs)} programs", counts, STAGES,
               args.by_function, names)

    entries = {pkg.harness.TermGen.term.__code__: "generate",
               pkg.surface.print_term.__code__: "print"}
    spec = run.WORKLOADS["rec-adequacy"]
    size = min(spec.count, args.limit or spec.count)
    counts = count_ops(lambda _: spec.build(pkg, spec.default_seed, None,
                                            size), [None], entries)
    report(f"{spec.name} set-up: {size} programs", counts, REC_SETUP_STAGES,
           args.by_function, names)

    # A copy of the workload whose build makes only its fixed programs.
    spec = copy.copy(run.WORKLOADS["recfree-text"])
    spec.fixed = fixed_parts(spec.fixed, args.limit)
    spec.seeded = ()
    counts = count_ops(lambda _: spec.build(pkg, spec.default_seed, None),
                       [None], entries)
    report(f"{spec.name} set-up: {sum(p[1] for p in spec.fixed)} programs",
           counts, SETUP_STAGES, args.by_function, names)
    return 0


if __name__ == "__main__":
    sys.exit(main())
