#!/usr/bin/env python3
"""Compare the benchmark's per-program answers of this checkout and another.

    python3 scripts/compare_answers.py OTHER_CHECKOUT [--seed N]

For every workload of bench/run.py, each checkout builds its programs and
runs them once untimed and once under the benchmark's tracer, in a
subprocess of its own that imports that checkout's bench/ and src/. An
answer is what the workload's run() returns: the verdict and bounds, the
steps used, the CLI exit code and record fields. The script prints, per
workload, how many programs answer differently and, for the first five of
them, the other checkout's answer and this one's, then every per-layer
count metric (calls, steps, ratios; not times) of the traced pass that
differs between the checkouts. On the workloads whose answers carry only
the evaluator's mass (RENDERED), it also diffs densem.render_value of each
program's evaluated value, so a change of entry or generator order shows;
corpus-cli's eval answers carry that rendering already. It exits 1 on any
differing answer or rendered value, or when the checkouts build different
program lists; counts alone never fail it, because a change to how the work
is done moves them while every answer stays the same. --seed is the
benchmark's run seed (default: each workload's own).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Workloads whose programs keep their term as `source`, evaluated at the
# default depth as the workload's own run does.
RENDERED = ("recfree-text", "rec-adequacy")


def dump(checkout: str, workload: str, seed) -> int:
    """Child mode: print the labels and answers of one untimed pass."""
    sys.path.insert(0, str(Path(checkout) / "bench"))
    import run  # the checkout's own bench/run.py

    if not run.prepare():
        print(f"error: no cbpvdp sources under {checkout}", file=sys.stderr)
        return 2
    spec = run.WORKLOADS[workload]
    seed = spec.default_seed if seed is None else seed
    with tempfile.TemporaryDirectory(prefix=".bench_work-",
                                     dir=run.ROOT) as workdir:
        pkg, programs, _, _ = run.setup(spec, seed, workdir)
        _, _, answers = run.run_pass(spec, pkg, programs)
        counts = traced_counts(run, spec, pkg, programs)
    out = {"labels": [p.label for p in programs],
           "answers": [repr(a) for a in answers],
           "counts": counts}
    if workload in RENDERED:
        out["values"] = [rendered(pkg, p.source) for p in programs]
    json.dump(out, sys.stdout)
    return 0


def rendered(pkg, term) -> str:
    """The evaluator's value of a term as render_value prints it, or the
    error it raised."""
    try:
        return pkg.densem.render_value(pkg.densem.evaluate(term).value)
    except Exception as e:
        return f"raised {type(e).__name__}"


def traced_counts(run, spec, pkg, programs) -> dict:
    """The count metrics of one pass under the benchmark's tracer."""
    t = run.install_tracer(pkg)
    try:
        run.run_pass(spec, pkg, programs)
    finally:
        t.uninstall()
    values = run.layer_values(t.stats, len(programs), 1.0)
    return {name: values[name] for name, unit, _ in run.LAYER_METRICS
            if unit in run.COUNT_UNITS}


def compare(workload: str, mine: dict, theirs: dict) -> tuple:
    """The report lines for one workload, and whether any answer or
    rendered value differs (or the program lists do)."""
    if mine["labels"] != theirs["labels"]:
        return [f"{workload}: the checkouts build different programs"], True
    bad = [(label, there, here) for label, here, there in
           zip(mine["labels"], mine["answers"], theirs["answers"])
           if here != there]
    lines = [f"{workload}: {len(bad)} of {len(mine['labels'])} answers differ"]
    lines += [f"  answer {label}: {there} there, {here} here"
              for label, there, here in bad[:5]]
    if "values" in mine:
        moved = [(label, there, here) for label, here, there in
                 zip(mine["labels"], mine["values"], theirs["values"])
                 if here != there]
        lines.append(f"{workload}: {len(moved)} of {len(mine['labels'])} "
                     "rendered values differ")
        lines += [f"  value {label}: {there} there, {here} here"
                  for label, there, here in moved[:5]]
        bad += moved
    for name in sorted(mine["counts"].keys() | theirs["counts"].keys()):
        here, there = mine["counts"].get(name), theirs["counts"].get(name)
        if here != there:
            lines.append(f"  count {name}: {there} there, {here} here")
    return lines, bool(bad)


def answers_of(checkout: Path, workload: str, seed) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), str(checkout),
           "--dump", workload]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    out = subprocess.run(cmd, capture_output=True, text=True)
    if out.returncode:
        sys.exit(f"{workload} in {checkout} failed:\n{out.stderr}")
    return json.loads(out.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("other", help="path of the other checkout")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--dump", metavar="WORKLOAD", default=None,
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.dump is not None:
        return dump(args.other, args.dump, args.seed)

    other = Path(args.other).resolve()
    sys.path.insert(0, str(ROOT / "bench"))
    import run

    differ = False
    for workload in run.WORKLOADS:
        lines, bad = compare(workload, answers_of(ROOT, workload, args.seed),
                             answers_of(other, workload, args.seed))
        print("\n".join(lines))
        differ = differ or bad
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
