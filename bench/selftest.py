#!/usr/bin/env python3
"""Self-test of the benchmark, at a tiny size per workload.

    python3 bench/selftest.py

For each workload it checks that every metric named in BENCHMARK.json is
printed with its unit, in the untraced and the traced run; that counts
repeat exactly across two runs; that the report records the Python version,
core count, seed, program count, tail percentile and reason; and that a
reference tampered by 1/2 is counted as failed.
"""

from __future__ import annotations

import json
import sys
import tempfile

import run

TINY = {"recfree-text": 12, "rec-adequacy": 12, "corpus-cli": 12}
REPORT_KEYS = ("python", "nproc", "seed", "programs", "why")
COUNT_UNITS = run.COUNT_UNITS + ("share",)


def expect(condition, message):
    """A check that also holds under python -O, unlike assert."""
    if not condition:
        raise AssertionError(message)


def counts(result):
    return (result["attempted"], result["failed"],
            {k: v["value"] for k, v in result["metrics"].items()
             if v["unit"] in COUNT_UNITS})


def check_workload(name, spec):
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    for trace in (0, 1):
        first, report = run.run_benchmark(name, None, 0, trace, TINY[name])
        second, _ = run.run_benchmark(name, None, 0, trace, TINY[name])
        units = {k: v["unit"] for k, v in first["metrics"].items()}
        expect(units == wanted[trace], f"{name}: metrics {units}")
        expect(first["correct"] and second["correct"], f"{name}: not correct")
        expect(counts(first) == counts(second), f"{name}: counts differ")
        for key in REPORT_KEYS + (() if trace else ("tail_percentile",
                                                    "tail_samples")):
            expect(key in report, f"{name}: report lacks {key}")

    workload = run.WORKLOADS[name]
    with tempfile.TemporaryDirectory(prefix=".bench_work-",
                                     dir=run.ROOT) as workdir:
        pkg, programs, _, _ = run.setup(workload, workload.default_seed,
                                        workdir, TINY[name])
        refs = [workload.reference(pkg, p) for p in programs]
        _, _, answers = run.run_pass(workload, pkg, programs)
    honest = run.tally_answers(workload, programs, answers, refs)
    tampered = run.tally_answers(workload, programs, answers,
                                 [workload.tamper(r) for r in refs])
    expect(honest["wrong"] == 0, f"{name}: wrong answers {honest}")
    expect(tampered["wrong"] > 0, f"{name}: tampered references pass")
    if name == "recfree-text":
        expect(tampered["failed"] == len(programs), f"{name}: {tampered}")


def main() -> int:
    if not run.prepare():
        print("error: run inside a checkout", file=sys.stderr)
        return 2
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json workloads differ from run.WORKLOADS")
    for name in run.WORKLOADS:
        check_workload(name, spec)
        print(f"ok {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
