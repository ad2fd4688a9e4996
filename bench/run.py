#!/usr/bin/env python3
"""Benchmark of cbpvdp: three workloads, end-to-end metrics, layer tracing.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/selftest.py

Run from anywhere inside a checkout; the package is imported from the
checkout's src/ and corpus/ is read from its root. Load is one process, one
thread, closed loop: each program starts when the previous one finishes.
A pass runs every program of the workload once; passes repeat until the
time is up (at least MIN_PASSES of them).

Timings. Each program's time is scaled to a reference machine speed (see
speed.py) and its time in the run is the median over passes. From those:
programs_per_s is the program count over their sum, program_ms.p50 their
median, program_ms.tail the highest of TAIL_PERCENTILES with ten programs
beyond it. setup_s is the median of SETUP_REPEATS fresh imports of the
package plus input generation and rendering; references are computed after
it, outside every timed span.

With --trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
traced run, whose untraced and traced passes alternate (see tracer.py). The
line before it is a JSON report: Python version, core count, seed, program
count, the tail percentile and its sample count, raw wall times and the
reason for the workload.

Every answer is checked against a reference that does not come from the
code under test (see the workload classes). A wrong answer or an exception
counts as failed and never stops the run; `correct` turns false only on a
wrong answer, an answer or count that changes between passes, or a traced
answer that differs from the untraced one.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CORPUS = ROOT / "corpus"
sys.path.insert(0, str(BENCH_DIR))

import speed  # noqa: E402
import tracer  # noqa: E402

MIN_PASSES = 3
CAL_EVERY_S = 0.25
CAL_LONG_S = 0.005
SETUP_REPEATS = 5
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75, 50)
GAP = Fraction(1, 10 ** 6)
HALF = Fraction(1, 2)
MODULES = ("syntax", "surface", "typecheck", "opsem", "densem", "harness",
           "cli")


class Pkg:
    """The package's modules, freshly imported."""

    def __init__(self):
        for name in [m for m in sys.modules
                     if m == "cbpvdp" or m.startswith("cbpvdp.")]:
            del sys.modules[name]
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"cbpvdp.{name}"))


class Program:
    __slots__ = ("label", "payload", "source")

    def __init__(self, label, payload, source=None):
        self.label = label
        self.payload = payload
        self.source = source


def _shuffled(items, seed):
    items = list(items)
    random.Random(seed).shuffle(items)
    return items


# ---------------------------------------------------------------------------
# Workloads. build() is set-up and is timed as setup_s; reference() runs once
# outside the timed passes; run() is one timed program; judge() returns
# (ok, decided) for an answer against its reference.


class RecfreeText:
    name = "recfree-text"
    default_seed = 101
    why = ("many small rec-free programs given as source text, so time is "
           "spread over parse, elaborate, step and evaluate")
    # (generator seed, count, omega_weight): the acceptance gate's mix of
    # omega leaves off and on, 13 to 2. The fixed part keeps timings
    # comparable across run seeds, whose medians otherwise differ by up to
    # a tenth; the seeded part gives every run programs not seen before.
    fixed = ((101, 520, 0), (202, 80, 1))
    seeded = (130, 20)

    def build(self, pkg, seed, workdir, size=None):
        rng = random.Random(seed)
        parts = self.fixed + tuple((rng.randrange(1 << 30), count, om)
                                   for count, om in zip(self.seeded, (0, 1)))
        if size is not None:
            parts = ((seed, size - size // 4, 0), (seed + 1, size // 4, 1))
        out = []
        for gen_seed, count, om in parts:
            gen = pkg.harness.TermGen(pkg.harness.GenPolicy(
                max_depth=7, seed=gen_seed, omega_weight=om))
            for i in range(count):
                term = gen.term(pkg.syntax.FVUNIT)
                out.append(Program(f"s{gen_seed}-{i}",
                                   pkg.surface.print_term(term), term))
        return out

    def reference(self, pkg, program):
        # The derivation-tree oracle is exact on rec-free and omega-leaf
        # programs; it shares only the syntax tree and the elaborator.
        return pkg.harness.oracle_prob(program.source, 0)

    def run(self, pkg, program):
        term = pkg.surface.parse(program.payload)
        op = pkg.opsem.pr_limit(term, epsilon=Fraction(0), max_budget=10 ** 5)
        out = pkg.densem.evaluate(term)
        return (op.lower, op.exact, op.steps_used,
                pkg.densem.hstar(out.value), out.exact)

    def judge(self, answer, ref):
        lower, op_exact, _steps, mass, den_exact = answer
        ok = _bounded(lower, op_exact, ref) and _bounded(mass, den_exact, ref)
        return ok, ok and op_exact and den_exact

    def tamper(self, ref):
        return ref + HALF if ref <= HALF else ref - HALF


def _bounded(value, exact, truth):
    """A sound lower bound never exceeds the truth and equals it when exact."""
    return value == truth if exact else value <= truth


class RecAdequacy:
    name = "rec-adequacy"
    default_seed = 303
    why = ("recursive programs as ASTs through adequacy_check, so time goes "
           "to configuration keys, budget doubling and evaluator re-runs")
    pool_seed = 303
    count = 1000

    def build(self, pkg, seed, workdir, size=None):
        # The pool is the acceptance gate's seed-303 programs and stays
        # fixed; the run seed fixes their order only. Recursive generator
        # output is heavy-tailed: 3 of these 1000 take about 70% of a pass,
        # a pass over the first 1000 of generator seed 7 takes a third as
        # long, and generator seed 11 yields a program on which
        # adequacy_check raises ValueError (a Fraction too long to print).
        gen = pkg.harness.TermGen(pkg.harness.GenPolicy(
            max_depth=6, seed=self.pool_seed, rec_probability=0.35,
            omega_weight=1))
        out = []
        while len(out) < (size or self.count):
            term = gen.term(pkg.syntax.FVUNIT)
            if pkg.harness.has_rec(term):
                out.append(Program(f"rec-{len(out)}", term, term))
        return _shuffled(out, seed)

    def reference(self, pkg, program):
        # A lower bound on the true probability from the independent oracle,
        # which counts every recursion unfolding as divergence.
        try:
            return pkg.harness.oracle_prob(program.source, 0)
        except pkg.harness.OracleOverrun:
            return Fraction(0)

    def run(self, pkg, program):
        r = pkg.harness.adequacy_check(program.payload, max_budget=50_000)
        return (r.verdict, r.op_lower, r.op_exact, r.den_mass, r.den_exact)

    def judge(self, answer, ref):
        verdict, op_lower, op_exact, den_mass, den_exact = answer
        ok = verdict != "violation"
        # Re-derive consistency here instead of trusting the verdict alone.
        if op_exact and den_exact:
            ok = ok and op_lower == den_mass
        elif op_exact:
            ok = ok and den_mass <= op_lower
        elif den_exact:
            ok = ok and op_lower <= den_mass
        if op_exact:
            ok = ok and op_lower >= ref
        if den_exact:
            ok = ok and den_mass >= ref
        return ok, ok and verdict in ("exact-match", "convergent")

    def tamper(self, ref):
        return ref + HALF


class CorpusCli:
    name = "corpus-cli"
    default_seed = 0
    why = ("every corpus file and harness probe through cli.main run/eval "
           "in-process, the user-facing path with few long engine runs")

    def build(self, pkg, seed, workdir, size=None):
        h = pkg.harness
        good, make_left, make_right = h.parallel_or_probe()
        passing, at_bound = h.obs_probe_terms()
        third, one, zero = Fraction(1, 3), Fraction(1), Fraction(0)
        probes = [(f"sampler{i}", h.sampler_probe(i),
                   dict(truth=third, within=GAP)) for i in range(3)]
        probes += [("por-left", make_left(good), dict(eq=one, exact=True)),
                   ("por-right", make_right(good), dict(eq=zero, exact=True)),
                   ("obs-pass", passing, dict(eq=one, exact=True)),
                   ("obs-at-bound", at_bound, dict(eq=zero, exact=True))]
        out = []
        for path in sorted(CORPUS.glob("*.cbpv")):
            exp = _expectations(path.read_text())
            for cmd in ("run", "eval"):
                out.append(Program(f"{path.stem}:{cmd}",
                                   ["--format", "records", cmd, str(path)],
                                   _corpus_ref(cmd, exp)))
        for label, term, ref in probes:
            path = Path(workdir) / f"{label}.cbpv"
            path.write_text(pkg.surface.print_term(term) + "\n")
            for cmd in ("run", "eval"):
                out.append(Program(f"{label}:{cmd}",
                                   ["--format", "records", cmd, str(path)],
                                   dict(ref, cmd=cmd)))
        # The known stack overflow of the step engine at epsilon zero; both
        # raise RecursionError at the time of writing.
        for stem, truth in (("geometric", one),
                            ("sampler_outcome0", third)):
            out.append(Program(f"{stem}:run-eps0",
                               ["--format", "records", "--epsilon", "0",
                                "--max-budget", "1000", "run",
                                str(CORPUS / f"{stem}.cbpv")],
                               dict(truth=truth, cmd="run")))
        if size is not None:
            out = out[:size]
        return _shuffled(out, seed)

    def reference(self, pkg, program):
        return program.source

    def run(self, pkg, program):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()):
            code = pkg.cli.main(list(program.payload))
        fields = {}
        for line in buf.getvalue().splitlines():
            if "=" in line:
                key, value = line.split("=", 1)
                fields[key] = value
        return (code, tuple(sorted(fields.items())))

    def judge(self, answer, ref):
        code, fields = answer
        fields = dict(fields)
        key = "lower" if ref["cmd"] == "run" else "mass"
        if code != 0 or key not in fields or "exact" not in fields:
            return False, False
        value = Fraction(fields[key])
        exact = fields["exact"] == "true"
        ok = True
        if "eq" in ref:
            ok = ok and value == ref["eq"]
        if "min" in ref:
            ok = ok and value >= ref["min"]
        if "exact" in ref:
            ok = ok and exact is ref["exact"]
        if "truth" in ref:
            ok = ok and _bounded(value, exact, ref["truth"])
        if "within" in ref:
            ok = ok and ref["truth"] - value < ref["within"]
        if "type" in ref:
            ok = ok and fields.get("type", "").replace(" ", "") == ref["type"]
        pinned = ref.get("eq", ref.get("truth"))
        return ok, ok and exact and value == pinned

    def tamper(self, ref):
        ref = dict(ref)
        key = next(k for k in ("eq", "truth", "min") if k in ref)
        v = ref[key]
        ref[key] = v + HALF if key == "min" or v <= HALF else v - HALF
        return ref


def _expectations(text):
    """'# expect: key=value' headers, read here rather than through the
    harness so the reference stays outside the code under test."""
    out = {}
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("# expect:"):
            for chunk in line[len("# expect:"):].split():
                key, _, raw = chunk.partition("=")
                if raw in ("true", "false"):
                    out[key] = raw == "true"
                elif key == "type":
                    out[key] = raw
                else:
                    out[key] = Fraction(raw)
    return out


def _corpus_ref(cmd, exp):
    names = (dict(pr_lower="eq", pr_min_lower="min", pr_exact="exact")
             if cmd == "run" else
             dict(mass="eq", mass_min="min", mass_exact="exact", type="type"))
    ref = {names[k]: v for k, v in exp.items() if k in names}
    ref["cmd"] = cmd
    return ref


WORKLOADS = {w.name: w for w in (RecfreeText(), RecAdequacy(), CorpusCli())}


# ---------------------------------------------------------------------------
# Tracing: which functions are wrapped, and the per-layer metrics.


def install_tracer(pkg) -> tracer.Tracer:
    t = tracer.Tracer()
    steps = lambda args, result: result.steps_used  # noqa: E731
    t.wrap(pkg.surface, "parse", "surface.parse",
           amount=lambda args, result: len(args[0]))
    t.wrap(pkg.typecheck, "elaborate", "typecheck.elaborate")
    t.wrap(pkg.typecheck, "synth", "typecheck.synth")
    t.wrap(pkg.opsem, "pr_limit", "opsem.pr_limit", amount=steps)
    t.wrap(pkg.opsem, "prob", "opsem.prob", amount=steps)
    t.wrap(pkg.opsem, "step", "opsem.step")
    t.wrap(pkg.opsem.Configuration, "key", "opsem.Configuration.key")
    t.wrap(pkg.opsem, "substitute", "syntax.substitute")
    for owner, attr in ((pkg.opsem, "canon"), (pkg.opsem, "canon_frame"),
                        (pkg.densem, "canon")):
        t.wrap(owner, attr, "syntax.canon")
    for fn in ("evaluate", "make_val", "make_fset", "leq", "skey"):
        t.wrap(pkg.densem, fn, f"densem.{fn}")
    t.wrap(pkg.cli, "build_parser", "cli.build_parser")
    return t


LAYER_METRICS = (
    # name, unit, (stat, field) or a function of (stats, programs)
    ("surface.parse.calls", "count", ("surface.parse", tracer.CALLS)),
    ("surface.parse.self_s", "s", ("surface.parse", tracer.SELF_S)),
    ("surface.chars_per_s", "chars/s",
     lambda s, n: _ratio(s["surface.parse"][tracer.AMOUNT],
                         s["surface.parse"][tracer.INCL_S])),
    ("typecheck.elaborate.calls_per_program", "calls/program",
     lambda s, n: s["typecheck.elaborate"][tracer.CALLS] / n),
    ("typecheck.elaborate.self_s", "s",
     ("typecheck.elaborate", tracer.SELF_S)),
    ("typecheck.synth.calls", "count", ("typecheck.synth", tracer.CALLS)),
    ("opsem.Configuration.key.calls", "count",
     ("opsem.Configuration.key", tracer.CALLS)),
    ("opsem.Configuration.key.incl_s", "s",
     ("opsem.Configuration.key", tracer.INCL_S)),
    ("syntax.canon.self_s", "s", ("syntax.canon", tracer.SELF_S)),
    ("syntax.substitute.self_s", "s", ("syntax.substitute", tracer.SELF_S)),
    ("opsem.step.calls", "count", ("opsem.step", tracer.CALLS)),
    ("opsem.step.self_s", "s", ("opsem.step", tracer.SELF_S)),
    ("opsem.prob.calls", "count", ("opsem.prob", tracer.CALLS)),
    ("opsem.steps_used", "count", ("opsem.prob", tracer.AMOUNT)),
    ("opsem.deepen.useful_ratio", "ratio",
     lambda s, n: _ratio(s["opsem.pr_limit"][tracer.AMOUNT],
                         s["opsem.prob"][tracer.AMOUNT])),
    ("densem.evaluate.calls_per_program", "calls/program",
     lambda s, n: s["densem.evaluate"][tracer.CALLS] / n),
    ("densem.evaluate.incl_s", "s", ("densem.evaluate", tracer.INCL_S)),
    ("densem.make_val.calls", "count", ("densem.make_val", tracer.CALLS)),
    ("densem.make_val.self_s", "s", ("densem.make_val", tracer.SELF_S)),
    ("densem.make_fset.calls", "count", ("densem.make_fset", tracer.CALLS)),
    ("densem.make_fset.self_s", "s", ("densem.make_fset", tracer.SELF_S)),
    ("densem.leq.calls", "count", ("densem.leq", tracer.CALLS)),
    ("densem.skey.calls", "count", ("densem.skey", tracer.CALLS)),
    ("densem.skey.self_s", "s", ("densem.skey", tracer.SELF_S)),
    ("cli.build_parser.self_s", "s", ("cli.build_parser", tracer.SELF_S)),
)
COUNT_UNITS = ("count", "calls/program", "ratio")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_values(stats, programs, scale):
    """Per-layer metrics of one traced pass; times are multiplied by the
    pass's speed scale."""
    out = {}
    for name, unit, how in LAYER_METRICS:
        if callable(how):
            out[name] = how(stats, programs)
        else:
            out[name] = stats[how[0]][how[1]]
        if unit == "s":
            out[name] *= scale
        elif unit == "chars/s":
            out[name] /= scale
    return out


# ---------------------------------------------------------------------------
# Measurement.


def setup(workload, seed, workdir, size=None):
    """Import the package and build the inputs. Returns the package, the
    programs, and the scaled times of the whole set-up and of its
    generation-and-rendering part."""
    before = speed.sample()
    start = time.perf_counter()
    pkg = Pkg()
    gen_start = time.perf_counter()
    programs = workload.build(pkg, seed, workdir, size)
    end = time.perf_counter()
    scale = speed.factor(before, speed.sample())
    return pkg, programs, (end - start) * scale, (end - gen_start) * scale


def run_pass(workload, pkg, programs):
    """One closed-loop pass. Returns per-program wall times, the same times
    scaled to the reference speed, and the answers. The speed is sampled
    after every CAL_EVERY_S of program time and after every program longer
    than CAL_LONG_S, and each stretch is scaled by the samples around it."""
    clock = time.perf_counter
    times, scaled, answers = [], [], []
    last_sample = speed.sample()
    mark = clock()
    for program in programs:
        start = clock()
        try:
            answer = workload.run(pkg, program)
        except Exception as e:  # counted as failed, never stops the run
            answer = ("raised", type(e).__name__)
        end = clock()
        times.append(end - start)
        answers.append(answer)
        if (end - mark >= CAL_EVERY_S or end - start >= CAL_LONG_S
                or len(times) == len(programs)):
            new_sample = speed.sample()
            scale = speed.factor(last_sample, new_sample)
            scaled.extend(t * scale for t in times[len(scaled):])
            last_sample, mark = new_sample, clock()
    return times, scaled, answers


def percentile_tail(values):
    """The highest of TAIL_PERCENTILES with at least ten samples beyond it
    (the median when there are too few samples), by nearest rank; returns
    the value, the percentile and the number of samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = max(1, math.ceil(pct / 100 * n))
        if n - rank >= 10 or pct == TAIL_PERCENTILES[-1]:
            return ordered[rank - 1], pct, n - rank


def tally_answers(workload, programs, answers, refs):
    """Judge one pass's answers: counts of failed (wrong or raised), wrong
    and decided programs, and the labels of the failed ones."""
    wrong = decided = 0
    failed = {}
    for program, answer, ref in zip(programs, answers, refs):
        if answer[0] == "raised":
            failed[program.label] = answer[1]
            continue
        ok, pinned = workload.judge(answer, ref)
        if not ok:
            failed[program.label] = "wrong"
        wrong += not ok
        decided += pinned
    return dict(failed=len(failed), wrong=wrong, decided=decided,
                failed_programs=failed)


def run_benchmark(name, seed, seconds, trace, size=None):
    """Set up, compute references, measure; returns (result, report)."""
    workload = WORKLOADS[name]
    if seed is None:
        seed = workload.default_seed
    workdir = tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT)
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            # Each set-up starts from the same heap: the last one's package
            # and programs are dropped first.
            pkg = programs = None
            gc.collect()
            pkg, programs, setup_s, generate_s = setup(workload, seed,
                                                       workdir, size)
            setups.append((setup_s, generate_s))
        refs = [workload.reference(pkg, p) for p in programs]
        gc.collect()
        gc.freeze()
        measured = measure(workload, pkg, programs, seconds, trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    n = len(programs)
    first = measured["answers"][0]
    tally = tally_answers(workload, programs, first, refs)
    passes = len(measured["answers"])
    report = dict(
        workload=name, why=workload.why, seed=seed,
        python=platform.python_version(), nproc=os.cpu_count(),
        programs=n, passes=passes, traced=bool(trace),
        failed_share=tally["failed"] / n, decided=tally["decided"],
        failed_programs=tally["failed_programs"], wrong=tally["wrong"],
        answers_stable=measured["stable"],
        pass_wall_s=[round(sum(ts), 4) for ts in measured["times"]],
        pass_scaled_s=[round(sum(ts), 4) for ts in measured["scaled"]])
    if isinstance(workload, RecAdequacy):
        report["pool_seed"] = workload.pool_seed
        verdicts = {}
        for answer in first:
            verdicts[answer[0]] = verdicts.get(answer[0], 0) + 1
        report["verdicts"] = verdicts
    if trace:
        metrics = dict(measured["layers"])
        metrics["harness.generate.s"] = statistics.median(s[1] for s in setups)
        units = {m[0]: m[1] for m in LAYER_METRICS}
        units.update({"harness.generate.s": "s", "trace.overhead_s": "s"})
    else:
        per_program = [statistics.median(ts)
                       for ts in zip(*measured["scaled"])]
        wall = [statistics.median(ts) for ts in zip(*measured["times"])]
        tail, pct, beyond = percentile_tail(per_program)
        report.update(tail_percentile=pct, tail_samples_beyond=beyond,
                      tail_samples=n, wall_programs_per_s=n / sum(wall),
                      wall_program_ms_p50=1e3 * statistics.median(wall))
        metrics = {
            "programs_per_s": n / sum(per_program),
            "program_ms.p50": 1e3 * statistics.median(per_program),
            "program_ms.tail": 1e3 * tail,
            "decided_share": tally["decided"] / n,
            "correct_share": 1 - tally["failed"] / n,
            "setup_s": statistics.median(s[0] for s in setups),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"programs_per_s": "1/s", "program_ms.p50": "ms",
                 "program_ms.tail": "ms", "decided_share": "share",
                 "correct_share": "share", "setup_s": "s",
                 "peak_rss_mb": "MB"}
    result = dict(
        correct=tally["wrong"] == 0 and measured["stable"],
        attempted=n * passes, failed=tally["failed"] * passes,
        metrics={k: dict(value=v, unit=units[k]) for k, v in metrics.items()})
    return result, report


def measure(workload, pkg, programs, seconds, trace):
    """Untraced: passes until the time is up, at least MIN_PASSES. Traced:
    untraced and traced passes alternate until the time is up, at least one
    of each. Per-layer numbers are per pass: counts from the traced passes,
    which must agree, and scaled times as medians over them."""
    deadline = time.perf_counter() + seconds
    times, scaled, answers = [], [], []
    traced_scaled, traced_stats = [], []
    while True:
        ts, ss, ans = run_pass(workload, pkg, programs)
        times.append(ts)
        scaled.append(ss)
        answers.append(ans)
        if trace:
            t = install_tracer(pkg)
            ts, ss, ans = run_pass(workload, pkg, programs)
            t.uninstall()
            answers.append(ans)
            scale = _ratio(sum(ss), sum(ts))
            traced_scaled.append(sum(ss))
            traced_stats.append((t.stats, scale))
            if time.perf_counter() >= deadline:
                break
        elif len(times) >= MIN_PASSES and time.perf_counter() >= deadline:
            break
    out = dict(times=times, scaled=scaled, answers=answers,
               stable=all(a == answers[0] for a in answers))
    if trace:
        n = len(programs)
        per_pass = [layer_values(stats, n, scale)
                    for stats, scale in traced_stats]
        layers = {}
        for name, unit, _ in LAYER_METRICS:
            values = [p[name] for p in per_pass]
            if unit in COUNT_UNITS:
                out["stable"] &= all(v == values[0] for v in values)
                layers[name] = values[0]
            else:
                layers[name] = statistics.median(values)
        layers["trace.overhead_s"] = (statistics.median(traced_scaled)
                                      - statistics.median(map(sum, scaled)))
        out["layers"] = layers
    return out


def prepare() -> bool:
    """Put the checkout's sources on the path and drop CBPVDP_ settings from
    the environment, which would change the CLI's defaults. False when the
    checkout holds no sources."""
    if not (SRC / "cbpvdp" / "__init__.py").is_file() or not CORPUS.is_dir():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for key in [k for k in os.environ if k.startswith("CBPVDP_")]:
        del os.environ[key]
    return True


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed (default: the workload's own)")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not prepare():
        print(f"error: no cbpvdp sources under {ROOT}; run inside a checkout",
              file=sys.stderr)
        return 2
    result, report = run_benchmark(args.workload, args.seed, args.seconds,
                                   args.trace)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
