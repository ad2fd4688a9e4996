"""The experiment scripts under scripts/ start and accept --help."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def test_scripts_exist():
    assert SCRIPTS


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_help(script):
    # An uninstalled checkout: the package comes from src/ alone, so a
    # script importing a name the package no longer has fails here.
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(script), "--help"],
                          env=dict(os.environ, PYTHONPATH=path), cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage:")


def _load_script(name):
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_answers_reports_counts_but_fails_on_answers_only():
    compare = _load_script("compare_answers").compare
    base = {"labels": ["a", "b"], "answers": ["1", "2"],
            "counts": {"opsem.step.calls": 10, "opsem.prob.calls": 2}}
    same, differ = compare("w", base, dict(base))
    assert same == ["w: 0 of 2 answers differ"] and not differ
    moved = dict(base, counts={"opsem.step.calls": 12,
                               "opsem.prob.calls": 2})
    lines, differ = compare("w", moved, base)
    assert lines == ["w: 0 of 2 answers differ",
                     "  count opsem.step.calls: 10 there, 12 here"]
    assert not differ
    lines, differ = compare("w", dict(base, answers=["1", "3"]), base)
    assert lines == ["w: 1 of 2 answers differ",
                     "  answer b: 2 there, 3 here"] and differ
    many = dict(base, labels=list("abcdefg"), answers=["0"] * 7)
    lines, differ = compare("w", dict(many, answers=["1"] * 7), many)
    assert lines[0] == "w: 7 of 7 answers differ" and differ
    assert lines[1:] == [f"  answer {c}: 0 there, 1 here" for c in "abcde"]
    lines, differ = compare("w", dict(base, labels=["a", "c"]), base)
    assert differ and "different programs" in lines[0]
    # Equal labels name positions only: the printed terms must match too.
    printed = dict(base, sources=["*", "(produce (ret *))"])
    lines, differ = compare("w", printed, dict(printed))
    assert lines[0] == "w: 0 of 2 answers differ" and not differ
    lines, differ = compare(
        "w", dict(printed, sources=["*", "(produce (ret 1))"]), printed)
    assert lines == ["w: the checkouts build different programs, "
                     "first at b"] and differ


def test_compare_answers_fails_on_rendered_values():
    compare = _load_script("compare_answers").compare
    base = {"labels": ["a", "b"], "answers": ["1", "2"], "counts": {},
            "values": ["must{dist{1/2 @ 1, 1/2 @ 2}}", "bot"]}
    lines, differ = compare("w", base, dict(base))
    assert lines == ["w: 0 of 2 answers differ",
                     "w: 0 of 2 rendered values differ"] and not differ
    # Same answers, entries in another order.
    swapped = dict(base, values=["must{dist{1/2 @ 2, 1/2 @ 1}}", "bot"])
    lines, differ = compare("w", swapped, base)
    assert lines == ["w: 0 of 2 answers differ",
                     "w: 1 of 2 rendered values differ",
                     "  value a: must{dist{1/2 @ 1, 1/2 @ 2}} there, "
                     "must{dist{1/2 @ 2, 1/2 @ 1}} here"] and differ


def test_compare_answers_fails_on_bounds_but_not_on_steps():
    compare = _load_script("compare_answers").compare
    base = {"labels": ["a", "b"], "answers": ["1", "2"], "counts": {},
            "bounds": [["Fraction(1, 2)", "Fraction(1, 2)", 9],
                       ["Fraction(0, 1)", "Fraction(1, 1)", 40]]}
    lines, differ = compare("w", base, dict(base))
    assert lines == ["w: 0 of 2 answers differ",
                     "w: 0 of 2 engine bounds differ",
                     "w: 0 of 2 step counts differ "
                     "(49 steps there, 49 here)"] and not differ
    # Same bounds in fewer steps: listed, never a failure.
    fewer = dict(base, bounds=[base["bounds"][0][:2] + [7],
                               base["bounds"][1]])
    lines, differ = compare("w", fewer, base)
    assert lines == ["w: 0 of 2 answers differ",
                     "w: 0 of 2 engine bounds differ",
                     "w: 1 of 2 step counts differ "
                     "(49 steps there, 47 here)",
                     "  steps a: 9 there, 7 here"] and not differ
    # An upper bound that moved fails the run, with the same answers.
    upper = dict(base, bounds=[base["bounds"][0],
                               ["Fraction(0, 1)", "Fraction(3, 4)", 40]])
    lines, differ = compare("w", upper, base)
    assert lines[1:3] == [
        "w: 1 of 2 engine bounds differ",
        "  bounds b: [Fraction(0, 1), Fraction(1, 1)] there, "
        "[Fraction(0, 1), Fraction(3, 4)] here"] and differ
    # So does a lower bound, and with it the exact flag.
    exact = dict(base, bounds=[base["bounds"][0],
                               ["Fraction(1, 1)", "Fraction(1, 1)", 40]])
    lines, differ = compare("w", exact, base)
    assert lines[1] == "w: 1 of 2 engine bounds differ" and differ


def test_compare_answers_renders_the_evaluated_values():
    # Only the workloads whose answers carry just the mass are rendered,
    # and a rendering is render_value of the program's evaluated term.
    code = (
        "import json, sys, tempfile\n"
        f"sys.path[:0] = [{str(ROOT / 'scripts')!r}, {str(ROOT / 'bench')!r}]\n"
        "import compare_answers, run\n"
        "run.prepare()\n"
        "out = {}\n"
        "for name in compare_answers.RENDERED:\n"
        "    with tempfile.TemporaryDirectory() as wd:\n"
        "        pkg, programs, _, _ = run.setup(run.WORKLOADS[name], 7, wd,\n"
        "                                        size=6)\n"
        "    d = pkg.densem\n"
        "    out[name] = [(compare_answers.rendered(pkg, p.source),\n"
        "                  d.render_value(d.evaluate(p.source).value))\n"
        "                 for p in programs]\n"
        "print(json.dumps(out))\n")
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout)
    assert sorted(out) == ["rec-adequacy", "recfree-text"]
    for pairs in out.values():
        assert pairs and all(got == want for got, want in pairs)


def test_compare_answers_traces_count_metrics():
    # A small rec-free pool through the benchmark's own tracer, twice:
    # only count metrics come back, and they repeat exactly.
    code = (
        "import json, sys, tempfile\n"
        f"sys.path[:0] = [{str(ROOT / 'scripts')!r}, {str(ROOT / 'bench')!r}]\n"
        "import compare_answers, run\n"
        "run.prepare()\n"
        "spec = run.WORKLOADS['recfree-text']\n"
        "with tempfile.TemporaryDirectory() as wd:\n"
        "    pkg, programs, _, _ = run.setup(spec, 7, wd, size=8)\n"
        "    print(json.dumps([compare_answers.traced_counts(\n"
        "        run, spec, pkg, programs) for _ in range(2)]))\n")
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    first, second = json.loads(done.stdout)
    assert first == second
    assert "opsem.step.calls" in first and "opsem.step.self_s" not in first
    assert first["opsem.step.calls"] == first["opsem.steps_used"] > 0


def test_count_ops_repeats_its_counts_by_stage():
    # A few programs of each pool and of each set-up, counted in two
    # processes with different hash seeds: every count repeats, and each
    # block's stages sum to its total.
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    outputs = []
    for hash_seed in ("1", "2"):
        done = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "count_ops.py"),
             "--limit", "3"],
            env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=hash_seed),
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    lines = outputs[0].splitlines()
    assert len(lines) == 21
    pools = {}
    for head, rows in ((lines[0], lines[1:7]), (lines[7], lines[8:14]),
                       (lines[14], lines[15:17]), (lines[17], lines[18:21])):
        name, rest = head.split(": ")
        assert rest.startswith("3 programs, ") and rest.endswith(" bytecodes")
        total = int(rest.split(", ")[1].split()[0].replace(",", ""))
        stages = {row.split()[0]: int(row.split()[1].replace(",", ""))
                  for row in rows}
        assert sum(stages.values()) == total
        pools[name] = stages
    assert list(pools) == ["rec-adequacy", "recfree-text",
                           "rec-adequacy set-up", "recfree-text set-up"]
    for name in ("rec-adequacy", "recfree-text"):
        assert list(pools[name]) == ["parse", "elaborate", "engine",
                                     "solve", "evaluate", "other"]
    # rec-adequacy's set-up generates, and keeps the recursive programs
    # (has_rec, under other); recfree-text's generates and prints each one.
    setup = pools.pop("rec-adequacy set-up")
    assert list(setup) == ["generate", "other"]
    assert setup["generate"] > 0 and setup["other"] > 0
    setup = pools.pop("recfree-text set-up")
    assert list(setup) == ["generate", "print", "other"]
    assert setup["generate"] > 0 and setup["print"] > 0
    # rec-adequacy's programs are terms and never parsed; every other stage
    # runs in both pools.
    assert pools["rec-adequacy"]["parse"] == 0
    assert pools["recfree-text"]["parse"] > 0
    assert all(stages[stage] > 0 for stages in pools.values()
               for stage in ("elaborate", "engine", "solve", "evaluate",
                             "other"))


def test_count_ops_by_function_repeats_its_rankings():
    # The costliest functions of each stage, counted in two processes with
    # different hash seeds: the rankings repeat, at most two per stage, in
    # falling order, each within its stage's count.
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    outputs = []
    for hash_seed in ("1", "2"):
        done = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "count_ops.py"),
             "--limit", "3", "--by-function", "2"],
            env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=hash_seed),
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    ranked = {}
    for line in outputs[0].splitlines():
        if line.startswith("    "):
            where, count = line.split()
            assert ".py:" in where or where.startswith("<")
            ranked[row].append(int(count.replace(",", "")))
        elif line.startswith("  "):
            row = line
            ranked[row] = []
    assert len(ranked) == 17
    for row, counts in ranked.items():
        total = int(row.split()[1].replace(",", ""))
        assert len(counts) == (0 if total == 0 else 2)
        assert counts == sorted(counts, reverse=True)
        assert sum(counts) <= total


def test_count_ops_names_generated_methods_by_their_class():
    # dataclasses compile the methods they generate from strings, so each
    # one's code reads <string>:__create_fn__.<locals>.<method> whatever its
    # class; --by-function names it by its module and class instead.
    from cbpvdp import syntax

    names = _load_script("count_ops").generated_names([syntax])
    assert names[syntax.Var.__init__.__code__] == "syntax.py:Var.__init__"
    assert names[syntax.Seq.__eq__.__code__] == "syntax.py:Seq.__eq__"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "count_ops.py"),
         "--limit", "3", "--by-function", "5"],
        env=dict(os.environ, PYTHONPATH=path),
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    rows = [line.split()[0] for line in done.stdout.splitlines()
            if line.startswith("    ")]
    # Five under each stage that ran: eleven of the pools', two of
    # rec-adequacy's set-up and three of recfree-text's.
    assert len(rows) == 80
    assert not [where for where in rows if "__create_fn__" in where]


def test_stage_times_shares_sum_to_the_whole():
    # One pass over a few programs of each pool: a line per stage under
    # each pool's head, with the seconds and a share, the shares summing to
    # 100% up to rounding.
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "stage_times.py"),
         "--limit", "3", "--repeat", "1"],
        env=dict(os.environ, PYTHONPATH=path),
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 15
    for head, rows in ((lines[0], lines[1:7]), (lines[7], lines[8:14])):
        assert head.startswith(("rec-adequacy: 3 programs, best of 1 passes",
                                "recfree-text: 3 programs, best of 1 passes"))
        total = float(head.rsplit(", ", 1)[1].removesuffix(" s"))
        stages, seconds, shares = [], [], []
        for row in rows:
            stage, secs, unit, share = row.split()
            assert unit == "s" and share.endswith("%")
            stages.append(stage)
            seconds.append(float(secs))
            shares.append(float(share[:-1]))
        assert stages == ["parse", "elaborate", "engine", "solve", "evaluate",
                          "other"]
        assert abs(sum(shares) - 100) <= 0.3
        assert abs(sum(seconds) - total) <= 0.0005 * len(rows)
    assert lines[0].startswith("rec-adequacy") and lines[1].split()[1:] == [
        "0.0000", "s", "0.0%"]
    # The last line: adequacy_check's fixed cost, a positive time.
    head, _, cost = lines[14].rpartition(", ")
    assert head == ("adequacy_check(produce (ret *)): best of 1 runs of "
                    "2000 calls")
    assert cost.endswith(" us a call")
    assert float(cost.split()[0]) > 0


def test_bench_pairs_runs_a_checkout_against_itself():
    # One pair of the shortest runs: a line per end-to-end metric of
    # BENCHMARK.json, with both medians, the change, the parent's spread
    # and the pairs won.
    metrics = [m["name"] for m in
               json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_pairs.py"), str(ROOT),
         str(ROOT), "--workload", "corpus-cli", "--pairs", "1",
         "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "corpus-cli: 1 pairs of 0 s runs, alternated"
    assert lines[1].split() == ["metric", "parent", "change", "change",
                                "parent", "IQR", "wins"]
    rows = [line.split() for line in lines[2:]]
    assert [row[0] for row in rows] == metrics
    for name, parent, change, rel, iqr, wins in rows:
        assert float(parent) > 0 and float(change) > 0
        assert rel.endswith("%") and iqr == "0.0%"
        assert wins in ("0/1", "1/1")
    shares = {row[0]: row for row in rows}
    assert shares["correct_share"][1:3] == ["1", "1"]
