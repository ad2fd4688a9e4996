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


def _load_compare_answers():
    spec = importlib.util.spec_from_file_location(
        "compare_answers", ROOT / "scripts" / "compare_answers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_answers_reports_counts_but_fails_on_answers_only():
    compare = _load_compare_answers().compare
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
    compare = _load_compare_answers().compare
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
    # A few programs of each pool, counted in two processes with different
    # hash seeds: every count repeats, and each pool's stages sum to its
    # total.
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
    assert len(lines) == 12
    pools = {}
    for head, rows in ((lines[0], lines[1:6]), (lines[6], lines[7:12])):
        name, rest = head.split(": ")
        assert rest.startswith("3 programs, ") and rest.endswith(" bytecodes")
        total = int(rest.split(", ")[1].split()[0].replace(",", ""))
        stages = {row.split()[0]: int(row.split()[1].replace(",", ""))
                  for row in rows}
        assert list(stages) == ["parse", "elaborate", "engine", "evaluate",
                                "other"]
        assert sum(stages.values()) == total
        pools[name] = stages
    assert list(pools) == ["rec-adequacy", "recfree-text"]
    # rec-adequacy's programs are terms and never parsed; every other stage
    # runs in both pools.
    assert pools["rec-adequacy"]["parse"] == 0
    assert pools["recfree-text"]["parse"] > 0
    assert all(stages[stage] > 0 for stages in pools.values()
               for stage in ("elaborate", "engine", "evaluate", "other"))
