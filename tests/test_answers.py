"""Pinned answers: the answers of the three benchmark workloads' programs.

One line per program records what both semantics answer on it, and the
test compares a SHA-256 of the lines with ANSWERS_DIGEST. A change that
should move no answer leaves the digest as it is. A change that moves an
answer on purpose updates the digest and lists the moved answers, as
scripts/compare_answers.py prints them against the parent checkout, in
CHANGES.md. The rec-adequacy verdicts are also pinned as counts, so a
verdict that moves shows as a count diff.

The programs are the benchmark's: rec-adequacy's pool of 1,000 recursive
terms, recfree-text's 600 fixed programs given as text, and run and eval
on every corpus file through the command line.
"""

import contextlib
import hashlib
import io
from collections import Counter
from fractions import Fraction
from pathlib import Path

from cbpvdp import cli, densem, harness, opsem, typecheck
from cbpvdp.harness import GenPolicy, TermGen
from cbpvdp.surface import parse, print_term
from cbpvdp.syntax import FVUNIT, fraction_text

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

ANSWERS_DIGEST = (
    "69553d0583cd6425ed2ba9338569e3b25bba08c0a3d97e8990969ab876f68f42")


def _rec_adequacy_lines():
    gen = TermGen(GenPolicy(max_depth=6, seed=303, rec_probability=0.35,
                            omega_weight=1))
    lines = []
    while len(lines) < 1000:
        term = gen.term(FVUNIT)
        if not harness.has_rec(term):
            continue
        core = typecheck.check(term, FVUNIT)
        rep = harness.adequacy_check(core, max_budget=50_000)
        op = opsem.pr_limit(core, max_budget=50_000)
        out = densem.evaluate(core)
        lines.append(
            f"rec-{len(lines)} {rep.verdict} {fraction_text(rep.op_lower)} "
            f"{fraction_text(rep.op_upper)} {fraction_text(rep.den_mass)} "
            f"steps={op.steps_used} exact={op.exact} "
            f"{densem.render_value(out.value)} exact={out.exact}")
    return lines


def _recfree_text_lines():
    lines = []
    for seed, count, om in ((101, 520, 0), (202, 80, 1)):
        gen = TermGen(GenPolicy(max_depth=7, seed=seed, omega_weight=om))
        for i in range(count):
            core = typecheck.check(parse(print_term(gen.term(FVUNIT))),
                                   FVUNIT)
            op = opsem.pr_limit(core, epsilon=Fraction(0),
                                max_budget=10 ** 5)
            out = densem.evaluate(core)
            lines.append(
                f"s{seed}-{i} {fraction_text(op.lower)} "
                f"{fraction_text(op.upper)} steps={op.steps_used} "
                f"exact={op.exact} {densem.render_value(out.value)} "
                f"exact={out.exact}")
    return lines


def _corpus_lines():
    lines = []
    for path in sorted(CORPUS.glob("*.cbpv")):
        for cmd in ("run", "eval"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(["--format", "records", cmd, str(path)])
            lines.append(f"{path.name} {cmd} {code} {out.getvalue()!r}")
    return lines


def answer_lines():
    return _rec_adequacy_lines() + _recfree_text_lines() + _corpus_lines()


def test_answers_are_pinned(monkeypatch):
    for name in ("EPSILON", "MAX_BUDGET", "REC_DEPTH", "SEED", "FORMAT"):
        monkeypatch.delenv(f"CBPVDP_{name}", raising=False)
    digest = hashlib.sha256("\n".join(answer_lines()).encode())
    assert digest.hexdigest() == ANSWERS_DIGEST


def test_rec_adequacy_verdicts_are_counted():
    verdicts = Counter(line.split()[1] for line in _rec_adequacy_lines())
    assert verdicts == Counter({"exact-match": 967, "convergent": 32,
                                "inconclusive": 1, "violation": 0})
