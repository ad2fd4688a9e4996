"""Oracle, generator, differential checks, probe families, corpus files."""

import dataclasses
import hashlib
import itertools
import random
from dataclasses import fields
from fractions import Fraction

import pytest

from cbpvdp import harness, surface
from cbpvdp.syntax import (
    FVUNIT, INT, UNIT, VUNIT, ArrowT, DistT, ProdT, ProducerT, ThunkT,
)
from cbpvdp import typecheck
from cbpvdp.opsem import pr_limit
from cbpvdp.densem import Table, evaluate, hstar, render_value
from cbpvdp.harness import (
    AdequacyReport, GenPolicy, OracleOverrun, TermGen, adequacy_campaign,
    adequacy_check, generate, has_rec, load_corpus_file, obs_probe_terms,
    oracle_prob,
    parallel_or_probe, parse_expectations, rejection_sampler, sampler_mass,
    sampler_probe,
)


def s(text):
    return surface.parse(text)


# Oracle ----------------------------------------------------------------------


def test_oracle_on_settled_terms():
    assert oracle_prob(s("produce (ret *)"), 0) == 1
    assert oracle_prob(s("abort[F V unit]"), 0) == 1
    assert oracle_prob(s("produce (ret * (+) omega[V unit])"), 1) == \
        Fraction(1, 2)
    assert oracle_prob(s("produce (omega[V unit])"), 50) == 0


def test_oracle_gate_behaviour():
    passing = s("obs[1/2] (produce (ret *)) ; produce (ret *)")
    refuted = s("obs[1/2] (produce (ret * (+) omega[V unit])) ; "
                "produce (ret *)")
    assert oracle_prob(passing, 1) == 1
    assert oracle_prob(refuted, 5) == 0


def test_oracle_is_monotone_in_depth():
    probe = sampler_probe(0)
    prev = Fraction(-1)
    for k in range(0, 8):
        cur = oracle_prob(probe, k)
        assert cur >= prev
        prev = cur


def test_oracle_matches_sampler_closed_form():
    for i in (0, 1, 2):
        probe = sampler_probe(i)
        for k in range(0, 11):
            assert oracle_prob(probe, k) == sampler_mass(k)


def test_oracle_step_cap():
    with pytest.raises(OracleOverrun):
        oracle_prob(sampler_probe(0), 40, step_cap=100)


def test_oracle_rejects_ill_typed():
    with pytest.raises(typecheck.TypeCheckError):
        oracle_prob(s("produce *"), 4)


# Generator -------------------------------------------------------------------


def test_generator_is_deterministic_in_seed():
    a = [generate(FVUNIT, GenPolicy(seed=5, max_depth=5)) for _ in range(1)]
    b = [generate(FVUNIT, GenPolicy(seed=5, max_depth=5)) for _ in range(1)]
    assert a == b
    gen1 = TermGen(GenPolicy(seed=5, max_depth=5))
    gen2 = TermGen(GenPolicy(seed=5, max_depth=5))
    for _ in range(25):
        assert gen1.term(FVUNIT) == gen2.term(FVUNIT)


def test_generator_output_typechecks():
    targets = [FVUNIT, VUNIT, INT, UNIT, ProdT(UNIT, INT),
               ThunkT(FVUNIT), ArrowT(INT, FVUNIT)]
    gen = TermGen(GenPolicy(seed=7, max_depth=5, rec_probability=0.3,
                            omega_weight=1))
    for ty in targets:
        for _ in range(20):
            t = gen.term(ty)
            assert typecheck.synth(t) == ty


def test_generator_rec_free_really_is_rec_free():
    from cbpvdp.syntax import Rec

    def has_rec(t):
        if isinstance(t, Rec):
            return True
        from dataclasses import fields, is_dataclass
        if not is_dataclass(t):
            return False
        for f in fields(t):
            v = getattr(t, f.name)
            if is_dataclass(v) and has_rec(v):
                return True
        return False

    gen = TermGen(GenPolicy(seed=3, max_depth=6))
    for _ in range(50):
        assert not has_rec(gen.term(FVUNIT))


# SHA-256 of print_term over two terms at each type former per policy of the
# grid below, pinned from the generator that built a menu of closures per
# node: the generator must keep drawing the same terms from the same seeds.
GEN_DIGEST = (
    "c0961ec86b1ee46f2f645beaa030ec0cd33d778a9f71e0277f69ea1e38f08198")
GEN_TYPES = (UNIT, INT, ProdT(INT, UNIT), DistT(INT), ThunkT(FVUNIT),
             ProducerT(INT), ArrowT(UNIT, FVUNIT))


def test_generator_output_is_pinned():
    digest = hashlib.sha256()
    grid = itertools.product((1, 2, 3), (0, 1, 5, 7), (0, 0.35, 1),
                             (0, 1, 2), (False, True))
    for seed, depth, rec, om, obs in grid:
        gen = TermGen(GenPolicy(max_depth=depth, seed=seed,
                                rec_probability=rec, omega_weight=om,
                                allow_obs=obs))
        for ty in GEN_TYPES:
            for _ in range(2):
                digest.update(surface.print_term(gen.term(ty)).encode())
                digest.update(b"\n")
    assert digest.hexdigest() == GEN_DIGEST


def test_generator_policy_is_fixed_and_checked():
    policy = GenPolicy(omega_weight=2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        policy.omega_weight = 3
    with pytest.raises(ValueError, match="omega_weight"):
        GenPolicy(omega_weight=-1)
    # The values the CLI's --rec-probability and --max-depth refuse.
    for field, bad in (("rec_probability", 1.5), ("rec_probability", -0.2),
                       ("rec_probability", float("nan")), ("max_depth", -3)):
        with pytest.raises(ValueError, match=field):
            GenPolicy(**{field: bad})


def test_generator_draws_below_n_as_random_does():
    # TermGen._below makes random's own draw below n in place. From equal
    # states it must give what randrange, randint and choice give and leave
    # the same state, so that a change to those methods fails here by name
    # and not only in GEN_DIGEST.
    draws = (lambda r, n: r.randrange(n), lambda r, n: r.randint(0, n - 1),
             lambda r, n: r.choice(range(n)))
    ref = random.Random()
    for seed in range(5):
        gen = TermGen(GenPolicy(seed=seed))
        for n in range(1, 41):
            for draw in draws:
                ref.setstate(gen.rng.getstate())
                want = draw(ref, n)
                assert gen._below(n) == want
                assert gen.rng.getstate() == ref.getstate()


@pytest.mark.parametrize("depth", [0, 3])
def test_generator_refuses_an_unknown_type(depth):
    with pytest.raises(TypeError, match="cannot generate"):
        TermGen(GenPolicy()).term("int", depth)


# Differential checks ---------------------------------------------------------


def test_rec_free_terms_agree_exactly():
    gen = TermGen(GenPolicy(seed=31, max_depth=6, omega_weight=1))
    for _ in range(200):
        t = gen.term(FVUNIT)
        want = oracle_prob(t, 4)
        res = pr_limit(t, epsilon=Fraction(0), max_budget=10 ** 5)
        assert res.exact, surface.print_term(t)
        assert res.lower == want, surface.print_term(t)


def test_adequacy_exact_match():
    rep = adequacy_check(s("produce (ret * (+) omega[V unit])"))
    assert rep.verdict == "exact-match"
    assert rep.op_lower == rep.den_mass == Fraction(1, 2)
    assert rep.op_exact and rep.den_exact


def test_adequacy_convergent_when_only_evaluator_settles():
    # the engine cannot close this loop (its context grows each unfolding),
    # but the evaluator hits the bottom fixed point in one iteration
    t = s("produce (rec u : V unit. (do x : unit <- u in ret x))")
    rep = adequacy_check(t, max_budget=4096)
    assert rep.verdict == "convergent"
    assert not rep.op_exact and rep.den_exact
    assert rep.op_lower == rep.den_mass == 0


# A non-tail self-call: each unfolding pushes a frame, so the engine's graph
# never closes, and the evaluator's iterates square their mass each round.
OPEN_GRAPH = "rec u : V unit. (ret * (+) (do x : unit <- u in u))"


def test_adequacy_inconclusive_when_neither_settles():
    t = s(f"produce ({OPEN_GRAPH})")
    rep = adequacy_check(t, epsilon=Fraction(1, 10 ** 9), max_budget=2048,
                         rec_depth=8, tolerance=Fraction(1, 10 ** 9))
    assert rep.verdict == "inconclusive"
    assert not rep.op_exact and not rep.den_exact
    assert rep.op_lower < rep.op_upper == 1


def test_adequacy_violation_when_evaluator_mass_exceeds_upper_bound(
        monkeypatch):
    # The hanging arm makes the engine's upper bound exactly 1/2 while its
    # lower bound is still open, so only the upper bound refutes an
    # evaluator that claims mass 3/4.
    t = s(f"produce (omega[V unit] (+) ({OPEN_GRAPH}))")
    honest = adequacy_check(t, max_budget=512, rec_depth=8)
    assert honest.verdict == "inconclusive"
    assert honest.op_upper == Fraction(1, 2) and not honest.op_exact
    monkeypatch.setattr(harness.densem, "hstar", lambda v: Fraction(3, 4))
    rep = adequacy_check(t, max_budget=512, rec_depth=8)
    assert rep.verdict == "violation"
    assert rep.detail == "evaluator mass above certified upper bound"


def _verdict(monkeypatch, op_lower, op_upper, den_mass, den_exact):
    """adequacy_check's verdict and detail on a trivial program, with the
    engine's bounds and the evaluator's mass and exactness substituted."""
    from cbpvdp.opsem import ProbResult

    real = harness.densem.evaluate
    monkeypatch.setattr(harness.opsem, "pr_limit", lambda core, **_: (
        ProbResult(op_lower, op_upper, 0)))
    monkeypatch.setattr(harness.densem, "evaluate", lambda core, **kw: (
        dataclasses.replace(real(core, **kw), exact=den_exact)))
    monkeypatch.setattr(harness.densem, "hstar", lambda v: den_mass)
    rep = adequacy_check(s("produce (ret *)"))
    return rep.verdict, rep.detail


def test_adequacy_verdicts_on_substituted_results(monkeypatch):
    q, h = Fraction(1, 4), Fraction(1, 2)
    assert _verdict(monkeypatch, h, h, q, True) == \
        ("violation", "both exact yet 1/2 != 1/4")
    assert _verdict(monkeypatch, h, h, q, False) == \
        ("inconclusive", "evaluator far below exact probability")
    assert _verdict(monkeypatch, h, 1, q, True) == \
        ("violation", "certified bound above exact probability")
    assert _verdict(monkeypatch, q, 1, h, True) == \
        ("inconclusive", "engine far below exact probability")
    # Both exact yet different, with a probability past Python's integer
    # string limit: the detail prints it in full.
    big = Fraction(10 ** 5000, 10 ** 5000 + 1)
    assert _verdict(monkeypatch, big, big, h, True) == \
        ("violation", "both exact yet 1" + "0" * 5000 + "/1" + "0" * 4999
         + "1 != 1/2")


def _shifting_product(n):
    """produce (ret (pi1 (rec p. (*, (first of p, (second of p, ...)))))) at
    the right-nested product of n units: each round shifts * one place, so
    the iterates settle after n + 1 rounds."""
    ty = "unit"
    for _ in range(n - 1):
        ty = f"unit * ({ty})"
    parts, path = ["*"], "p"
    for _ in range(n - 1):
        parts.append(f"pi1 ({path})")
        path = f"pi2 ({path})"
    body = parts[-1]
    for part in reversed(parts[:-1]):
        body = f"({part}, {body})"
    return f"produce (ret (pi1 (rec p : {ty} . {body})))"


def test_adequacy_evaluates_once(monkeypatch):
    calls = []
    run = harness.densem.evaluate
    monkeypatch.setattr(harness.densem, "evaluate", lambda term, **kw: (
        calls.append(kw) or run(term, **kw)))
    rep = adequacy_check(s(_shifting_product(10)))
    assert rep.verdict == "exact-match" and rep.den_mass == 1
    assert calls == [dict(rec_depth=harness.densem.DEFAULT_REC_DEPTH)]
    # eleven rounds are needed, so depth 8 alone stays inexact
    assert not adequacy_check(s(_shifting_product(10)), rec_depth=8).den_exact


@pytest.mark.parametrize("text", [
    "produce (ret *)",
    "produce (rec u : V unit. (ret * (+) (do x : unit <- u in u)))",
])
def test_result_records_built_in_c_are_their_classes(text):
    # adequacy_check builds its report with tuple.__new__, and evaluate
    # fills its outcome's fields directly; both equal, field by field, the
    # records built through their classes.
    rep = adequacy_check(s(text), max_budget=512, rec_depth=8)
    again = AdequacyReport(*rep)
    assert type(rep) is AdequacyReport and rep == again
    assert rep._asdict() == again._asdict() and repr(rep) == repr(again)
    assert rep.op_exact is (rep.op_lower == rep.op_upper)
    # Defaults stay those of the class.
    short = AdequacyReport(*rep[:6])
    assert (short.detail, short.op_upper) == ("", 1)
    out = evaluate(typecheck.check(s(text), FVUNIT), rec_depth=8)
    through = harness.densem.EvalOutcome(out.value, out.ty, out.exact)
    assert out == through and vars(out) == vars(through)
    assert repr(out) == repr(through)
    flipped = dataclasses.replace(out, exact=not out.exact)
    assert (flipped.value, flipped.ty, flipped.exact) == \
        (out.value, out.ty, not out.exact)
    with pytest.raises(dataclasses.FrozenInstanceError):
        out.exact = False


def test_adequacy_campaign_runs_clean():
    pol = GenPolicy(seed=13, max_depth=5, rec_probability=0.3, omega_weight=1)
    reports = adequacy_campaign(40, pol, max_budget=20_000)
    assert len(reports) == 40
    assert all(isinstance(r, AdequacyReport) for r in reports)
    assert not [r for r in reports if r.verdict == "violation"]


def _kept_attributes(term):
    """Attributes held by any node of the term beyond its dataclass fields."""
    found, stack = [], [term]
    while stack:
        node = stack.pop()
        names = {f.name for f in fields(node)}
        extra = set(vars(node)) - names
        if extra:
            found.append((type(node).__name__, sorted(extra)))
        stack.extend(v for v in (getattr(node, n) for n in names)
                     if hasattr(v, "span"))
    return found


def test_runs_keep_no_facts_on_the_callers_term():
    # Free variables, keys and the elaborated type are kept on the nodes
    # the run builds from the caller's term, never on the term itself.
    gen = TermGen(GenPolicy(seed=303, max_depth=6, rec_probability=0.35,
                            omega_weight=1))
    terms = [t for t in (gen.term(FVUNIT) for _ in range(60)) if has_rec(t)]
    assert len(terms) >= 5
    for term in terms[:5]:
        assert _kept_attributes(term) == []
        rep = adequacy_check(term, max_budget=20_000)
        assert rep.term is term
        pr_limit(term, max_budget=20_000)
        evaluate(term, rec_depth=8)
        oracle_prob(term, 1)
        assert _kept_attributes(term) == []


# Probe families --------------------------------------------------------------


def test_sampler_closed_form_values():
    assert sampler_mass(0) == 0
    assert sampler_mass(1) == Fraction(1, 4)
    assert sampler_mass(2) == Fraction(5, 16)
    limit = Fraction(1, 3)
    assert all(sampler_mass(k) < limit for k in range(20))


def test_sampler_probe_engine_bound():
    res = pr_limit(sampler_probe(0), max_budget=10 ** 4)
    assert res.lower >= Fraction(1, 3) - Fraction(1, 10 ** 6)
    assert res.lower <= Fraction(1, 3)


def test_parallel_or_probes():
    good, make_left, make_right = parallel_or_probe()
    left, right = make_left(good), make_right(good)
    lop = pr_limit(left, max_budget=10 ** 5)
    rop = pr_limit(right, max_budget=10 ** 5)
    assert (lop.lower, lop.exact) == (1, True)
    assert (rop.lower, rop.exact) == (0, True)
    lden = evaluate(left, rec_depth=1)
    tab = Table()
    rden = evaluate(right, rec_depth=1, tab=tab)
    assert lden.exact and render_value(lden.value) == "must{dist{1 @ tt}}"
    assert rden.exact and rden.value is tab.fbot()
    assert hstar(lden.value) == 1
    assert hstar(rden.value) == 0


def test_obs_probes():
    passing, at_bound = obs_probe_terms()
    pop = pr_limit(passing, max_budget=10 ** 5)
    bop = pr_limit(at_bound, max_budget=10 ** 5)
    assert (pop.lower, pop.exact) == (1, True)
    assert (bop.lower, bop.exact) == (0, True)
    pden = evaluate(passing, rec_depth=4)
    bden = evaluate(at_bound, rec_depth=4)
    assert pden.exact and hstar(pden.value) == 1
    assert bden.exact and hstar(bden.value) == 0


def test_rejection_sampler_shape():
    from cbpvdp.syntax import DistT
    t = rejection_sampler()
    assert typecheck.synth(t) == DistT(INT)


# Corpus files ----------------------------------------------------------------


def test_parse_expectations():
    text = ("# a coin\n"
            "# expect: pr_lower=1/2 pr_exact=true kind=coin\n"
            "# expect: hstar=1/2\n"
            "produce (ret * (+) omega[V unit])\n")
    exp = parse_expectations(text)
    assert exp == {"pr_lower": Fraction(1, 2), "pr_exact": True,
                   "kind": "coin", "hstar": Fraction(1, 2)}


def test_expectation_with_zero_denominator_stays_a_string(tmp_path):
    # A value that reads as a rational over 0 is kept as its raw string, so
    # one bad header does not stop the file from loading.
    assert parse_expectations("# expect: mass=1/0 pr_lower=1/2\n") == \
        {"mass": "1/0", "pr_lower": Fraction(1, 2)}
    p = tmp_path / "bad.cbpv"
    p.write_text("# expect: mass=1/0\nproduce (ret *)\n")
    assert load_corpus_file(p).expectations == {"mass": "1/0"}


def test_load_corpus_file(tmp_path):
    p = tmp_path / "coin.cbpv"
    p.write_text("# expect: pr_lower=1/2 pr_exact=true\n"
                 "produce (ret * (+) omega[V unit])\n")
    entry = load_corpus_file(p)
    assert entry.name == "coin"
    assert entry.expectations["pr_lower"] == Fraction(1, 2)
    t = s(entry.text)
    res = pr_limit(t)
    assert res.lower == entry.expectations["pr_lower"]
    assert res.exact is entry.expectations["pr_exact"]
