"""Acceptance gate.

One test per release criterion, so a verbose run prints one pass/fail
line for each. Every comparison here is exact rational arithmetic; there
are no float tolerances anywhere except the advertised convergence gap of
one in ten to the sixth, which is itself checked as a rational.
"""

from __future__ import annotations

import itertools
import random
import time
from fractions import Fraction

from cbpvdp import densem, opsem, typecheck
from cbpvdp import harness
from cbpvdp.harness import GenPolicy, TermGen
from cbpvdp.surface import Parser, parse, print_term
from cbpvdp.syntax import (
    FVUNIT, INT, UNIT, VUNIT,
    Ifz, NumLit, Produce, ProducerT, Rec, Ret, Star, Term, Var,
    and_then, case_tag, eq0_then, eq1_then, omega, pcase, pif_le, plug, por,
    pswitch, psum,
)

ZERO = Fraction(0)
ONE = Fraction(1)
GAP = Fraction(1, 10 ** 6)

FINT = ProducerT(INT)


def _bot_int() -> Term:
    return Rec("b", INT, Var("b"))


def _bot_unit() -> Term:
    return Rec("b", UNIT, Var("b"))


# ---------------------------------------------------------------------------
# 1. The two semantics agree exactly on a large terminating corpus.


def test_exact_agreement_on_terminating_corpus():
    started = time.perf_counter()
    rec_free = 0
    with_omega = 0
    for seed, count, om in ((101, 5200, 0), (202, 800, 1)):
        gen = TermGen(GenPolicy(max_depth=7, seed=seed, omega_weight=om))
        for _ in range(count):
            term = gen.term(FVUNIT)
            if om == 0:
                assert not harness.has_rec(term)
            op = opsem.pr_limit(term, epsilon=ZERO, max_budget=10 ** 5)
            out = densem.evaluate(term)
            assert op.exact, f"engine not exact on {print_term(term)}"
            assert out.exact, f"evaluator not exact on {print_term(term)}"
            mass = densem.hstar(out.value)
            assert op.lower == mass, (
                f"{op.lower} != {mass} on {print_term(term)}")
            if om == 0:
                rec_free += 1
            else:
                with_omega += 1
    elapsed = time.perf_counter() - started
    assert rec_free >= 5000
    assert with_omega >= 500
    assert elapsed < 120, f"corpus took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2. On recursive terms both routes produce monotone, mutually consistent
#    approximant sequences, and settle the known values: exactly where the
#    engine's configuration graph closes, to within the gap otherwise.


def test_consistent_bounds_on_recursive_corpus():
    gen = TermGen(GenPolicy(max_depth=6, seed=303,
                            rec_probability=0.35, omega_weight=1))
    terms = []
    while len(terms) < 1000:
        t = gen.term(FVUNIT)
        if harness.has_rec(t):
            terms.append(t)

    for term in terms:
        core = typecheck.check(term, FVUNIT)
        cfg = opsem.initial_config(core)
        results = [opsem.prob(cfg, k) for k in (16, 32, 64, 128)]
        assert all(a.lower <= b.lower and b.upper <= a.upper
                   for a, b in zip(results, results[1:])), \
            f"engine bounds not monotone on {print_term(term)}"
        masses = [densem.hstar(densem.evaluate(term, rec_depth=d).value)
                  for d in (2, 4, 8)]
        assert all(a <= b for a, b in zip(masses, masses[1:])), \
            f"evaluator approximants not monotone on {print_term(term)}"
        report = harness.adequacy_check(term, max_budget=50_000)
        assert report.verdict != "violation", \
            f"{report.detail} on {print_term(term)}"
        if report.op_exact or report.den_exact:
            gap = abs(report.op_lower - report.den_mass)
            assert gap < GAP, (
                f"gap {gap} on known value of {print_term(term)}")

    # Fixed known values: the repeated fair coin is exactly one, and the
    # three-way sampler probes are exactly one third; each graph is closed.
    geo = parse("produce (rec u : V unit. (ret * (+) u))")
    g = opsem.pr_limit(geo)
    assert g.exact and g.lower == ONE
    third = Fraction(1, 3)
    for i in range(3):
        res = opsem.pr_limit(harness.sampler_probe(i), max_budget=10 ** 4)
        assert res.exact and res.lower == third


# ---------------------------------------------------------------------------
# 3. The rejection sampler matches its closed form at every unfolding
#    depth, and the engine closes the limit within the advertised budget.


def test_rejection_sampler_closed_form_and_limit():
    probe = harness.sampler_probe(0)
    for k in range(1, 11):
        got = harness.oracle_prob(probe, k)
        assert got == harness.sampler_mass(k), f"depth {k}: {got}"
    res = opsem.pr_limit(probe, max_budget=10 ** 4)
    third = Fraction(1, 3)
    assert res.lower <= third
    assert res.lower >= third - GAP


# ---------------------------------------------------------------------------
# 4. The parallel-disjunction probes separate: the racing candidate passes
#    the two-sided agreement test with probability one and fails the
#    three-sided one with probability zero, in both semantics.


def test_parallel_or_separation():
    good, make_left, make_right = harness.parallel_or_probe()
    left, right = make_left(good), make_right(good)

    lop = opsem.pr_limit(left)
    assert lop.exact and lop.lower == ONE
    rop = opsem.pr_limit(right)
    assert rop.exact and rop.lower == ZERO

    lden = densem.evaluate(left)
    assert lden.exact
    assert densem.render_value(lden.value) == "must{dist{1 @ tt}}"
    for depth in (1, 4, 64):
        rden = densem.evaluate(right, rec_depth=depth)
        assert rden.exact
        assert isinstance(rden.value, densem.FBot)


# ---------------------------------------------------------------------------
# 5. The statistical tester at bound 1/4 opens on mass one and stays shut
#    on mass exactly 1/4, in both semantics, with exact verdicts.


def test_threshold_tester_regression():
    passing, at_bound = harness.obs_probe_terms()

    p = opsem.pr_limit(passing)
    assert p.exact and p.lower == ONE
    q = opsem.pr_limit(at_bound)
    assert q.exact and q.lower == ZERO

    pd = densem.evaluate(passing)
    qd = densem.evaluate(at_bound)
    assert pd.exact and densem.hstar(pd.value) == ONE
    assert qd.exact and densem.hstar(qd.value) == ZERO


# ---------------------------------------------------------------------------
# 6. The semantic operators obey their algebraic laws on a thousand
#    randomized representable inputs per law, with exact equality.


def test_operator_laws_randomized():
    for name, trial in harness.LAW_TRIALS:
        rng = random.Random(f"9:{name}")
        for i in range(1000):
            try:
                trial(rng)
            except AssertionError as exc:
                raise AssertionError(f"{name} trial {i}: {exc}") from exc


# ---------------------------------------------------------------------------
# 7. Every derived form expands to the documented behavior, exhaustively
#    over defined and undefined scrutinees and guards.


def test_derived_forms_exhaustive():
    tab = densem.Table()

    def den(t, rd=8):
        out = densem.evaluate(t, rec_depth=rd, tab=tab)
        assert out.exact
        return out.value

    def fset_of(*tags):
        return densem.make_fset([tab.nat(t) for t in tags], tab)

    # Parallel threshold test: defined scrutinees pick a branch, the
    # undefined one hedges with the meet of both.
    for n in range(0, 4):
        lo, hi = Produce(NumLit(10 + n)), Produce(NumLit(20 + n))
        for s in range(0, 4):
            got = den(pif_le(n, NumLit(s), lo, hi))
            want = den(lo) if s <= n else den(hi)
            assert densem.sem_equal(got, want, tab), f"n={n} s={s}"
        got = den(pif_le(n, _bot_int(), lo, hi))
        assert densem.sem_equal(got, densem.meet(den(lo), den(hi), tab), tab)

    # The same, operationally, at the tester-argument type.
    for n in range(0, 3):
        for s in range(0, 4):
            t = pif_le(n, NumLit(s), Produce(Ret(Star())), omega(FVUNIT))
            res = opsem.pr_limit(t)
            want = ONE if s <= n else ZERO
            assert res.exact and res.lower == want, f"n={n} s={s}"

    # Parallel dispatch on tags 1..n: in range picks the branch, zero is
    # conflated with one by the truncated test (documented), above range
    # falls through to the empty menu, and the undefined scrutinee hedges
    # with the meet of all branches.
    for n in range(1, 4):
        branches = [Produce(NumLit(100 + i)) for i in range(1, n + 1)]
        for s in range(0, n + 2):
            got = den(pswitch(NumLit(s), branches, FINT))
            if 1 <= s <= n:
                want = fset_of(100 + s)
            elif s == 0:
                want = fset_of(101)
            else:
                want = tab.fset(())
            assert densem.sem_equal(got, want, tab), f"n={n} s={s}"
        got = den(pswitch(_bot_int(), branches, FINT))
        want = fset_of(*[100 + i for i in range(1, n + 1)])
        assert densem.sem_equal(got, want, tab), f"n={n} bottom"

    # Parallel disjunction over every pair of defined and undefined unit
    # values, in both semantics.
    for lv, rv in itertools.product((False, True), repeat=2):
        left = Star() if lv else _bot_unit()
        right = Star() if rv else _bot_unit()
        v = den(por(left, right))
        assert isinstance(v, densem.SUnit) and v.top == (lv or rv)
        res = opsem.pr_limit(Produce(Ret(por(left, right))),
                             max_budget=10 ** 4)
        want = ONE if (lv or rv) else ZERO
        assert res.exact and res.lower == want, f"l={lv} r={rv}"

    # Guard-driven tagging: a converging guard yields the empty menu, a
    # hanging guard yields exactly its tag.
    for tag in (1, 2, 3):
        assert densem.sem_equal(den(case_tag(Star(), tag)), tab.fset(()),
                                tab)
        assert densem.sem_equal(den(case_tag(_bot_unit(), tag)), fset_of(tag),
                                tab)

    # Demonic parallel case over every hang pattern of up to three guards:
    # the result is the meet of the branches whose guards hang, and the
    # empty menu when all guards converge.
    for n in range(1, 4):
        for bits in itertools.product((False, True), repeat=n):
            branches = [((_bot_unit() if hang else Star()),
                         Produce(NumLit(100 + i)))
                        for i, hang in enumerate(bits, start=1)]
            got = den(pcase(branches, FINT))
            enabled = [100 + i for i, hang in enumerate(bits, start=1) if hang]
            want = fset_of(*enabled) if enabled else tab.fset(())
            assert densem.sem_equal(got, want, tab), f"n={n} bits={bits}"

    # Uniform probabilistic sum: four quarters.
    quarters = den(psum([Ret(NumLit(i)) for i in range(4)]))
    want = densem.make_val([(Fraction(1, 4), tab.nat(i)) for i in range(4)],
                           tab)
    assert densem.skey(quarters) == densem.skey(want)

    # Convergence-gated sequencing helpers, including the documented
    # conflation of zero with one under the truncated equality test.
    hit = Produce(Ret(Star()))
    assert densem.hstar(den(eq0_then(Produce(NumLit(0)), hit))) == ONE
    assert densem.hstar(den(eq0_then(Produce(NumLit(1)), hit))) == ZERO
    assert densem.hstar(den(eq1_then(Produce(NumLit(1)), hit))) == ONE
    assert densem.hstar(den(eq1_then(Produce(NumLit(2)), hit))) == ZERO
    assert densem.hstar(den(eq1_then(Produce(NumLit(0)), hit))) == ONE
    assert densem.hstar(den(and_then(Produce(Star()), hit))) == ONE


# ---------------------------------------------------------------------------
# 8. Structural invariants of the step engine hold with zero failures over
#    a mixed fuzz corpus: budget monotonicity of both bounds, the bounds
#    against one step of the machine, plugging back into the context,
#    preservation of typing along every reachable configuration, and the
#    bounds bracketing the independent oracle on rec-free terms.


def _successors(outcome):
    if isinstance(outcome, opsem.Det):
        return [outcome.next]
    if isinstance(outcome, (opsem.SplitPChoice, opsem.SplitNChoice)):
        return [outcome.left, outcome.right]
    if isinstance(outcome, opsem.SplitPifz):
        return [outcome.via_ifz, outcome.left, outcome.right]
    if isinstance(outcome, opsem.ObsGate):
        return [outcome.inner, outcome.cont]
    return []


def _check_config_invariants(cfg, budget=24):
    outcome = opsem.step(cfg)
    assert not isinstance(outcome, opsem.Stuck), outcome

    # Typing is preserved: plugging each reachable configuration's focus
    # back into its context gives a closed well-typed term of the
    # tester-argument type.
    for succ in _successors(outcome):
        typecheck.check(plug(succ.ctx, succ.focus), FVUNIT)

    # A larger budget explores a larger graph: the lower bound rises, the
    # upper bound falls, and exactness is stable once reached.
    results = [opsem.prob(cfg, k) for k in (8, 16, 32)]
    for earlier, later in zip(results, results[1:]):
        assert earlier.lower <= later.lower <= later.upper <= earlier.upper
        if earlier.exact:
            assert later.exact and later.lower == earlier.lower

    # The bounds against one step of the machine: the graph explored from a
    # configuration with one more step of budget covers the graphs of its
    # successors, so its bounds are at least as tight as the step's
    # equation applied to theirs.
    here = opsem.prob(cfg, budget + 1)
    if isinstance(outcome, opsem.Terminal):
        assert here.lower == here.upper == ONE
        return outcome
    succ = [opsem.prob(s, budget) for s in _successors(outcome)]
    lowers = [r.lower for r in succ]
    uppers = [r.upper for r in succ]
    if isinstance(outcome, opsem.ObsGate):
        inner, cont = succ
        lower = cont.lower if inner.lower > outcome.bound else ZERO
        upper = (ZERO if inner.upper <= outcome.bound else
                 cont.upper if inner.lower > outcome.bound else ONE)
    else:
        lower, upper = _one_step(outcome, lowers), _one_step(outcome, uppers)
    assert lower <= here.lower and here.upper <= upper
    return outcome


def _one_step(outcome, xs):
    """The equation of a non-gate step outcome over its successors' values."""
    if isinstance(outcome, opsem.Det):
        return xs[0]
    if isinstance(outcome, opsem.SplitPChoice):
        return (xs[0] + xs[1]) / 2
    if isinstance(outcome, opsem.SplitNChoice):
        return min(xs)
    return max(xs[0], min(xs[1], xs[2]))


def test_step_engine_structural_invariants():
    policies = (GenPolicy(max_depth=6, seed=404),
                GenPolicy(max_depth=6, seed=505, omega_weight=1),
                GenPolicy(max_depth=5, seed=606,
                          rec_probability=0.3, omega_weight=1))
    configs_checked = 0
    for policy in policies:
        gen = TermGen(policy)
        for _ in range(120):
            term = gen.term(FVUNIT)
            core = typecheck.check(term, FVUNIT)
            frontier = [opsem.initial_config(core)]
            seen_here = 0
            while frontier and seen_here < 10:
                cfg = frontier.pop(0)
                outcome = _check_config_invariants(cfg)
                seen_here += 1
                frontier.extend(_successors(outcome))
            configs_checked += seen_here
    assert configs_checked >= 2000, configs_checked


def _bracket_misses(seed, om, count=150):
    """Every way the engine fails the oracle on count generated programs:
    a budget whose bounds do not bracket the oracle's answer, or a last run
    that is not exact."""
    gen = TermGen(GenPolicy(max_depth=6, seed=seed, omega_weight=om))
    misses = []
    for _ in range(count):
        term = gen.term(FVUNIT)
        truth = harness.oracle_prob(term, 0)
        cfg = opsem.initial_config(typecheck.check(term, FVUNIT))
        for budget in (2, 6, 24, 10 ** 4):
            res = opsem.prob(cfg, budget)
            if not res.lower <= truth <= res.upper:
                misses.append(f"{budget}: {res} against {truth} on "
                              f"{print_term(term)}")
        if not res.exact:
            misses.append(f"not exact: {print_term(term)}")
    return misses


def test_bounds_bracket_the_oracle_on_rec_free_terms():
    # The derivation-tree oracle is exact on rec-free terms and on omega
    # leaves. It reads the term as given while the engine reads the
    # elaborated core, so they share nothing but the syntax tree.
    for seed, om in ((707, 0), (808, 1)):
        assert _bracket_misses(seed, om) == []


def test_the_oracle_catches_an_elaborator_that_swaps_ifz_branches(
        monkeypatch):
    # A fault seeded in the elaborator reaches the engine but not the
    # oracle. Omega leaves are needed: at omega_weight 0 every generated
    # run terminates, so both branches of every ifz have probability 1.
    elab = typecheck._ELAB

    def swapped_ifz(term, scope):
        scrut, _, scrut_id = elab[type(term.scrut)](term.scrut, scope)
        z, ty, z_id = elab[type(term.if_zero)](term.if_zero, scope)
        nz, _, nz_id = elab[type(term.if_nonzero)](term.if_nonzero, scope)
        node = Ifz(scrut, nz, z)
        node._node_ty = ty
        return node, ty, typecheck._stamp(node, (Ifz, scrut_id, nz_id, z_id),
                                          scope.ids)

    monkeypatch.setitem(elab, Ifz, swapped_ifz)
    assert len(_bracket_misses(808, 1)) >= 10


# Two applied arms that differ only in whether the inner binder shadows x:
# the first tests its inner x, 0, and converges; the second tests the outer
# x, 1, and hangs. Their demonic choice has probability 0.
_HANG = "(force (rec z : U F V unit. z))"
SHADOWING = (
    f"(\\x : int. \\x : int. ifz x (produce (ret *)) {_HANG}) 1 0 /\\ "
    f"(\\x : int. \\y : int. ifz x (produce (ret *)) {_HANG}) 1 0")


class _KeepOuterScope(typecheck._Scope):
    """A seeded fault: binding a name that is bound already keeps the outer
    entry, so an occurrence of a shadowing name gets the outer binder's
    index. Leaving a binder still unbinds its name."""

    __slots__ = ()

    def __setitem__(self, name, entry):
        if entry is None or self.get(name) is None:
            super().__setitem__(name, entry)


def test_the_oracle_catches_an_elaborator_that_ignores_shadowing(
        monkeypatch):
    term = parse(SHADOWING)
    op = opsem.pr_limit(term, epsilon=ZERO, max_budget=10 ** 4)
    assert (op.lower, op.upper, op.exact) == (ZERO, ZERO, True)
    assert densem.hstar(densem.evaluate(term).value) == ZERO
    # The oracle reads the unchecked tree, which no elaborator fault can
    # reach.
    source = Parser(SHADOWING).parse_term()
    assert harness.oracle_prob(source, 0) == ZERO
    # Under the fault the first arm's core keeps its inner x by name but
    # takes the ids of the second arm, so the engine, which keys its
    # configurations by id, gives the second arm the first one's answer.
    # The oracle reads the source, and the engine's bounds no longer
    # bracket its answer. With the arms the other way round the engine
    # answers 0 and the fault goes unseen. parse checks the text, so the
    # faulty run's term is parsed once the fault is in place.
    monkeypatch.setattr(typecheck, "_Scope", _KeepOuterScope)
    op = opsem.pr_limit(parse(SHADOWING), epsilon=ZERO, max_budget=10 ** 4)
    assert op.lower > harness.oracle_prob(source, 0)
