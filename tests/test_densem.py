"""Domain elements, the information order, combinators, evaluation."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cbpvdp import densem, harness, opsem, surface, typecheck
from cbpvdp.harness import GenPolicy, TermGen
from cbpvdp.syntax import (
    FVUNIT, INT, UNIT, VUNIT, ArrowT, DistT, Produce, ProdT, ProducerT, Ret,
    IdTable, ThunkT, Var, digits, open_id,
)
from cbpvdp.densem import (
    DomainError, FSet, LeqUndefined, SFun,
    apply_fun, bottom, evaluate, hstar, leq, make_fset, make_val, meet,
    obs_gate, qstar, render_value, sem_equal, skey, tmass, vdagger,
)

# Values built by hand, by the helpers and by val_of all come from this one
# table, so equal values are one object and == on them is identity.
T = densem.Table()
TOP = T.unit(True)
BOT = T.unit(False)
HALF = Fraction(1, 2)


def s(text):
    return surface.parse(text)


def dirac(x):
    return make_val(((Fraction(1), x),), T)


def val_of(term_text, rec_depth=64):
    return evaluate(s(term_text), rec_depth=rec_depth, tab=T)


# Normalization ---------------------------------------------------------------


def test_make_val_merges_and_sorts():
    v = make_val([(HALF, TOP), (Fraction(1, 4), TOP), (Fraction(1, 8), BOT)],
                 T)
    assert v == make_val([(Fraction(1, 8), BOT), (Fraction(3, 4), TOP)], T)
    assert tmass(v) == Fraction(3, 4)


def test_make_val_drops_zero_weights():
    assert make_val([(Fraction(0), TOP)], T) == T.val(())


def test_make_val_rejects_bad_mass():
    with pytest.raises(DomainError):
        make_val([(Fraction(3, 4), TOP), (HALF, BOT)], T)
    with pytest.raises(DomainError):
        make_val([(Fraction(-1, 4), TOP)], T)


def test_make_fset_dedupes_and_prunes_dominated():
    small = make_val([(HALF, TOP)], T)
    big = dirac(TOP)
    # big lies above small, so an adversary never benefits from keeping it
    assert make_fset([small, big], T) == T.fset((small,))
    assert make_fset([big, big], T) == T.fset((big,))


def test_skey_distinguishes():
    assert skey(TOP) != skey(BOT)
    assert skey(T.nat(3)) != skey(T.nat(4))
    assert skey(T.fbot()) != skey(T.fset(()))


# Bottoms and the order -------------------------------------------------------


def test_bottom_shapes():
    assert bottom(UNIT, T) == BOT
    assert bottom(INT, T) == T.nat(None)
    assert bottom(ProdT(UNIT, INT), T) == T.pair(BOT, T.nat(None))
    assert bottom(VUNIT, T) == T.val(())
    assert bottom(ProducerT(VUNIT), T) == T.fbot()
    assert bottom(ThunkT(FVUNIT), T) == T.fbot()
    arrow_bot = bottom(ArrowT(INT, FVUNIT), T)
    assert isinstance(arrow_bot, SFun)
    assert arrow_bot.parts == (T.const(T.fbot()),)


def test_leq_unit_and_int():
    assert leq(BOT, TOP, T)
    assert not leq(TOP, BOT, T)
    assert leq(T.nat(None), T.nat(7), T)
    assert not leq(T.nat(7), T.nat(8), T)
    assert leq(T.nat(7), T.nat(7), T)


def test_leq_pairs_componentwise():
    assert leq(T.pair(BOT, T.nat(None)), T.pair(TOP, T.nat(0)), T)
    assert not leq(T.pair(TOP, T.nat(0)), T.pair(TOP, T.nat(1)), T)


def test_leq_valuations_by_upper_sets():
    assert leq(T.val(()), dirac(TOP), T)
    assert leq(make_val([(HALF, TOP)], T), dirac(TOP), T)
    assert not leq(dirac(TOP), make_val([(HALF, TOP)], T), T)
    # moving mass upward is an information increase
    assert leq(dirac(BOT), dirac(TOP), T)
    assert not leq(dirac(TOP), dirac(BOT), T)
    # incomparable: mass on distinct maximal points
    a = dirac(T.nat(1))
    b = dirac(T.nat(2))
    assert not leq(a, b, T) and not leq(b, a, T)


def test_leq_valuation_support_cap():
    pts = [T.nat(i) for i in range(13)]
    w = Fraction(1, 13)
    big = make_val([(w, p) for p in pts], T)
    with pytest.raises(LeqUndefined):
        leq(big, big, T)


def test_leq_producer_elements():
    assert leq(T.fbot(), T.fbot(), T)
    assert leq(T.fbot(), T.fset(()), T)
    assert leq(T.fbot(), make_fset([dirac(TOP)], T), T)
    assert not leq(make_fset([dirac(TOP)], T), T.fbot(), T)
    # everything sits below the empty generator set
    assert leq(make_fset([dirac(TOP)], T), T.fset(()), T)
    # shrinking the adversary's menu is an information increase
    two = T.fset(tuple(sorted([dirac(T.nat(1)), dirac(T.nat(2))], key=skey)))
    one = make_fset([dirac(T.nat(1))], T)
    assert leq(two, one, T)
    assert not leq(one, two, T)


def test_leq_undefined_on_functions():
    f = val_of("\\x : int. produce (ret x)").value
    with pytest.raises(LeqUndefined):
        leq(f, f, T)


def test_sem_equal_beyond_keys():
    small = make_val([(HALF, TOP)], T)
    big = dirac(TOP)
    # raw, unnormalized generator sets that denote the same element
    a = T.fset((small, big))
    b = T.fset((small,))
    assert skey(a) != skey(b)
    assert sem_equal(a, b, T)
    assert not sem_equal(T.fbot(), b, T)


# Meets and combinators -------------------------------------------------------


def test_meet_producers():
    g1 = make_fset([dirac(T.nat(1))], T)
    g2 = make_fset([dirac(T.nat(2))], T)
    assert meet(T.fbot(), g1, T) == T.fbot()
    assert meet(g1, T.fbot(), T) == T.fbot()
    m = meet(g1, g2, T)
    assert isinstance(m, FSet) and len(m.gens) == 2
    # the empty set is the top element, neutral for the meet
    assert meet(T.fset(()), g1, T) == g1


def test_meet_functions_concatenates_parts():
    f = val_of("\\x : int. produce (ret x)").value
    g = val_of("\\x : int. produce (ret 0)").value
    fg = meet(f, g, T)
    assert isinstance(fg, SFun) and len(fg.parts) == 2
    out, exact = apply_fun(fg, T.nat(3), T)
    assert exact
    assert out == make_fset([dirac(T.nat(3)), dirac(T.nat(0))], T)


def test_meet_rejects_valuations():
    with pytest.raises(DomainError):
        meet(dirac(TOP), dirac(BOT), T)


def test_vdagger():
    v = make_val([(HALF, T.nat(1)), (HALF, T.nat(2))], T)
    assert tmass(vdagger(lambda x: dirac(TOP), v, T)) == 1
    # weighted sum: send 1 to top, 2 to nothing
    f = lambda x: dirac(TOP) if x.value == 1 else T.val(())
    assert vdagger(f, v, T) == make_val([(HALF, TOP)], T)


def test_qstar_cases():
    assert qstar(lambda g: T.fset(()), T.fbot(), T) == T.fbot()
    assert qstar(lambda g: T.fbot(), T.fset(()), T) == T.fset(())
    q = T.fset(tuple(sorted([dirac(T.nat(1)), dirac(T.nat(2))], key=skey)))
    img = qstar(lambda g: make_fset([g], T), q, T)
    assert img == make_fset([dirac(T.nat(1)), dirac(T.nat(2))], T)
    assert qstar(lambda g: T.fbot(), q, T) == T.fbot()


def test_hstar_frozen_cases():
    assert hstar(T.fbot()) == 0
    assert hstar(T.fset(())) == 1
    assert hstar(make_fset([make_val([(HALF, TOP)], T)], T)) == HALF
    mixed = T.fset(tuple(sorted(
        [make_val([(HALF, TOP)], T), dirac(TOP)], key=skey)))
    assert hstar(mixed) == HALF


def test_obs_gate_cases():
    q = make_fset([make_val([(HALF, TOP)], T)], T)
    assert obs_gate(Fraction(1, 4), q, T) == TOP
    assert obs_gate(HALF, q, T) == BOT  # strictly-above is required
    assert obs_gate(Fraction(1, 4), T.fbot(), T) == BOT
    assert obs_gate(Fraction(99, 100), T.fset(()), T) == TOP


# Evaluation ------------------------------------------------------------------


def test_eval_ground_terms():
    assert val_of("*").value == TOP
    assert val_of("42").value == T.nat(42)
    assert val_of("succ (pred (pred 1))").value == T.nat(1)
    assert val_of("(3, *)").value == T.pair(T.nat(3), TOP)
    assert val_of("pi2 (3, *)").value == TOP
    assert val_of("ifz 0 1 2").value == T.nat(1)
    assert val_of("ifz 5 1 2").value == T.nat(2)


def test_eval_thunk_force_transparent():
    out = val_of("force (thunk (produce (ret *)))")
    assert out.value == make_fset([dirac(TOP)], T)
    assert out.exact


def test_eval_coin():
    out = val_of("produce (ret * (+) omega[V unit])")
    assert out.value == make_fset([make_val([(HALF, TOP)], T)], T)
    assert out.exact
    assert hstar(out.value) == HALF


def test_eval_abort_is_empty_set():
    out = val_of("abort[F V unit]")
    assert out.value == T.fset(())
    assert hstar(out.value) == 1


def test_eval_do_bind():
    out = val_of("do x : unit <- (ret * (+) omega[V unit]) in ret x")
    assert out.value == make_val([(HALF, TOP)], T)


def test_eval_nchoice():
    out = val_of("produce (ret 1) /\\ produce (ret 2)")
    assert out.value == make_fset([dirac(T.nat(1)), dirac(T.nat(2))], T)


def test_eval_beta():
    out = val_of("(\\x : int. produce (ret x)) 3")
    assert out.value == make_fset([dirac(T.nat(3))], T)


def test_eval_to_sequencing():
    out = val_of("produce (ret 2) to x : V int in "
                 "produce (do y : int <- x in ret (succ y))")
    assert out.value == make_fset([dirac(T.nat(3))], T)


def test_eval_to_over_bottom_source():
    out = val_of("omega[F V unit] to x : V unit in produce (ret *)")
    assert out.value == T.fbot()
    assert out.exact


def test_eval_to_over_abort():
    out = val_of("abort[F V int] to x : V int in produce (ret *)")
    assert out.value == T.fset(())


def test_eval_pifz_settled_scrutinee():
    assert val_of("pifz 0 (produce (ret 1)) (produce (ret 2))").value == \
        make_fset([dirac(T.nat(1))], T)
    assert val_of("pifz 7 (produce (ret 1)) (produce (ret 2))").value == \
        make_fset([dirac(T.nat(2))], T)


def test_eval_pifz_bottom_scrutinee_meets_branches():
    out = val_of("pifz (rec x : int. x) (produce (ret 1)) (produce (ret 2))")
    assert out.value == make_fset([dirac(T.nat(1)), dirac(T.nat(2))], T)
    assert out.exact


def test_eval_ifz_bottom_scrutinee_is_bottom():
    out = val_of("ifz (rec x : int. x) (produce (ret 1)) (produce (ret 2))")
    assert out.value == T.fbot()


def test_eval_seq_bottom_head_is_bottom():
    out = val_of("obs[1/2] (omega[F V unit]) ; produce (ret *)")
    assert out.value == T.fbot()


def test_eval_obs_strictness():
    passing = val_of("obs[1/4] (produce (ret * (+) omega[V unit]))")
    assert passing.value == TOP
    failing = val_of("obs[1/2] (produce (ret * (+) omega[V unit]))")
    assert failing.value == BOT
    top_arg = val_of("obs[999/1000] (abort[F V unit])")
    assert top_arg.value == TOP


def test_eval_rec_stabilizes_exactly_on_omega():
    out = val_of("produce (omega[V unit])", rec_depth=4)
    assert out.value == make_fset([T.val(())], T)
    assert out.exact


def test_a_rec_whose_variable_is_unused_is_its_body():
    # One body evaluation gives the exact value; with none left, the
    # recursion is still an inexact bottom.
    text = "produce (ret (rec x : int. 3))"
    out = val_of(text, rec_depth=1)
    assert out.exact and render_value(out.value) == "must{dist{1 @ 3}}"
    out = val_of(text, rec_depth=0)
    assert not out.exact and render_value(out.value) == "must{dist{1 @ bot}}"


def test_an_unused_rec_variable_keeps_a_too_fine_body():
    # The body's weights pass the cap that stops an iteration, yet the
    # body is the recursion's value whatever its weights.
    body = squaring_binds(8)[len("produce "):]
    alone = evaluate(s(f"produce {body}"))
    out = evaluate(s(f"produce (rec v : V unit. {body})"))
    assert densem._too_fine(alone.value)
    assert render_value(out.value) == render_value(alone.value)
    assert out.exact is alone.exact


GEOMETRIC ="produce (rec u : V unit. (ret * (+) u))"
# The geometric retry one level down, under a ret, where the recursion is
# not affine: its iterates hold the retry's iterates as their one point, so
# they never stabilize and are never solved.
NESTED_GEOMETRIC = ("produce (do v : V unit <- (rec u : V V unit. "
                    "ret (do w : V unit <- u in (w (+) ret *))) in v)")


def test_eval_rec_approximates_geometric():
    out = val_of(NESTED_GEOMETRIC, rec_depth=8)
    assert out.exact is False
    assert hstar(out.value) == 1 - Fraction(1, 2 ** 7)


def test_eval_rec_deepening_is_monotone():
    masses = []
    for d in (2, 4, 8, 16):
        out = val_of(NESTED_GEOMETRIC, rec_depth=d)
        assert out.exact is False
        masses.append(hstar(out.value))
    assert masses == sorted(masses)
    assert masses[-1] == 1 - Fraction(1, 2 ** 15)


def test_an_affine_recursion_is_solved_exactly():
    tab = densem.Table()
    out = evaluate(s(GEOMETRIC), tab=tab)
    assert out.exact and tab.fallbacks == 0
    assert render_value(out.value) == "must{dist{1 @ tt}}"
    for i in range(3):
        out = evaluate(harness.sampler_probe(i), tab=tab)
        assert out.exact and tab.fallbacks == 0
        assert render_value(out.value) == "must{dist{1/3 @ tt}}"


def test_a_run_too_shallow_to_solve_returns_its_kleene_approximant():
    # Two rounds find the support {tt}; the solve takes two more body
    # evaluations, one at the point mass on tt and one to check.
    for depth, mass in ((3, "7/8"), (4, "1")):
        out = evaluate(s(GEOMETRIC), rec_depth=depth)
        assert render_value(out.value) == f"must{{dist{{{mass} @ tt}}}}"
        assert out.exact is (depth == 4)


def test_a_wrong_solution_falls_back_to_iteration(monkeypatch):
    # The check that the body maps the solution to itself is what makes the
    # answer exact: a seeded wrong solution is refused and counted, and
    # iteration goes on with the 64 - 2 - 2 body evaluations left.
    real = densem.solver.solve_linear
    monkeypatch.setattr(densem.solver, "solve_linear", lambda rows: {
        v: w * Fraction(99, 100) for v, w in real(rows).items()})
    tab = densem.Table()
    out = evaluate(s(GEOMETRIC), tab=tab)
    assert out.exact is False and tab.fallbacks == 1
    assert hstar(out.value) == 1 - Fraction(1, 2 ** 62)


@pytest.mark.parametrize("text", [
    "do y : unit <- u in u",
    "ret * (+) (do y : unit <- u in u)",
    "do v : V unit <- ret u in v",
    "ret * (+) (rec w : V unit. u)",
    "ifz (pi2 (u, 0)) u u",
    "(pi2 (u, *)) ; u",
])
def test_bodies_outside_the_affine_rule_are_iterated(text):
    core, _ = typecheck.elaborate(s(f"rec u : V unit. {text}"))
    assert not densem._solvable(core)


@pytest.mark.parametrize("text", [
    "u", "ret * (+) u", "(ret * (+) u) (+) (u (+) ret *)",
    "do y : unit <- u in ret *", "do y : unit <- ret * in u",
    "do u : unit <- u in ret u", "ifz 0 u (ret *)", "* ; u",
])
def test_bodies_inside_the_affine_rule_are_solved(text):
    core, _ = typecheck.elaborate(s(f"rec u : V unit. {text}"))
    assert densem._solvable(core)


def test_eval_rec_stops_before_weights_outgrow_rendering():
    # Binding the recursive call to itself squares the mass each round, so
    # the weights' digits double per iterate, and the cap stops the work.
    text = "produce (rec u : V unit. ((ret *) (+) (do y : unit <- u in u)))"
    out = val_of(text, rec_depth=16)
    assert out.exact is False
    assert hstar(val_of(text, rec_depth=4).value) < hstar(out.value) <= 1


def test_weight_cap_sees_nested_weights():
    from cbpvdp.densem import _WEIGHT_BITS_CAP, _too_fine
    ok = make_val([(Fraction(1, 3), TOP)], T)
    huge = T.val(((Fraction(1, 2 ** (_WEIGHT_BITS_CAP + 1)), TOP),))
    assert not _too_fine(ok)
    for holder in (huge, T.val(((HALF, huge),)), T.pair(T.nat(1), huge),
                   T.fset((ok, huge)), T.fun((T.const(huge),)),
                   T.fun((T.closure("x", INT, Var("v"), ("v",),
                                    (huge,)),))):
        assert _too_fine(holder), holder
    # a value shared 2**60 times over is walked once
    for leaf, expected in ((ok, False), (huge, True)):
        shared = leaf
        for _ in range(60):
            shared = T.pair(shared, shared)
        assert _too_fine(shared) is expected


# Each round of this recursion squares its mass. The cap stops each one
# at weights of about 2,048 bits, but eight of them bound in a row give one
# weight a denominator of 16,377 bits, past Python's integer string limit.
SQUARING = "(rec u : V unit. ((ret *) (+) (do y : unit <- u in u)))"


def squaring_binds(n):
    body = "ret *"
    for i in range(n):
        body = f"do a{i} : unit <- {SQUARING} in {body}"
    return f"produce ({body})"


def test_weights_render_beyond_the_integer_string_limit():
    # The demonic choice orders its two generators by skey.
    out = val_of(f"({squaring_binds(8)}) /\\ (produce (ret *))")
    (gen,) = out.value.gens
    ((w, x),) = gen.entries
    assert w.denominator.bit_length() == 16_377
    text = f"{digits(w.numerator)}/{digits(w.denominator)}"
    assert skey(gen) == "v{" + text + "@" + skey(x) + "}"
    assert render_value(out.value) == "must{dist{" + text + " @ tt}}"
    big = Fraction(10 ** 5000 + 1, 10 ** 5000)
    with pytest.raises(DomainError, match="mass 10{4999}1/10{5000} exceeds"):
        make_val([(big, TOP)], T)


def test_bottom_branches_take_the_type_kept_by_elaboration(monkeypatch):
    from cbpvdp import typecheck
    # Parsed first: parse checks the text, and the calls counted are the
    # evaluator's.
    term = s("produce (rec u : V unit. ((omega[unit] ; ret *) (+) "
             "(ifz omega[int] (ret *) u)))")
    calls = []
    for name in ("elaborate", "synth", "check"):
        fn = getattr(typecheck, name)
        monkeypatch.setattr(typecheck, name, lambda *a, _n=name, _f=fn, **k: (
            calls.append(_n) or _f(*a, **k)))
    out = evaluate(term, rec_depth=64, tab=T)
    assert calls == ["elaborate"]
    assert out.exact and out.value == make_fset([T.val(())], T)


def test_apply_fun_on_closures():
    f = val_of("\\x : int. produce (ret (succ x))").value
    out, exact = apply_fun(f, T.nat(9), T)
    assert exact
    assert out == make_fset([dirac(T.nat(10))], T)


def test_render():
    assert render_value(TOP) == "tt"
    assert render_value(BOT) == "bot"
    assert render_value(T.nat(None)) == "bot"
    assert render_value(T.nat(3)) == "3"
    assert render_value(T.fbot()) == "bot"
    assert render_value(T.fset(())) == "must{}"
    assert render_value(make_fset([dirac(TOP)], T)) == "must{dist{1 @ tt}}"
    assert render_value(T.val(())) == "dist{}"
    f = val_of("\\x : int. produce (ret x)").value
    assert render_value(f) == "<function>"


# Hash-consing ----------------------------------------------------------------

# A recursion whose every iterate captures the previous iterate twice.
TWICE = ("produce (rec p : U (int -> F V unit) * U (int -> F V unit). "
         "(thunk (\\x : int. force (pi1 p) x), "
         "thunk (\\x : int. force (pi2 p) x)))")


def test_closure_keys_stay_linear_in_rec_depth():
    # A closure keyed by its rendered environment doubles its key per
    # iterate here; keyed by its environment's ids, each iterate interns
    # the same few values.
    interned = {}
    for depth in (16, 64):
        tab = densem.Table()
        out = evaluate(s(TWICE), rec_depth=depth, tab=tab)
        assert not out.exact
        assert render_value(out.value) == "must{(<function>, <function>)}"
        interned[depth] = len(tab.nodes)
    assert interned[64] <= 4 * interned[16]


def test_equal_values_of_one_evaluation_are_one_node():
    term = s("((1, *), (1, *))")
    out = evaluate(term).value
    assert out.fst is out.snd
    # Another table builds another node, equal to this one by skey only.
    again = evaluate(term).value
    assert again != out and skey(again) == skey(out)
    tab = densem.Table()
    assert evaluate(term, tab=tab).value is evaluate(term, tab=tab).value
    assert skey(out) is skey(out)


def test_make_val_keeps_fraction_weights():
    # A table of its own, where no earlier call built this valuation.
    tab = densem.Table()
    w = Fraction(1, 3)
    assert make_val([(w, tab.unit(True))], tab).entries[0][0] is w
    assert make_val([(1, tab.unit(True))], tab).entries[0][0] == 1


def test_choice_builds_its_valuation_without_make_val(monkeypatch):
    # ret builds its point mass and (+) merges the two normal entry tuples
    # in mix, so nothing is renormalized; the valuation is still the node
    # make_val builds from the halved pairs in the evaluation's table.
    calls = []
    real = densem.make_val
    monkeypatch.setattr(densem, "make_val",
                        lambda *a: calls.append(1) or real(*a))
    tab = densem.Table()
    out = evaluate(s("ret 1 (+) ret 2"), tab=tab)
    assert calls == []
    assert out.value is real([(HALF, tab.nat(1)), (HALF, tab.nat(2))], tab)


def test_mix_sends_points_sharing_an_skey_to_make_val():
    # Within a table distinct points have distinct skeys; should two ever
    # share one, mix leaves their order to make_val rather than merge them.
    tab = densem.Table()
    x, y = tab.nat(1), tab.nat(2)
    y._skey = skey(x)
    a = tab.val(((HALF, x), (HALF, y)))
    b = tab.val(((HALF, y), (HALF, x)))
    halves = [(w / 2, p) for w, p in a.entries + b.entries]
    assert densem.mix(a, b, tab) is make_val(halves, tab)
    assert densem.mix(a, b, tab).entries == ((HALF, x), (HALF, y))


def test_rounds_of_unchanged_mass_still_decide_the_order(monkeypatch):
    # The iterates' masses are 0, 1, 1, 1, ... while the inner point moves
    # up, so every round after the first is decided by sem_equal, and none
    # is stable.
    text = ("produce (do v : V unit <- (rec u : V V unit. "
            "ret (do w : V unit <- u in (w (+) ret *))) in v)")
    calls = []
    real = densem.sem_equal
    monkeypatch.setattr(densem, "sem_equal",
                        lambda *a: calls.append(1) or real(*a))
    out = val_of(text, rec_depth=8)
    assert render_value(out.value) == "must{dist{127/128 @ tt}}"
    assert not out.exact and len(calls) == 7
    out = val_of(text)
    assert render_value(out.value) == (
        "must{dist{9223372036854775807/9223372036854775808 @ tt}}")
    assert not out.exact


def test_values_of_another_table_are_refused():
    # A table is the only way to build a value.
    for make in (lambda: densem.SInt(1), densem.FBot):
        with pytest.raises(TypeError, match="come from densem.Table"):
            make()
    # Keys and memos are made of ids, which mean nothing in another table.
    # The two tables give the same points swapped ids, so a call that read a
    # foreign value's id would find its own table's other value; every
    # constructor, and every helper that reads a value's id, refuses it.
    other, tab = densem.Table(), densem.Table()
    a, f = other.nat(1), other.const(other.nat(2))
    x, g = tab.nat(2), tab.const(tab.nat(1))
    va, vx = other.val(((HALF, a),)), tab.val(((HALF, x),))
    qa, qx = other.fset((va,)), tab.fset((vx,))
    fa, fx = other.fun((f,)), tab.fun((g,))
    body = Produce(Ret(Var("u")))
    for call in (lambda: tab.pair(x, a), lambda: tab.pair(a, x),
                 lambda: tab.val(((HALF, x), (HALF, a))),
                 lambda: tab.fset((vx, va)), lambda: tab.fun((g, f)),
                 lambda: tab.const(a),
                 lambda: tab.closure("x", INT, body, ("u",), (a,)),
                 lambda: make_val([(HALF, x), (HALF, a)], tab),
                 lambda: densem.mix(vx, va, tab),
                 lambda: make_fset([vx, va], tab),
                 lambda: leq(x, a, tab), lambda: leq(a, x, tab),
                 lambda: sem_equal(x, a, tab),
                 lambda: meet(qx, qa, tab), lambda: meet(fx, fa, tab),
                 lambda: vdagger(lambda p: va, vx, tab),
                 lambda: qstar(lambda p: qa, tab.fset((vx, tab.val(()))), tab),
                 lambda: apply_fun(fa, x, tab), lambda: apply_fun(fx, a, tab)):
        with pytest.raises(DomainError, match="another table"):
            call()


def test_leq_refuses_values_of_another_table():
    # leq keeps its answers by pairs of ids. Here u's pair has the ids of t's
    # pair in the other order, so reading them in t's memo would answer
    # True for tt below bot.
    t, u = densem.Table(), densem.Table()
    assert leq(t.unit(False), t.unit(True), t)
    for check in (leq, sem_equal):
        with pytest.raises(DomainError, match="another table"):
            check(u.unit(True), u.unit(False), t)


def test_closures_of_two_cores_stay_apart_in_one_table():
    # Each core's own IdTable gives the two lambda bodies one id, so a
    # table that keyed the second core's closures by its ids would take
    # the pred closure for the succ one.
    texts = ("thunk (\\x : int. produce (ret (succ x)))",
             "thunk (\\x : int. produce (ret (pred x)))")
    cores = [typecheck.elaborate(s(t))[0] for t in texts]
    assert len({open_id(c._ids, c.comp.body) for c in cores}) == 1
    tab = densem.Table()
    f, g = (evaluate(c, tab=tab).value for c in cores)
    assert f is not g and skey(f) != skey(g)
    for fn, want in ((f, "must{dist{1 @ 4}}"), (g, "must{dist{1 @ 2}}")):
        assert render_value(apply_fun(fn, tab.nat(3), tab)[0]) == want


# Properties at a size that adds only a few seconds; conftest.py makes them
# derandomized.
PROFILE = settings(max_examples=40)

INT_POINTS = st.builds(T.nat, st.none() | st.integers(0, 3))


@PROFILE
@given(st.lists(st.tuples(st.integers(1, 6), INT_POINTS), max_size=6),
       st.randoms(use_true_random=False))
def test_make_val_ignores_order_and_duplication(raw, rng):
    denom = max(1, sum(k for k, _ in raw))
    pairs = [(Fraction(k, denom), x) for k, x in raw]
    # Shuffle, and split every weight over two entries of its point.
    split = [(w / 2, x) for w, x in pairs for _ in range(2)]
    rng.shuffle(split)
    a = make_val(pairs, T)
    assert make_val(split, T) is a
    # Another table builds a node of the same skey and rendering.
    tab = densem.Table()
    b = make_val([(w, tab.nat(x.value)) for w, x in split], tab)
    assert skey(a) == skey(b) and render_value(a) == render_value(b)


VALUATIONS = st.lists(st.tuples(st.integers(1, 3), INT_POINTS),
                      max_size=3).map(
    lambda raw: make_val(((Fraction(k, 9), x) for k, x in raw), T))


@PROFILE
@given(st.lists(VALUATIONS, min_size=1, max_size=4),
       st.randoms(use_true_random=False))
def test_make_fset_ignores_order_and_duplication(gens, rng):
    more = gens + [rng.choice(gens) for _ in range(3)]
    rng.shuffle(more)
    assert make_fset(gens, T) is make_fset(more, T)


# Bodies of rec u : V int built by the affine rule alone: u as a (+) arm, as
# the source of a do whose body omits it, as a do body, as an ifz branch
# under a closed scrutinee, or as the rest of a `;`.
_CLOSED = st.sampled_from(("ret 0", "ret 1", "ret 2", "omega[V int]"))
_SCRUTS = st.sampled_from(("0", "1", "pred 1", "succ 0", "omega[int]"))
_KONTS = st.sampled_from(("ret y", "ret (pred y)", "ifz y (ret 1) (ret 0)",
                          "ret 0 (+) ret y"))
AFFINE_BODIES = st.recursive(
    st.just("u") | _CLOSED,
    lambda inner: (
        st.tuples(inner, inner).map("({0[0]}) (+) ({0[1]})".format)
        | st.tuples(inner, _KONTS).map(
            "do y : int <- ({0[0]}) in {0[1]}".format)
        | st.tuples(_CLOSED, inner).map(
            "do y : int <- {0[0]} in {0[1]}".format)
        | st.tuples(_SCRUTS, inner, inner).map(
            "ifz ({0[0]}) ({0[1]}) ({0[2]})".format)
        | inner.map("* ; ({})".format)),
    max_leaves=6)


@settings(max_examples=300)
@given(AFFINE_BODIES)
@example("(ret 0 (+) ret 1) (+) (ret 2 (+) u)")
def test_an_affine_recursion_solves_to_its_least_fixed_point(body):
    text = f"produce (do x : int <- (rec u : V int. {body}) in ret *)"
    assert densem._solvable(typecheck.elaborate(s(text))[0].value.source)
    out = evaluate(s(text))
    mass = hstar(out.value)
    # A u under two do sources with different bodies gives every unfold two
    # stacks, so the engine's work grows exponentially with its horizon;
    # a horizon of 24 steps keeps it small, and on these examples it closes
    # every graph that a horizon of 2,000 closes.
    op = opsem.pr_limit(s(text), max_budget=24)
    assert op.lower <= mass <= op.upper
    if not out.exact:
        return
    if op.exact:
        assert mass == op.lower
    # Every Kleene iterate lies below the least fixed point.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(densem, "_solvable", lambda term: False)
        for depth in range(1, 9):
            assert hstar(evaluate(s(text), rec_depth=depth).value) <= mass


_WEIGHTS = st.lists(
    st.tuples(st.integers(1, 3), st.none() | st.integers(0, 3)), max_size=4)


@PROFILE
@given(_WEIGHTS, _WEIGHTS)
@example([], [])
@example([(1, 0)], [])
@example([], [(2, None), (1, 3)])
@example([(1, 0), (1, 1)], [(1, 2), (1, None)])
@example([(1, 0), (2, 1)], [(3, 1), (1, 0)])
def test_mix_is_make_val_of_the_halved_entries(left, right):
    # Shared points, disjoint points, and either side or both empty: one
    # merge gives the node make_val builds from the halved pairs.
    tab = densem.Table()
    a = make_val(((Fraction(k, 12), tab.nat(p)) for k, p in left), tab)
    b = make_val(((Fraction(k, 12), tab.nat(p)) for k, p in right), tab)
    want = make_val([(w / 2, x) for w, x in a.entries + b.entries], tab)
    assert densem.mix(a, b, tab) is want


GEN_TYPES = [FVUNIT, ArrowT(INT, ProducerT(DistT(INT))),
             ProdT(INT, DistT(UNIT)),
             ThunkT(ProducerT(DistT(ThunkT(ArrowT(INT, FVUNIT)))))]


@PROFILE
@given(st.integers(0, 10 ** 6), st.sampled_from(GEN_TYPES),
       st.sampled_from([0.0, 0.35]))
def test_separate_evaluations_agree(seed, ty, rec_probability):
    term = TermGen(GenPolicy(max_depth=5, seed=seed, omega_weight=1,
                             rec_probability=rec_probability)).term(ty)
    # Two tables build two nodes, alike in skey and rendering.
    a, b = evaluate(term, rec_depth=8), evaluate(term, rec_depth=8)
    assert a.value is not b.value and a.exact == b.exact
    assert render_value(a.value) == render_value(b.value)
    assert skey(a.value) == skey(b.value)
    # One table shared by two evaluations builds one node.
    tab = densem.Table()
    c, d = (evaluate(term, rec_depth=8, tab=tab) for _ in range(2))
    assert c.value is d.value and skey(c.value) == skey(a.value)


# The valuation order from its definition, over the flat naturals: a lies
# below b when every upper set of the joint support weighs at most as much
# under a as under b.
FLAT = [None] + list(range(densem._LEQ_SUPPORT_CAP - 1))


def _flat_leq(p, q):
    return p is None or p == q


def _subset_leq(a: dict, b: dict) -> bool:
    support = sorted(a.keys() | b.keys(), key=lambda p: -1 if p is None else p)
    for r in range(1, len(support) + 1):
        for base in itertools.combinations(support, r):
            up = [y for y in support if any(_flat_leq(p, y) for p in base)]
            if sum(a.get(y, 0) for y in up) > sum(b.get(y, 0) for y in up):
                return False
    return True


@st.composite
def _flat_valuations(draw):
    """Two to four weight maps of mass at most one over FLAT, each either
    unrelated to the earlier ones or made from one of them by moving mass
    up and adding some."""
    weights = st.dictionaries(st.sampled_from(FLAT), st.integers(1, 4),
                              max_size=6)
    raws = draw(st.lists(weights, min_size=2, max_size=4))
    total = 2 * max(1, *(sum(raw.values()) for raw in raws))
    out = [{p: Fraction(k, total) for p, k in raws[0].items()}]
    for raw in raws[1:]:
        if draw(st.booleans()):
            out.append({p: Fraction(k, total) for p, k in raw.items()})
            continue
        b = dict(draw(st.sampled_from(out)))
        if None in b and draw(st.booleans()):
            target = draw(st.sampled_from(FLAT[1:]))
            b[target] = b.get(target, 0) + b.pop(None)
        extra = draw(st.sampled_from(FLAT))
        b[extra] = b.get(extra, 0) + Fraction(draw(st.integers(0, 2)), 4)
        out.append(b)
    return out


def _as_val(weights: dict, tab):
    return make_val(((w, tab.nat(p)) for p, w in weights.items()), tab)


@PROFILE
@given(_flat_valuations())
@example([{p: Fraction(1, 24) for p in FLAT},
          {p: Fraction(1, 12) for p in FLAT}])
def test_memoized_leq_matches_the_subset_definition(maps):
    # Every ordered pair in one table, so later answers come from the
    # pairs the earlier ones kept, down to the points.
    tab = densem.Table()
    vals = [_as_val(m, tab) for m in maps]
    for (x, vx), (y, vy) in itertools.permutations(zip(maps, vals), 2):
        assert leq(vx, vy, tab) is _subset_leq(x, y)
    # A table of its own for one pair gives the same answer.
    own = densem.Table()
    assert leq(_as_val(maps[0], own), _as_val(maps[1], own), own) is \
        leq(vals[0], vals[1], tab)


def test_closures_of_one_de_bruijn_body_tell_their_binders_apart():
    # Both inner lambdas have the body (2, 1) in de Bruijn indices and the
    # free names a and b, bound to 1 and 2 alike; but the first reads (a, b)
    # and the second (b, a), so they are two closures. (The ifz keeps the
    # two outer functions apart.)
    text = ("((\\a : int. \\b : int. \\x : unit. produce (a, b)) 1 2 *) "
            "to p : (int * int) in "
            "((\\b : int. \\a : int. ifz 0 (\\x : unit. produce (b, a)) "
            "(\\x : unit. produce (b, a))) 2 1 *) "
            "to q : (int * int) in produce (p, q)")
    assert render_value(val_of(text).value) == "must{((1, 2), (2, 1))}"


def test_equal_closures_under_different_binders_are_one_value():
    # The two lambdas are one closure, over a bound to 1, but the second
    # sits under one more binder (y), so its body reaches a across one more
    # index. Keyed by where the body sits they would be two points of
    # weight 1/2.
    text = ("produce 1 to a : int in produce ("
            "ret (thunk (\\x : unit. produce a)) (+) "
            "(do y : unit <- ret * in ret (thunk (\\x : unit. produce a))))")
    value = val_of(text).value
    assert render_value(value) == "must{dist{1 @ <function>}}"
    (weight, point), = value.gens[0].entries
    assert weight == 1


def test_evaluate_keys_closures_in_the_cores_table(monkeypatch):
    # evaluate builds its table with the core's IdTable for closure keys,
    # and builds no other IdTable; a table made without one has its own.
    core, _ = typecheck.elaborate(
        surface.parse("produce (ret (thunk (\\x : unit. produce x)))"))
    made = []
    real = densem.Table

    def table(*args):
        made.append(real(*args))
        return made[-1]

    monkeypatch.setattr(densem, "Table", table)
    monkeypatch.setattr(densem, "IdTable", lambda: pytest.fail("new IdTable"))
    densem.evaluate(core)
    assert len(made) == 1 and made[0].terms is core._ids
    monkeypatch.undo()
    own = densem.Table()
    assert isinstance(own.terms, IdTable) and own.terms is not core._ids
