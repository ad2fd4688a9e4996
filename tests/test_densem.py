"""Domain elements, the information order, combinators, evaluation."""

from fractions import Fraction

import pytest

from cbpvdp import surface
from cbpvdp.syntax import (
    FVUNIT, INT, UNIT, VUNIT, ArrowT, DistT, ProdT, ProducerT, ThunkT,
)
from cbpvdp.densem import (
    ConstFun, DomainError, FBot, FSet, LeqUndefined, SFun, SInt, SPair,
    SUnit, SVal,
    apply_fun, bottom, evaluate, hstar, leq, make_fset, make_val, meet,
    obs_gate, qstar, render_value, scale_val, sem_equal, skey, tmass,
    vdagger, add_vals,
)

TOP = SUnit(True)
BOT = SUnit(False)
HALF = Fraction(1, 2)


def s(text):
    return surface.parse(text)


def dirac(x):
    return make_val(((Fraction(1), x),))


def val_of(term_text, rec_depth=64):
    return evaluate(s(term_text), rec_depth=rec_depth)


# Normalization ---------------------------------------------------------------


def test_make_val_merges_and_sorts():
    v = make_val([(HALF, TOP), (Fraction(1, 4), TOP), (Fraction(1, 8), BOT)])
    assert v == make_val([(Fraction(1, 8), BOT), (Fraction(3, 4), TOP)])
    assert tmass(v) == Fraction(3, 4)


def test_make_val_drops_zero_weights():
    assert make_val([(Fraction(0), TOP)]) == SVal(())


def test_make_val_rejects_bad_mass():
    with pytest.raises(DomainError):
        make_val([(Fraction(3, 4), TOP), (HALF, BOT)])
    with pytest.raises(DomainError):
        make_val([(Fraction(-1, 4), TOP)])


def test_make_fset_dedupes_and_prunes_dominated():
    small = make_val([(HALF, TOP)])
    big = dirac(TOP)
    # big lies above small, so an adversary never benefits from keeping it
    assert make_fset([small, big]) == FSet((small,))
    assert make_fset([big, big]) == FSet((big,))


def test_skey_distinguishes():
    assert skey(TOP) != skey(BOT)
    assert skey(SInt(3)) != skey(SInt(4))
    assert skey(FBot()) != skey(FSet(()))


# Bottoms and the order -------------------------------------------------------


def test_bottom_shapes():
    assert bottom(UNIT) == BOT
    assert bottom(INT) == SInt(None)
    assert bottom(ProdT(UNIT, INT)) == SPair(BOT, SInt(None))
    assert bottom(VUNIT) == SVal(())
    assert bottom(ProducerT(VUNIT)) == FBot()
    assert bottom(ThunkT(FVUNIT)) == FBot()
    arrow_bot = bottom(ArrowT(INT, FVUNIT))
    assert isinstance(arrow_bot, SFun)
    assert arrow_bot.parts == (ConstFun(FBot()),)


def test_leq_unit_and_int():
    assert leq(BOT, TOP)
    assert not leq(TOP, BOT)
    assert leq(SInt(None), SInt(7))
    assert not leq(SInt(7), SInt(8))
    assert leq(SInt(7), SInt(7))


def test_leq_pairs_componentwise():
    assert leq(SPair(BOT, SInt(None)), SPair(TOP, SInt(0)))
    assert not leq(SPair(TOP, SInt(0)), SPair(TOP, SInt(1)))


def test_leq_valuations_by_upper_sets():
    assert leq(SVal(()), dirac(TOP))
    assert leq(make_val([(HALF, TOP)]), dirac(TOP))
    assert not leq(dirac(TOP), make_val([(HALF, TOP)]))
    # moving mass upward is an information increase
    assert leq(dirac(BOT), dirac(TOP))
    assert not leq(dirac(TOP), dirac(BOT))
    # incomparable: mass on distinct maximal points
    a = dirac(SInt(1))
    b = dirac(SInt(2))
    assert not leq(a, b) and not leq(b, a)


def test_leq_valuation_support_cap():
    pts = [SInt(i) for i in range(13)]
    w = Fraction(1, 13)
    big = make_val([(w, p) for p in pts])
    with pytest.raises(LeqUndefined):
        leq(big, big)


def test_leq_producer_elements():
    assert leq(FBot(), FBot())
    assert leq(FBot(), FSet(()))
    assert leq(FBot(), make_fset([dirac(TOP)]))
    assert not leq(make_fset([dirac(TOP)]), FBot())
    # everything sits below the empty generator set
    assert leq(make_fset([dirac(TOP)]), FSet(()))
    # shrinking the adversary's menu is an information increase
    two = FSet(tuple(sorted([dirac(SInt(1)), dirac(SInt(2))], key=skey)))
    one = make_fset([dirac(SInt(1))])
    assert leq(two, one)
    assert not leq(one, two)


def test_leq_undefined_on_functions():
    f = evaluate(s("\\x : int. produce (ret x)")).value
    with pytest.raises(LeqUndefined):
        leq(f, f)


def test_sem_equal_beyond_keys():
    small = make_val([(HALF, TOP)])
    big = dirac(TOP)
    # raw, unnormalized generator sets that denote the same element
    a = FSet((small, big))
    b = FSet((small,))
    assert skey(a) != skey(b)
    assert sem_equal(a, b)
    assert not sem_equal(FBot(), b)


# Meets and combinators -------------------------------------------------------


def test_meet_producers():
    g1 = make_fset([dirac(SInt(1))])
    g2 = make_fset([dirac(SInt(2))])
    assert meet(FBot(), g1) == FBot()
    assert meet(g1, FBot()) == FBot()
    m = meet(g1, g2)
    assert isinstance(m, FSet) and len(m.gens) == 2
    # the empty set is the top element, neutral for the meet
    assert meet(FSet(()), g1) == g1


def test_meet_functions_concatenates_parts():
    f = evaluate(s("\\x : int. produce (ret x)")).value
    g = evaluate(s("\\x : int. produce (ret 0)")).value
    fg = meet(f, g)
    assert isinstance(fg, SFun) and len(fg.parts) == 2
    out, exact = apply_fun(fg, SInt(3))
    assert exact
    assert out == make_fset([dirac(SInt(3)), dirac(SInt(0))])


def test_meet_rejects_valuations():
    with pytest.raises(DomainError):
        meet(dirac(TOP), dirac(BOT))


def test_scale_add_vdagger():
    v = make_val([(HALF, SInt(1)), (HALF, SInt(2))])
    assert tmass(vdagger(lambda x: dirac(TOP), v)) == 1
    halved = scale_val(HALF, v)
    assert sum(w for w, _ in halved.entries) == HALF
    assert add_vals(halved, halved) == v
    # weighted sum: send 1 to top, 2 to nothing
    f = lambda x: dirac(TOP) if x.value == 1 else SVal(())
    assert vdagger(f, v) == make_val([(HALF, TOP)])


def test_qstar_cases():
    assert qstar(lambda g: FSet(()), FBot()) == FBot()
    assert qstar(lambda g: FBot(), FSet(())) == FSet(())
    q = FSet(tuple(sorted([dirac(SInt(1)), dirac(SInt(2))], key=skey)))
    img = qstar(lambda g: make_fset([g]), q)
    assert img == make_fset([dirac(SInt(1)), dirac(SInt(2))])
    assert qstar(lambda g: FBot(), q) == FBot()


def test_hstar_frozen_cases():
    assert hstar(FBot()) == 0
    assert hstar(FSet(())) == 1
    assert hstar(make_fset([make_val([(HALF, TOP)])])) == HALF
    mixed = FSet(tuple(sorted(
        [make_val([(HALF, TOP)]), dirac(TOP)], key=skey)))
    assert hstar(mixed) == HALF


def test_obs_gate_cases():
    q = make_fset([make_val([(HALF, TOP)])])
    assert obs_gate(Fraction(1, 4), q) == TOP
    assert obs_gate(HALF, q) == BOT  # strictly-above is required
    assert obs_gate(Fraction(1, 4), FBot()) == BOT
    assert obs_gate(Fraction(99, 100), FSet(())) == TOP


# Evaluation ------------------------------------------------------------------


def test_eval_ground_terms():
    assert val_of("*").value == TOP
    assert val_of("42").value == SInt(42)
    assert val_of("succ (pred (pred 1))").value == SInt(1)
    assert val_of("(3, *)").value == SPair(SInt(3), TOP)
    assert val_of("pi2 (3, *)").value == TOP
    assert val_of("ifz 0 1 2").value == SInt(1)
    assert val_of("ifz 5 1 2").value == SInt(2)


def test_eval_thunk_force_transparent():
    out = val_of("force (thunk (produce (ret *)))")
    assert out.value == make_fset([dirac(TOP)])
    assert out.exact


def test_eval_coin():
    out = val_of("produce (ret * (+) omega[V unit])")
    assert out.value == make_fset([make_val([(HALF, TOP)])])
    assert out.exact
    assert hstar(out.value) == HALF


def test_eval_abort_is_empty_set():
    out = val_of("abort[F V unit]")
    assert out.value == FSet(())
    assert hstar(out.value) == 1


def test_eval_do_bind():
    out = val_of("do x : unit <- (ret * (+) omega[V unit]) in ret x")
    assert out.value == make_val([(HALF, TOP)])


def test_eval_nchoice():
    out = val_of("produce (ret 1) /\\ produce (ret 2)")
    assert out.value == make_fset([dirac(SInt(1)), dirac(SInt(2))])


def test_eval_beta():
    out = val_of("(\\x : int. produce (ret x)) 3")
    assert out.value == make_fset([dirac(SInt(3))])


def test_eval_to_sequencing():
    out = val_of("produce (ret 2) to x : V int in "
                 "produce (do y : int <- x in ret (succ y))")
    assert out.value == make_fset([dirac(SInt(3))])


def test_eval_to_over_bottom_source():
    out = val_of("omega[F V unit] to x : V unit in produce (ret *)")
    assert out.value == FBot()
    assert out.exact


def test_eval_to_over_abort():
    out = val_of("abort[F V int] to x : V int in produce (ret *)")
    assert out.value == FSet(())


def test_eval_pifz_settled_scrutinee():
    assert val_of("pifz 0 (produce (ret 1)) (produce (ret 2))").value == \
        make_fset([dirac(SInt(1))])
    assert val_of("pifz 7 (produce (ret 1)) (produce (ret 2))").value == \
        make_fset([dirac(SInt(2))])


def test_eval_pifz_bottom_scrutinee_meets_branches():
    out = val_of("pifz (rec x : int. x) (produce (ret 1)) (produce (ret 2))")
    assert out.value == make_fset([dirac(SInt(1)), dirac(SInt(2))])
    assert out.exact


def test_eval_ifz_bottom_scrutinee_is_bottom():
    out = val_of("ifz (rec x : int. x) (produce (ret 1)) (produce (ret 2))")
    assert out.value == FBot()


def test_eval_seq_bottom_head_is_bottom():
    out = val_of("obs[1/2] (omega[F V unit]) ; produce (ret *)")
    assert out.value == FBot()


def test_eval_obs_strictness():
    passing = val_of("obs[1/4] (produce (ret * (+) omega[V unit]))")
    assert passing.value == TOP
    failing = val_of("obs[1/2] (produce (ret * (+) omega[V unit]))")
    assert failing.value == BOT
    top_arg = val_of("obs[999/1000] (abort[F V unit])")
    assert top_arg.value == TOP


def test_eval_rec_stabilizes_exactly_on_omega():
    out = val_of("produce (omega[V unit])", rec_depth=4)
    assert out.value == make_fset([SVal(())])
    assert out.exact


def test_eval_rec_approximates_geometric():
    out = val_of("produce (rec u : V unit. (ret * (+) u))", rec_depth=8)
    assert out.exact is False
    assert hstar(out.value) == 1 - Fraction(1, 2 ** 8)


def test_eval_rec_deepening_is_monotone():
    masses = []
    for d in (2, 4, 8, 16):
        out = val_of("produce (rec u : V unit. (ret * (+) u))", rec_depth=d)
        masses.append(hstar(out.value))
    assert masses == sorted(masses)
    assert masses[-1] == 1 - Fraction(1, 2 ** 16)


def test_eval_rec_stops_before_weights_outgrow_rendering():
    # Binding the recursive call to itself squares the mass each round, so
    # the weights' digits double per iterate; the 14th would be too long for
    # skey to print.
    text = "produce (rec u : V unit. ((ret *) (+) (do y : unit <- u in u)))"
    out = val_of(text, rec_depth=16)
    assert out.exact is False
    assert hstar(val_of(text, rec_depth=4).value) < hstar(out.value) <= 1


def test_weight_cap_sees_nested_weights():
    from cbpvdp.densem import Closure, _WEIGHT_BITS_CAP, _too_fine
    from cbpvdp.syntax import Var
    ok = make_val([(Fraction(1, 3), TOP)])
    huge = SVal(((Fraction(1, 2 ** (_WEIGHT_BITS_CAP + 1)), TOP),))
    assert not _too_fine(ok)
    for holder in (huge, SVal(((HALF, huge),)), SPair(SInt(1), huge),
                   FSet((ok, huge)), SFun((ConstFun(huge),)),
                   SFun((Closure({"v": huge}, "x", INT,
                                 Var("v", VUNIT)),))):
        assert _too_fine(holder), holder
    # a value shared 2**60 times over is walked once
    for leaf, expected in ((ok, False), (huge, True)):
        shared = leaf
        for _ in range(60):
            shared = SPair(shared, shared)
        assert _too_fine(shared) is expected


def test_bottom_branches_take_the_type_kept_by_elaboration(monkeypatch):
    from cbpvdp import typecheck
    calls = []
    for name in ("elaborate", "synth", "check"):
        fn = getattr(typecheck, name)
        monkeypatch.setattr(typecheck, name, lambda *a, _n=name, _f=fn, **k: (
            calls.append(_n) or _f(*a, **k)))
    out = val_of("produce (rec u : V unit. ((omega[unit] ; ret *) (+) "
                 "(ifz omega[int] (ret *) u)))")
    assert calls == ["elaborate"]
    assert out.exact and out.value == make_fset([SVal(())])


def test_apply_fun_on_closures():
    f = evaluate(s("\\x : int. produce (ret (succ x))")).value
    out, exact = apply_fun(f, SInt(9))
    assert exact
    assert out == make_fset([dirac(SInt(10))])


def test_render():
    assert render_value(TOP) == "tt"
    assert render_value(BOT) == "bot"
    assert render_value(SInt(None)) == "bot"
    assert render_value(SInt(3)) == "3"
    assert render_value(FBot()) == "bot"
    assert render_value(FSet(())) == "must{}"
    assert render_value(make_fset([dirac(TOP)])) == "must{dist{1 @ tt}}"
    assert render_value(SVal(())) == "dist{}"
    f = evaluate(s("\\x : int. produce (ret x)")).value
    assert render_value(f) == "<function>"
