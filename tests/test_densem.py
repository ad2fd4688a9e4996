"""Domain elements, the information order, combinators, evaluation."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cbpvdp import densem, surface
from cbpvdp.harness import GenPolicy, TermGen
from cbpvdp.syntax import (
    FVUNIT, INT, UNIT, VUNIT, ArrowT, DistT, Produce, ProdT, ProducerT, Ret,
    ThunkT, Var,
)
from cbpvdp.densem import (
    DomainError, FSet, LeqUndefined, SFun,
    apply_fun, bottom, evaluate, hstar, leq, make_fset, make_val, meet,
    obs_gate, qstar, render_value, sem_equal, skey, tmass, vdagger,
)

# Values built by hand come from this table; helpers called without a table
# build into one of their own, so both kinds meet in these tests.
T = densem.Table()
TOP = T.unit(True)
BOT = T.unit(False)
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
    assert make_val([(Fraction(0), TOP)]) == T.val(())


def test_make_val_rejects_bad_mass():
    with pytest.raises(DomainError):
        make_val([(Fraction(3, 4), TOP), (HALF, BOT)])
    with pytest.raises(DomainError):
        make_val([(Fraction(-1, 4), TOP)])


def test_make_fset_dedupes_and_prunes_dominated():
    small = make_val([(HALF, TOP)])
    big = dirac(TOP)
    # big lies above small, so an adversary never benefits from keeping it
    assert make_fset([small, big]) == T.fset((small,))
    assert make_fset([big, big]) == T.fset((big,))


def test_skey_distinguishes():
    assert skey(TOP) != skey(BOT)
    assert skey(T.nat(3)) != skey(T.nat(4))
    assert skey(T.fbot()) != skey(T.fset(()))


# Bottoms and the order -------------------------------------------------------


def test_bottom_shapes():
    assert bottom(UNIT) == BOT
    assert bottom(INT) == T.nat(None)
    assert bottom(ProdT(UNIT, INT)) == T.pair(BOT, T.nat(None))
    assert bottom(VUNIT) == T.val(())
    assert bottom(ProducerT(VUNIT)) == T.fbot()
    assert bottom(ThunkT(FVUNIT)) == T.fbot()
    arrow_bot = bottom(ArrowT(INT, FVUNIT))
    assert isinstance(arrow_bot, SFun)
    assert arrow_bot.parts == (T.const(T.fbot()),)


def test_leq_unit_and_int():
    assert leq(BOT, TOP)
    assert not leq(TOP, BOT)
    assert leq(T.nat(None), T.nat(7))
    assert not leq(T.nat(7), T.nat(8))
    assert leq(T.nat(7), T.nat(7))


def test_leq_pairs_componentwise():
    assert leq(T.pair(BOT, T.nat(None)), T.pair(TOP, T.nat(0)))
    assert not leq(T.pair(TOP, T.nat(0)), T.pair(TOP, T.nat(1)))


def test_leq_valuations_by_upper_sets():
    assert leq(T.val(()), dirac(TOP))
    assert leq(make_val([(HALF, TOP)]), dirac(TOP))
    assert not leq(dirac(TOP), make_val([(HALF, TOP)]))
    # moving mass upward is an information increase
    assert leq(dirac(BOT), dirac(TOP))
    assert not leq(dirac(TOP), dirac(BOT))
    # incomparable: mass on distinct maximal points
    a = dirac(T.nat(1))
    b = dirac(T.nat(2))
    assert not leq(a, b) and not leq(b, a)


def test_leq_valuation_support_cap():
    pts = [T.nat(i) for i in range(13)]
    w = Fraction(1, 13)
    big = make_val([(w, p) for p in pts])
    with pytest.raises(LeqUndefined):
        leq(big, big)


def test_leq_producer_elements():
    assert leq(T.fbot(), T.fbot())
    assert leq(T.fbot(), T.fset(()))
    assert leq(T.fbot(), make_fset([dirac(TOP)]))
    assert not leq(make_fset([dirac(TOP)]), T.fbot())
    # everything sits below the empty generator set
    assert leq(make_fset([dirac(TOP)]), T.fset(()))
    # shrinking the adversary's menu is an information increase
    two = T.fset(tuple(sorted([dirac(T.nat(1)), dirac(T.nat(2))], key=skey)))
    one = make_fset([dirac(T.nat(1))])
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
    a = T.fset((small, big))
    b = T.fset((small,))
    assert skey(a) != skey(b)
    assert sem_equal(a, b)
    assert not sem_equal(T.fbot(), b)


# Meets and combinators -------------------------------------------------------


def test_meet_producers():
    g1 = make_fset([dirac(T.nat(1))])
    g2 = make_fset([dirac(T.nat(2))])
    assert meet(T.fbot(), g1) == T.fbot()
    assert meet(g1, T.fbot()) == T.fbot()
    m = meet(g1, g2)
    assert isinstance(m, FSet) and len(m.gens) == 2
    # the empty set is the top element, neutral for the meet
    assert meet(T.fset(()), g1) == g1


def test_meet_functions_concatenates_parts():
    f = evaluate(s("\\x : int. produce (ret x)")).value
    g = evaluate(s("\\x : int. produce (ret 0)")).value
    fg = meet(f, g)
    assert isinstance(fg, SFun) and len(fg.parts) == 2
    out, exact = apply_fun(fg, T.nat(3))
    assert exact
    assert out == make_fset([dirac(T.nat(3)), dirac(T.nat(0))])


def test_meet_rejects_valuations():
    with pytest.raises(DomainError):
        meet(dirac(TOP), dirac(BOT))


def test_vdagger():
    v = make_val([(HALF, T.nat(1)), (HALF, T.nat(2))])
    assert tmass(vdagger(lambda x: dirac(TOP), v)) == 1
    # weighted sum: send 1 to top, 2 to nothing
    f = lambda x: dirac(TOP) if x.value == 1 else T.val(())
    assert vdagger(f, v) == make_val([(HALF, TOP)])


def test_qstar_cases():
    assert qstar(lambda g: T.fset(()), T.fbot()) == T.fbot()
    assert qstar(lambda g: T.fbot(), T.fset(())) == T.fset(())
    q = T.fset(tuple(sorted([dirac(T.nat(1)), dirac(T.nat(2))], key=skey)))
    img = qstar(lambda g: make_fset([g]), q)
    assert img == make_fset([dirac(T.nat(1)), dirac(T.nat(2))])
    assert qstar(lambda g: T.fbot(), q) == T.fbot()


def test_hstar_frozen_cases():
    assert hstar(T.fbot()) == 0
    assert hstar(T.fset(())) == 1
    assert hstar(make_fset([make_val([(HALF, TOP)])])) == HALF
    mixed = T.fset(tuple(sorted(
        [make_val([(HALF, TOP)]), dirac(TOP)], key=skey)))
    assert hstar(mixed) == HALF


def test_obs_gate_cases():
    q = make_fset([make_val([(HALF, TOP)])])
    assert obs_gate(Fraction(1, 4), q) == TOP
    assert obs_gate(HALF, q) == BOT  # strictly-above is required
    assert obs_gate(Fraction(1, 4), T.fbot()) == BOT
    assert obs_gate(Fraction(99, 100), T.fset(())) == TOP


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
    assert out.value == make_fset([dirac(TOP)])
    assert out.exact


def test_eval_coin():
    out = val_of("produce (ret * (+) omega[V unit])")
    assert out.value == make_fset([make_val([(HALF, TOP)])])
    assert out.exact
    assert hstar(out.value) == HALF


def test_eval_abort_is_empty_set():
    out = val_of("abort[F V unit]")
    assert out.value == T.fset(())
    assert hstar(out.value) == 1


def test_eval_do_bind():
    out = val_of("do x : unit <- (ret * (+) omega[V unit]) in ret x")
    assert out.value == make_val([(HALF, TOP)])


def test_eval_nchoice():
    out = val_of("produce (ret 1) /\\ produce (ret 2)")
    assert out.value == make_fset([dirac(T.nat(1)), dirac(T.nat(2))])


def test_eval_beta():
    out = val_of("(\\x : int. produce (ret x)) 3")
    assert out.value == make_fset([dirac(T.nat(3))])


def test_eval_to_sequencing():
    out = val_of("produce (ret 2) to x : V int in "
                 "produce (do y : int <- x in ret (succ y))")
    assert out.value == make_fset([dirac(T.nat(3))])


def test_eval_to_over_bottom_source():
    out = val_of("omega[F V unit] to x : V unit in produce (ret *)")
    assert out.value == T.fbot()
    assert out.exact


def test_eval_to_over_abort():
    out = val_of("abort[F V int] to x : V int in produce (ret *)")
    assert out.value == T.fset(())


def test_eval_pifz_settled_scrutinee():
    assert val_of("pifz 0 (produce (ret 1)) (produce (ret 2))").value == \
        make_fset([dirac(T.nat(1))])
    assert val_of("pifz 7 (produce (ret 1)) (produce (ret 2))").value == \
        make_fset([dirac(T.nat(2))])


def test_eval_pifz_bottom_scrutinee_meets_branches():
    out = val_of("pifz (rec x : int. x) (produce (ret 1)) (produce (ret 2))")
    assert out.value == make_fset([dirac(T.nat(1)), dirac(T.nat(2))])
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
    assert out.value == make_fset([T.val(())])
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
    from cbpvdp.densem import _WEIGHT_BITS_CAP, _too_fine
    ok = make_val([(Fraction(1, 3), TOP)])
    huge = T.val(((Fraction(1, 2 ** (_WEIGHT_BITS_CAP + 1)), TOP),))
    assert not _too_fine(ok)
    for holder in (huge, T.val(((HALF, huge),)), T.pair(T.nat(1), huge),
                   T.fset((ok, huge)), T.fun((T.const(huge),)),
                   T.fun((T.closure("x", INT, Var("v", VUNIT), ("v",),
                                    (huge,)),))):
        assert _too_fine(holder), holder
    # a value shared 2**60 times over is walked once
    for leaf, expected in ((ok, False), (huge, True)):
        shared = leaf
        for _ in range(60):
            shared = T.pair(shared, shared)
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
    assert out.exact and out.value == make_fset([T.val(())])


def test_apply_fun_on_closures():
    f = evaluate(s("\\x : int. produce (ret (succ x))")).value
    out, exact = apply_fun(f, T.nat(9))
    assert exact
    assert out == make_fset([dirac(T.nat(10))])


def test_render():
    assert render_value(TOP) == "tt"
    assert render_value(BOT) == "bot"
    assert render_value(T.nat(None)) == "bot"
    assert render_value(T.nat(3)) == "3"
    assert render_value(T.fbot()) == "bot"
    assert render_value(T.fset(())) == "must{}"
    assert render_value(make_fset([dirac(TOP)])) == "must{dist{1 @ tt}}"
    assert render_value(T.val(())) == "dist{}"
    f = evaluate(s("\\x : int. produce (ret x)")).value
    assert render_value(f) == "<function>"


# Hash-consing ----------------------------------------------------------------

# A recursion whose every iterate captures the previous iterate twice.
TWICE = ("produce (rec p : U (int -> F V unit) * U (int -> F V unit). "
         "(thunk (\\x : int. force (pi1 p) x), "
         "thunk (\\x : int. force (pi2 p) x)))")


def test_closure_keys_stay_linear_in_rec_depth(monkeypatch):
    # A closure keyed by its rendered environment doubles its key per
    # iterate here; keyed by its environment's ids, each iterate interns
    # the same few values.
    tables = []

    class Counting(densem._Ev):
        __slots__ = ()

        def __init__(self, rec_depth):
            super().__init__(rec_depth)
            tables.append(self)

    monkeypatch.setattr(densem, "_Ev", Counting)
    interned = {}
    for depth in (16, 64):
        out = val_of(TWICE, rec_depth=depth)
        assert not out.exact
        assert render_value(out.value) == "must{(<function>, <function>)}"
        interned[depth] = len(tables.pop().nodes)
    assert interned[64] <= 4 * interned[16]


def test_equal_values_of_one_evaluation_are_one_node():
    out = val_of("((1, *), (1, *))").value
    assert out.fst is out.snd
    again = val_of("((1, *), (1, *))").value
    assert again == out and again is not out and hash(again) == hash(out)
    assert skey(out) is skey(out)


def test_make_val_keeps_fraction_weights():
    w = Fraction(1, 3)
    assert make_val([(w, TOP)]).entries[0][0] is w
    assert make_val([(1, TOP)]).entries[0][0] == 1


def test_choice_normalizes_once(monkeypatch):
    calls = []
    real = densem.make_val
    monkeypatch.setattr(densem, "make_val",
                        lambda *a: calls.append(1) or real(*a))
    out = val_of("ret 1 (+) ret 2")
    assert out.value == make_val([(HALF, T.nat(1)), (HALF, T.nat(2))])
    assert len(calls) == 3  # the two rets and the choice


def test_foreign_values_are_adopted_as_built():
    # A generator set built by hand keeps its raw generators in a table.
    raw = T.fset((make_val([(HALF, TOP)]), dirac(TOP)))
    tab = densem.Table()
    kept = tab.adopt(raw)
    assert kept == raw and kept.gens == raw.gens and kept is tab.adopt(raw)
    with pytest.raises(DomainError, match="not a semantic value"):
        tab.adopt(3)
    # A table is the only way to build a value.
    for make in (lambda: densem.SInt(1), densem.FBot):
        with pytest.raises(TypeError, match="come from densem.Table"):
            make()
    # Every composite constructor adopts children from another table: keys
    # are made of child ids, which are unique only within one table. The
    # two tables give the same points swapped ids, so a constructor that
    # kept a foreign child's id would find its own table's other value.
    other, tab = densem.Table(), densem.Table()
    theirs = [other.nat(1), other.nat(2)]
    theirs += [other.const(x) for x in theirs]
    mine = [tab.nat(2), tab.nat(1)]
    mine += [tab.const(x) for x in mine]
    body = Produce(Ret(Var("u", INT)))
    for build in (lambda t, a, b, f, g: t.pair(a, b),
                  lambda t, a, b, f, g: t.val(((HALF, a), (HALF, b))),
                  lambda t, a, b, f, g: t.fset((a, b)),
                  lambda t, a, b, f, g: t.fun((f, g)),
                  lambda t, a, b, f, g: t.const(a),
                  lambda t, a, b, f, g: t.closure("x", INT, body, ("u",),
                                                  (a,))):
        own = build(tab, *mine)
        made = build(tab, *theirs)
        want = build(other, *theirs)
        assert made is tab.adopt(want)
        assert made == want and hash(made) == hash(want) and own != want
        # Across tables, == and hash agree with skey.
        for a, b in ((made, want), (own, want)):
            assert (a == b) is (skey(a) == skey(b))


# Properties under a fixed profile: derandomized, so tier-1 stays
# reproducible, and small enough to add only a few seconds.
PROFILE = settings(max_examples=40, derandomize=True, deadline=None,
                   database=None)

INT_POINTS = st.builds(T.nat, st.none() | st.integers(0, 3))


def _copy(x):
    """A structurally equal point that is a different object."""
    return densem.Table().nat(x.value)


@PROFILE
@given(st.lists(st.tuples(st.integers(1, 6), INT_POINTS), max_size=6),
       st.randoms(use_true_random=False))
def test_make_val_ignores_order_and_duplication(raw, rng):
    denom = max(1, sum(k for k, _ in raw))
    pairs = [(Fraction(k, denom), x) for k, x in raw]
    # Shuffle, and split every weight over two copies of its point.
    split = [(w / 2, y) for w, x in pairs for y in (x, _copy(x))]
    rng.shuffle(split)
    a, b = make_val(pairs), make_val(split)
    assert a == b and skey(a) == skey(b)
    assert render_value(a) == render_value(b)
    tab = densem.Table()
    assert make_val(pairs, tab) is make_val(split, tab)


VALUATIONS = st.lists(st.tuples(st.integers(1, 3), INT_POINTS),
                      max_size=3).map(
    lambda raw: make_val((Fraction(k, 9), x) for k, x in raw))


@PROFILE
@given(st.lists(VALUATIONS, min_size=1, max_size=4),
       st.randoms(use_true_random=False))
def test_make_fset_ignores_order_and_duplication(gens, rng):
    more = gens + [rng.choice(gens) for _ in range(3)]
    rng.shuffle(more)
    a, b = make_fset(gens), make_fset(more)
    assert a == b and skey(a) == skey(b)
    assert render_value(a) == render_value(b)
    tab = densem.Table()
    assert make_fset(gens, tab) is make_fset(more, tab)


GEN_TYPES = [FVUNIT, ArrowT(INT, ProducerT(DistT(INT))),
             ProdT(INT, DistT(UNIT)),
             ThunkT(ProducerT(DistT(ThunkT(ArrowT(INT, FVUNIT)))))]


@PROFILE
@given(st.integers(0, 10 ** 6), st.sampled_from(GEN_TYPES),
       st.sampled_from([0.0, 0.35]))
def test_separate_evaluations_agree(seed, ty, rec_probability):
    term = TermGen(GenPolicy(max_depth=5, seed=seed, omega_weight=1,
                             rec_probability=rec_probability)).term(ty)
    a, b = evaluate(term, rec_depth=8), evaluate(term, rec_depth=8)
    assert a.value == b.value and hash(a.value) == hash(b.value)
    assert render_value(a.value) == render_value(b.value)
    assert skey(a.value) == skey(b.value)
    assert sem_equal(a.value, b.value) and a.exact == b.exact


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


def _as_val(weights: dict, tab=None):
    return make_val(((w, T.nat(p)) for p, w in weights.items()), tab)


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
    # A table of its own per call gives the same answers.
    assert leq(_as_val(maps[0]), _as_val(maps[1])) is leq(vals[0], vals[1],
                                                           tab)
