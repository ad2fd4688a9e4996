"""Small-step engine: frozen examples, budget laws, certified bounds."""

from fractions import Fraction

import pytest

from cbpvdp import surface, syntax
from cbpvdp.syntax import (
    INT, UNIT, VUNIT, HOLE_FIELD,
    App, Do, EvalContext, Force, Ifz, NumLit, Pair, PChoice, Pred, Produce,
    Proj1, Proj2, Ret, Seq, Star, Succ, To, Var,
    EMPTY_CTX, HOLE, PRODUCE_HOLE, PRODUCE_RET_HOLE, canon_frame,
)
from cbpvdp.typecheck import TypeCheckError
from cbpvdp.opsem import (
    Configuration, Det, ObsGate, SplitNChoice, SplitPChoice, SplitPifz,
    Stuck, Terminal, initial_config, pr_limit, prob, step, trace,
)

# Fair coin between returning and hanging: must terminate with mass 1/2.
COIN = "produce (ret * (+) omega[V unit])"

# Geometric retry: terminates with mass 1. Its configuration graph closes
# into a loop, so the solve certifies 1 exactly.
GEOMETRIC = "produce (rec u : V unit. (ret * (+) u))"


def s(text):
    return surface.parse(text)


def frozen(term_text, budget):
    return prob(initial_config(s(term_text)), budget)


def test_coin_is_half_exactly():
    res = frozen(COIN, 20)
    assert res.lower == Fraction(1, 2)
    assert res.exact is True
    # Two steps to the split, two down the returning arm, and one unfold of
    # the hanging arm, whose next unfold is its own keyed configuration.
    assert res.steps_used == 5


def test_coin_partial_budget_is_sound():
    # with too small a budget the bounds widen but never cross the truth;
    # a larger budget only tightens them
    prev = (Fraction(0), Fraction(1))
    for k in range(0, 21):
        res = frozen(COIN, k)
        assert prev[0] <= res.lower <= Fraction(1, 2) <= res.upper <= prev[1]
        prev = (res.lower, res.upper)


def test_omega_lower_bound_is_zero_for_every_budget():
    for k in range(0, 12):
        res = frozen("produce (omega[V unit])", k)
        assert res.lower == 0
    # divergence is certified once the unfold loops back to its own node,
    # which is keyed before it is stepped a second time
    assert frozen("produce (omega[V unit])", 1).exact is False
    assert frozen("produce (omega[V unit])", 2).exact is True
    assert frozen("produce (omega[V unit])", 100).exact is True


def test_abort_terminates_immediately():
    res = frozen("abort[F V unit]", 1)
    assert res.lower == 1
    assert res.exact is True
    assert res.steps_used <= 1


def test_star_at_answer_position():
    cfg = Configuration(EvalContext(PRODUCE_RET_HOLE, ()), Star())
    res = prob(cfg, 1)
    assert (res.lower, res.exact) == (1, True)
    cfg = Configuration(EvalContext(PRODUCE_HOLE, ()), Ret(Star()))
    res = prob(cfg, 2)
    assert (res.lower, res.exact) == (1, True)


def test_zero_budget_is_trivial_bound():
    res = frozen("produce (ret *)", 0)
    assert (res.lower, res.upper, res.steps_used) == (0, 1, 0)


def test_step_shapes():
    cfg = initial_config(s("produce (ret *)"))
    r1 = step(cfg)
    assert isinstance(r1, Det)
    r2 = step(r1.next)
    assert isinstance(r2, Det)
    r3 = step(r2.next)
    assert isinstance(r3, Terminal)


def test_split_shapes():
    assert isinstance(step(initial_config(s("ret * (+) ret *"))), SplitPChoice)
    assert isinstance(
        step(initial_config(s("produce (ret *) /\\ produce (ret *)"))),
        SplitNChoice)
    assert isinstance(
        step(initial_config(
            s("pifz 0 (produce (ret *)) (produce (ret *))"))), SplitPifz)


def test_obs_gate_shape():
    # sequencing discovers the tester first, then the gate split appears
    cfg = initial_config(s("obs[1/2] (produce (ret *)) ; produce (ret *)"))
    r = step(cfg)
    while isinstance(r, Det):
        r = step(r.next)
    assert isinstance(r, ObsGate)
    assert r.bound == Fraction(1, 2)


def test_obs_passes_when_inner_mass_clears_bound():
    res = frozen("obs[1/2] (produce (ret *)) ; produce (ret *)", 50)
    assert (res.lower, res.exact) == (1, True)


def test_obs_refuted_when_inner_mass_at_bound():
    # inner mass is exactly 1/2, the gate needs strictly more
    t = "obs[1/2] (" + COIN + ") ; produce (ret *)"
    res = frozen(t, 200)
    assert (res.lower, res.exact) == (0, True)


def test_obs_inexact_refutation_without_certificate():
    # budget too small to certify the inner bound, so the gate stays shut
    # without a verdict
    t = "obs[1/2] (" + COIN + ") ; produce (ret *)"
    res = frozen(t, 4)
    assert res.lower == 0
    assert res.exact is False


def test_pchoice_averages():
    res = frozen(COIN, 50)
    assert (res.lower, res.exact) == (Fraction(1, 2), True)


def test_nchoice_takes_min():
    res = frozen("produce (ret *) /\\ (" + COIN + ")", 50)
    assert (res.lower, res.exact) == (Fraction(1, 2), True)


def test_nchoice_exactness_needs_dominating_side():
    # left side exact at 1/2; right side diverges with exact 0: min is 0
    res = frozen("(" + COIN + ") /\\ omega[F V unit]", 100)
    assert (res.lower, res.exact) == (0, True)


def test_pifz_zero_takes_then_branch_via_max():
    res = frozen("pifz 0 (produce (ret *)) omega[F V unit]", 100)
    assert (res.lower, res.exact) == (1, True)


def test_pifz_branches_rescue_diverging_scrutinee():
    t = "pifz (rec x : int. x) (produce (ret *)) (produce (ret *))"
    res = frozen(t, 100)
    assert (res.lower, res.exact) == (1, True)


def test_pifz_min_of_branches_when_scrutinee_hangs():
    t = "pifz (rec x : int. x) (produce (ret *)) (" + COIN + ")"
    res = frozen(t, 200)
    assert (res.lower, res.exact) == (Fraction(1, 2), True)


def test_budget_monotone_on_geometric_retry():
    prev = Fraction(0)
    for k in range(0, 121, 8):
        res = frozen(GEOMETRIC, k)
        assert res.lower >= prev
        prev = res.lower
    assert prev > Fraction(9, 10)


def test_pr_limit_convergence():
    res = pr_limit(s(GEOMETRIC),
                   epsilon=Fraction(1, 10 ** 6), max_budget=10 ** 5)
    assert (res.lower, res.exact) == (1, True)


def test_epsilon_zero_geometric_is_exact_without_recursion_error():
    # The budget-indexed tree walk recursed once per choice split and
    # overflowed the Python stack here; the graph closes after 5 steps.
    res = pr_limit(s(GEOMETRIC), epsilon=Fraction(0), max_budget=1000)
    assert (res.lower, res.upper, res.steps_used) == (1, 1, 5)


def test_deep_choice_chain_is_exact_at_epsilon_zero():
    # 600 right-nested (+) arms, built as an AST since the parser limits
    # nesting: exploration, components and solve hold no Python frame per
    # level. Every arm returns, so the value is 1, reached when the last
    # arm is explored.
    term = Ret(Star())
    for _ in range(600):
        term = PChoice(Ret(Star()), term)
    res = pr_limit(Produce(term), epsilon=Fraction(0), max_budget=10 ** 5)
    assert (res.lower, res.upper) == (1, 1)


def test_bounds_from_an_open_graph_bracket_the_value():
    # A non-tail self-call pushes a frame per unfolding, so the graph never
    # closes: the bounds stay an interval around the value 1.
    t = "produce (rec u : V unit. (ret * (+) (do x : unit <- u in u)))"
    res = pr_limit(s(t), epsilon=Fraction(0), max_budget=500)
    assert 0 < res.lower < 1 == res.upper and not res.exact


def test_pr_limit_exact_stops_early():
    res = pr_limit(s(COIN), epsilon=Fraction(1, 10 ** 6), max_budget=10 ** 6)
    assert (res.lower, res.exact) == (Fraction(1, 2), True)
    assert res.steps_used <= 64


def test_pr_limit_rejects_wrong_type():
    with pytest.raises(TypeCheckError):
        pr_limit(s("produce *"))


def test_pr_config_checks_context():
    # A configuration is run as its plugged term: the context is typed
    # together with its focus before the engine starts.
    res = pr_limit(syntax.plug(EvalContext(PRODUCE_HOLE, ()), Ret(Star())),
                   epsilon=Fraction(0), max_budget=100)
    assert (res.lower, res.exact) == (1, True)


def test_pr_config_rejects_focus_type_mismatch():
    with pytest.raises(TypeCheckError):
        pr_limit(syntax.plug(EvalContext(PRODUCE_HOLE, ()), NumLit(3)),
                 max_budget=10)


def test_trace_rule_names():
    entries = trace(s(
        "force (thunk (produce (ret *))) to x : V unit in produce x"))
    rules = [e.rule for e in entries]
    assert rules == [
        "start", "discover", "discover", "force-thunk", "to-produce",
        "init-produce", "init-ret", "axiom-star",
    ]


def test_trace_stops_at_split():
    entries = trace(s("produce (ret * (+) ret *)"))
    assert entries[-1].rule == "split-pchoice"


def test_config_key_is_alpha_invariant():
    a = initial_config(s("produce (ret *) to x : V unit in produce x"))
    b = initial_config(s("produce (ret *) to y : V unit in produce y"))
    assert a.key() == b.key()


def to_frame(name, ty=VUNIT):
    return To(Star(), name, ty, Produce(Var(name, ty)))


def do_frame(name, body=None):
    return Do(name, UNIT, Star(), body or Ret(Var(name, UNIT)))


def keyed(*frames):
    return Configuration(EvalContext(HOLE, frames), Produce(Ret(Star()))).key()


def test_config_key_ignores_frame_binder_names():
    assert keyed(to_frame("x")) == keyed(to_frame("y"))
    assert keyed(do_frame("x")) == keyed(do_frame("y"))
    assert keyed(to_frame("x"), do_frame("x")) == \
        keyed(to_frame("y"), do_frame("z"))


def test_config_key_tells_frames_apart():
    base = keyed(to_frame("x"), do_frame("y"))
    assert keyed(to_frame("x", INT), do_frame("y")) != base
    assert keyed(to_frame("x"), do_frame("y", Ret(Star()))) != base
    assert keyed(do_frame("y"), to_frame("x")) != base
    assert keyed(to_frame("x")) != base


def test_config_key_tells_every_frame_kind_apart():
    yes, no = s("produce (ret *)"), s("produce omega[V unit]")
    frames = {
        "app": App(Star(), NumLit(1)),
        "app other arg": App(Star(), NumLit(2)),
        "to": to_frame("x"),
        "to body with x free": To(Star(), "y", VUNIT,
                                  Produce(Var("x", VUNIT))),
        "force": Force(Star()),
        "succ": Succ(Star()),
        "pred": Pred(Star()),
        "ifz": Ifz(Star(), yes, no),
        "ifz swapped": Ifz(Star(), no, yes),
        "seq": Seq(Star(), yes),
        "seq other rest": Seq(Star(), no),
        "proj1": Proj1(Star()),
        "proj2": Proj2(Star()),
        "do": do_frame("y"),
        "do other body": do_frame("y", Ret(Star())),
    }
    keys = {name: keyed(frame) for name, frame in frames.items()}
    assert len(set(keys.values())) == len(frames), keys


def test_config_key_equates_equal_frames_of_every_kind():
    for make in (
            lambda: App(Star(), NumLit(1)),
            lambda: Force(Star()),
            lambda: Succ(Star()),
            lambda: Pred(Star()),
            lambda: Ifz(Star(), s("produce (ret *)"), Produce(Ret(Star()))),
            lambda: Seq(Star(), s("produce (ret *)")),
            lambda: Proj1(Star()),
            lambda: Proj2(Star())):
        a, b = make(), make()
        assert a is not b and keyed(a) == keyed(b), a
    # Binder names never matter, in a frame's body under further binders too.
    def to_nested(x, y):
        body = To(Produce(Var(x, UNIT)), y, UNIT,
                  Produce(Ret(Pair(Var(x, UNIT), Var(y, UNIT)))))
        return To(Star(), x, UNIT, body)

    def do_nested(x, y):
        body = Do(y, UNIT, Ret(Var(x, UNIT)),
                  Ret(Pair(Var(y, UNIT), Var(x, UNIT))))
        return Do(x, UNIT, Star(), body)

    assert keyed(to_nested("x", "y")) == keyed(to_nested("a", "b"))
    assert keyed(to_nested("x", "y")) == keyed(to_nested("y", "x"))
    assert keyed(do_nested("x", "y")) == keyed(do_nested("b", "a"))
    assert keyed(to_nested("x", "y")) != keyed(do_nested("x", "y"))


# Exact keys, pinned so that a change in how frames are built or rendered
# cannot change a key unnoticed. First a context holding one frame of each
# kind, then configurations whose frames the machine itself pushed: between
# them the two spines discover every kind, and the first ends in the ifz
# frame that a pifz split pushes.

PINNED_TEN_FRAMES = (
    "hole",
    "(App(*)(n1))",
    "(To[:V unit](*)(Produce(v#0)))",
    "(Force(*))",
    "(Succ(*))",
    "(Pred(*))",
    "(Ifz(*)(Produce(Ret(*)))(Produce(Rec[:V unit](v#0))))",
    "(Seq(*)(Produce(Ret(*))))",
    "(Proj1(*))",
    "(Proj2(*))",
    "(Do[:unit](*)(Ret(v#0)))",
    "(Lambda[:int](Produce(Ret(*))))",
)

_CALLED = ("(Pifz(Succ(v#0))(Produce(Ret(*)))"
           "(Force(Rec[:U F V unit](v#1))))")

PINNED_SPINES = {
    "(force (thunk (\\n : int. pifz (succ n) (produce (ret *)) "
    "omega[F V unit]))) 2 to x : V unit in produce x": {
        3: ("hole", "(To[:V unit](*)(Produce(v#0)))", "(App(*)(n2))",
            "(Force(*))", f"(Thunk(Lambda[:int]{_CALLED}))"),
        6: ("hole", "(To[:V unit](*)(Produce(v#0)))",
            "(Ifz(*)(Produce(Ret(*)))(Force(Rec[:U F V unit](v#0))))",
            "(Succ(n2))"),
    },
    "produce (do y : unit <- ifz (pred (succ (pi2 (*, 1)))) (ret *) "
    "(pi1 (ret *, 1)) in (y ; ret y))": {
        6: ("produce", "(Do[:unit](*)(Seq(v#0)(Ret(v#0))))",
            "(Ifz(*)(Ret(*))(Proj1(Pair(Ret(*))(n1))))", "(Pred(*))",
            "(Succ(*))", "(Proj2(*))", "(Pair(*)(n1))"),
        11: ("produce", "(Do[:unit](*)(Seq(v#0)(Ret(v#0))))", "(Proj1(*))",
             "(Pair(Ret(*))(n1))"),
        14: ("produce", "(Seq(*)(Ret(*)))", "(*)"),
    },
}


def spine_keys(text):
    """Keys along the deterministic spine of a program, ending with the
    scrutinee run of a pifz split when the spine reaches one."""
    cfg = initial_config(s(text))
    keys = [cfg.key()]
    while True:
        out = step(cfg)
        if isinstance(out, SplitPifz):
            return keys + [out.via_ifz.key()]
        if not isinstance(out, Det):
            return keys
        cfg = out.next
        keys.append(cfg.key())


def test_config_keys_are_pinned_for_every_frame_kind():
    yes, no = s("produce (ret *)"), s("produce omega[V unit]")
    frames = (App(Star(), NumLit(1)), to_frame("x"), Force(Star()),
              Succ(Star()), Pred(Star()), Ifz(Star(), yes, no),
              Seq(Star(), yes), Proj1(Star()), Proj2(Star()), do_frame("y"))
    focus = s("\\z : int. produce (ret *)")
    assert Configuration(EvalContext(HOLE, frames), focus).key() == \
        PINNED_TEN_FRAMES
    for text, pinned in PINNED_SPINES.items():
        keys = spine_keys(text)
        assert {i: keys[i] for i in pinned} == pinned, text


def test_config_key_renders_each_frame_once(monkeypatch):
    # A frame keeps its canon on the node, so every configuration pushed
    # above it reuses the string. Count the first renderings of frames.
    rendered = []
    render = syntax._canon

    def counted(term, env, depth, out):
        if not env and type(term) in HOLE_FIELD:
            rendered.append(term)
        return render(term, env, depth, out)

    monkeypatch.setattr(syntax, "_canon", counted)
    k = 5
    ctx = EMPTY_CTX
    for i in range(k):
        ctx = ctx.push(to_frame(f"x{i}"))
    inner = Configuration(ctx, Produce(Ret(Star())))
    outer = Configuration(ctx.push(do_frame("y")), Ret(Star()))
    first = inner.key()
    assert len(rendered) == k
    assert outer.key()[1:k + 1] == first[1:k + 1]
    assert inner.key() == first
    assert len(rendered) == k + 1
    assert {id(f) for f in rendered} == {id(f) for f in outer.ctx.frames}


def test_deep_context_key_matches_a_directly_built_context():
    # Keying a context thousands of frames deep walks them in a loop, with
    # no Python frame per context frame.
    n = 5000
    focus = Produce(Ret(Star()))
    ctx = EMPTY_CTX
    for i in range(n):
        ctx = ctx.push(to_frame(f"x{i % 7}"))
    key = Configuration(ctx, focus).key()
    direct = EvalContext(HOLE, tuple(to_frame("x") for _ in range(n)))
    assert Configuration(direct, focus).key() == key
    assert len(key) == n + 2
    assert key[1:-1] == (canon_frame(to_frame("x")),) * n
    # The kept prefix serves every later key at that context.
    assert Configuration(ctx, Ret(Star())).key()[:-1] == key[:-1]


def test_frame_cache_leaves_equality_hash_and_repr():
    kept, fresh = do_frame("y"), do_frame("y")
    text = canon_frame(kept)
    assert canon_frame(kept) is text
    assert kept == fresh and hash(kept) == hash(fresh)
    assert repr(kept) == repr(fresh)
    assert text not in repr(kept)
    assert canon_frame(fresh) == text


def test_deep_det_chain_no_recursion_limit():
    # a long chain of sequenced skips must not touch the Python stack
    n = 5000
    t = s("produce (ret *)")
    for _ in range(n):
        t = Seq(Star(), t)
    res = prob(initial_config(t), 2 * n + 5)
    assert (res.lower, res.exact) == (1, True)


def test_keys_reuse_the_rendering_of_shared_subterms(monkeypatch):
    # Each unfolding shares the rec node, and a key appends the kept
    # rendering of every subterm it reaches outside all binders, or under
    # binders none of which binds a free name of the subterm, instead of
    # rendering it again (canon returns a node's kept string without a
    # visit). The explorer steps each configuration once, 128 steps out to
    # the second horizon, where the budget-indexed tree walk took 6,639,
    # and keys 127 branch arms and rec unfolds in 260 visits.
    visits = [0]
    render = syntax._canon

    def counted(*args):
        visits[0] += 1
        return render(*args)

    monkeypatch.setattr(syntax, "_canon", counted)
    res = pr_limit(s("produce (rec g : V unit. ((do y : unit <- g in "
                     "(rec x : V unit. x)) (+) g))"), max_budget=50_000)
    assert res.steps_used == 128
    assert visits[0] <= 260


def _pushed(*frames, initial=HOLE):
    ctx = EvalContext(initial)
    for frame in frames:
        ctx = ctx.push(frame)
    return ctx


RET_STAR = Produce(Ret(Star()))
X = Var("x", INT)

# (rule, context, focus, the configuration the rule yields), one per
# contraction, initial shape, unfold and discovery that step knows.
CONTRACTIONS = [
    ("beta", _pushed(App(Star(), NumLit(4))),
     syntax.Lambda("x", INT, Produce(X)), (EMPTY_CTX, Produce(NumLit(4)))),
    ("to-produce", _pushed(To(Star(), "x", INT, Produce(Succ(X)))),
     Produce(NumLit(4)), (EMPTY_CTX, Produce(Succ(NumLit(4))))),
    ("force-thunk", _pushed(Force(Star())), syntax.Thunk(RET_STAR),
     (EMPTY_CTX, RET_STAR)),
    ("succ", _pushed(RET_STAR, Succ(Star())), NumLit(2),
     (_pushed(RET_STAR), NumLit(3))),
    ("pred", _pushed(Pred(Star())), NumLit(0), (EMPTY_CTX, NumLit(0))),
    ("ifz0", _pushed(Ifz(Star(), NumLit(1), NumLit(2))), NumLit(0),
     (EMPTY_CTX, NumLit(1))),
    ("ifzN", _pushed(Ifz(Star(), NumLit(1), NumLit(2))), NumLit(7),
     (EMPTY_CTX, NumLit(2))),
    ("seq", _pushed(Seq(Star(), RET_STAR)), Star(), (EMPTY_CTX, RET_STAR)),
    ("proj1", _pushed(Proj1(Star())), Pair(NumLit(1), Star()),
     (EMPTY_CTX, NumLit(1))),
    ("proj2", _pushed(Proj2(Star())), Pair(NumLit(1), Star()),
     (EMPTY_CTX, Star())),
    ("do-ret", _pushed(Do("x", INT, Star(), Ret(Succ(X)))), Ret(NumLit(5)),
     (EMPTY_CTX, Ret(Succ(NumLit(5))))),
    ("init-produce", EMPTY_CTX, RET_STAR,
     (EvalContext(PRODUCE_HOLE), Ret(Star()))),
    ("init-ret", EvalContext(PRODUCE_HOLE), Ret(Star()),
     (EvalContext(PRODUCE_RET_HOLE), Star())),
    ("rec", EvalContext(PRODUCE_HOLE),
     syntax.Rec("u", VUNIT, Var("u", VUNIT)),
     (EvalContext(PRODUCE_HOLE), syntax.Rec("u", VUNIT, Var("u", VUNIT)))),
    ("discover", EMPTY_CTX, Seq(Star(), RET_STAR),
     (_pushed(Seq(Star(), RET_STAR)), Star())),
]


@pytest.mark.parametrize("rule,ctx,focus,after", CONTRACTIONS,
                         ids=[c[0] for c in CONTRACTIONS])
def test_every_contraction_fires_with_its_rule_name(rule, ctx, focus, after):
    out = step(Configuration(ctx, focus))
    assert isinstance(out, Det)
    assert out.rule == rule
    assert out.next.key() == Configuration(*after).key()


def test_discovery_pushes_every_eliminator():
    for cls, hole in HOLE_FIELD.items():
        term = s({App: "(\\x : int. produce x) 1",
                  To: "produce 1 to x : int in produce x",
                  Force: "force (thunk (produce 1))", Succ: "succ 1",
                  Pred: "pred 1", Ifz: "ifz 1 2 3", Seq: "* ; produce 1",
                  Proj1: "pi1 (1, 2)", Proj2: "pi2 (1, 2)",
                  Do: "do x : int <- ret 1 in ret x"}[cls])
        out = step(Configuration(EMPTY_CTX, term))
        assert out.rule == "discover"
        assert out.next.focus is getattr(term, hole)
        frame = out.next.ctx.top
        assert type(frame) is cls and getattr(frame, hole) == Star()


def test_axioms_and_branching_forms_by_focus():
    assert step(Configuration(_pushed(Succ(Star())), syntax.Abort(
        syntax.FVUNIT))) == Terminal("axiom-abort")
    assert step(Configuration(EvalContext(PRODUCE_RET_HOLE), Star())) == \
        Terminal("axiom-star")
    for text, kind in (("ret * (+) ret *", SplitPChoice),
                       ("produce 1 /\\ produce 2", SplitNChoice),
                       ("pifz 0 (produce 1) (produce 2)", SplitPifz),
                       ("obs[1/2] (produce (ret *))", ObsGate)):
        assert type(step(Configuration(_pushed(Succ(Star())), s(text)))) \
            is kind


@pytest.mark.parametrize("ctx,focus,reason", [
    (EMPTY_CTX, Var("y", INT), "free variable y at the focus"),
    (_pushed(Succ(Star())), Star(), "settled term Star with no matching frame"),
    (EMPTY_CTX, NumLit(3), "settled term NumLit with no matching frame"),
    (EvalContext(PRODUCE_HOLE), syntax.Thunk(RET_STAR),
     "settled term Thunk with no matching frame"),
    (_pushed(App(Star(), NumLit(1))), Pair(Star(), Star()),
     "settled term Pair with no matching frame"),
    (EvalContext(PRODUCE_RET_HOLE), Ret(Star()), "no rule for Ret"),
    (_pushed(Force(Star())), RET_STAR, "no rule for Produce"),
    (EMPTY_CTX, 42, "no rule for int"),
])
def test_stuck_reasons(ctx, focus, reason):
    assert step(Configuration(ctx, focus)) == Stuck(reason)
