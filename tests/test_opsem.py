"""Small-step engine: frozen examples, budget laws, certified bounds."""

import pathlib
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cbpvdp import harness, opsem, surface, syntax, typecheck
from cbpvdp.harness import GenPolicy, TermGen
from cbpvdp.syntax import (
    INT, UNIT, VUNIT, HOLE_FIELD,
    App, Do, EvalContext, Force, Ifz, NumLit, Pair, PChoice, Pred, Produce,
    Proj1, Proj2, Ret, Seq, Star, Succ, To, Var,
    EMPTY_CTX, HOLE, PRODUCE_HOLE, PRODUCE_RET_HOLE, SHAPE_IDS, IdTable,
    canon_frame, class_id, context_id,
)
from cbpvdp.solver import AVG, CONST, DET, MAX, MIN, solve_singletons
from cbpvdp.typecheck import TypeCheckError
from cbpvdp.opsem import (
    Configuration, Det, ObsGate, SplitNChoice, SplitPChoice, SplitPifz,
    Stuck, Terminal, initial_config, pr_limit, prob, step, trace,
)

from test_defects import COUNTDOWN
from test_solver import brute_force

# Fair coin between returning and hanging: must terminate with mass 1/2.
COIN = "produce (ret * (+) omega[V unit])"

# Geometric retry: terminates with mass 1. Its configuration graph closes
# into a loop, so the solve certifies 1 exactly.
GEOMETRIC = "produce (rec u : V unit. (ret * (+) u))"


def s(text):
    return surface.parse(text)


# The table that configurations built by hand are keyed in: keys compare
# only within one table.
IDS = IdTable()


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
    assert a.key(IDS) == b.key(IDS)


def to_frame(name, ty=VUNIT):
    return To(Star(), name, ty, Produce(Var(name)))


def do_frame(name, body=None):
    return Do(name, UNIT, Star(), body or Ret(Var(name)))


def keyed(*frames):
    return Configuration(EvalContext(HOLE, frames), Produce(Ret(Star()))).key(
        IDS)


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
                                  Produce(Var("x"))),
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
        body = To(Produce(Var(x)), y, UNIT,
                  Produce(Ret(Pair(Var(x), Var(y)))))
        return To(Star(), x, UNIT, body)

    def do_nested(x, y):
        body = Do(y, UNIT, Ret(Var(x)),
                  Ret(Pair(Var(y), Var(x))))
        return Do(x, UNIT, Star(), body)

    assert keyed(to_nested("x", "y")) == keyed(to_nested("a", "b"))
    assert keyed(to_nested("x", "y")) == keyed(to_nested("y", "x"))
    assert keyed(do_nested("x", "y")) == keyed(do_nested("b", "a"))
    assert keyed(to_nested("x", "y")) != keyed(do_nested("x", "y"))


def spine_configs(text):
    """The configurations along the deterministic spine of a program, ending
    with the scrutinee run of a pifz split when the spine reaches one."""
    cfg = initial_config(s(text))
    configs = [cfg]
    while True:
        out = step(cfg)
        if isinstance(out, SplitPifz):
            return configs + [out.via_ifz]
        if not isinstance(out, Det):
            return configs
        cfg = out.next
        configs.append(cfg)


# Which configurations share a key, pinned: between them the two spines
# discover every frame kind, and the first ends in the ifz frame that a pifz
# split pushes. Each twin is built by hand, with other binder names, and
# shares its key with the spine's configuration at that step and with no
# other configuration here.

SPINES = (
    "(force (thunk (\\n : int. pifz (succ n) (produce (ret *)) "
    "omega[F V unit]))) 2 to x : V unit in produce x",
    "produce (do y : unit <- ifz (pred (succ (pi2 (*, 1)))) (ret *) "
    "(pi1 (ret *, 1)) in (y ; ret y))",
)

_RET = Produce(Ret(Star()))
_HANG = Force(syntax.Rec("w", syntax.ThunkT(syntax.FVUNIT),
                         Var("w")))
_DO = Do("z", UNIT, Star(), Seq(Var("z"), Ret(Var("z"))))


def _twins():
    def produced(*frames):
        return _pushed(*frames, initial=PRODUCE_HOLE)

    return {
        (0, 3): Configuration(
            _pushed(to_frame("y"), App(Star(), NumLit(2)), Force(Star())),
            syntax.Thunk(syntax.Lambda("m", INT, syntax.Pifz(
                Succ(Var("m")), _RET, _HANG)))),
        (0, 6): Configuration(_pushed(to_frame("y"), Ifz(Star(), _RET, _HANG)),
                              Succ(NumLit(2))),
        (1, 6): Configuration(
            produced(_DO, Ifz(Star(), Ret(Star()),
                              Proj1(Pair(Ret(Star()), NumLit(1)))),
                     Pred(Star()), Succ(Star()), Proj2(Star())),
            Pair(Star(), NumLit(1))),
        (1, 11): Configuration(produced(_DO, Proj1(Star())),
                               Pair(Ret(Star()), NumLit(1))),
        (1, 14): Configuration(produced(Seq(Star(), Ret(Star()))), Star()),
    }


def test_config_keys_are_shared_exactly_as_pinned():
    yes, no = s("produce (ret *)"), s("produce omega[V unit]")
    frames = (App(Star(), NumLit(1)), to_frame("x"), Force(Star()),
              Succ(Star()), Pred(Star()), Ifz(Star(), yes, no),
              Seq(Star(), yes), Proj1(Star()), Proj2(Star()), do_frame("y"))
    renamed = frames[:1] + (to_frame("u"),) + frames[2:-1] + (do_frame("v"),)
    focus = s("\\z : int. produce (ret *)")
    configs = {("ten", k): Configuration(EvalContext(HOLE, frames[:k]), focus)
               for k in range(len(frames) + 1)}
    configs["ten renamed"] = Configuration(
        EvalContext(HOLE, renamed), s("\\q : int. produce (ret *)"))
    for i, text in enumerate(SPINES):
        for k, cfg in enumerate(spine_configs(text)):
            configs[i, k] = cfg
    for where, twin in _twins().items():
        configs["twin", where] = twin
    classes = {}
    for label, cfg in configs.items():
        classes.setdefault(cfg.key(IDS), []).append(label)
    shared = sorted(sorted(map(str, group)) for group in classes.values()
                    if len(group) > 1)
    assert shared == sorted(
        [[str(("ten", 10)), "ten renamed"]] +
        [sorted([str(where), str(("twin", where))]) for where in _twins()])
    assert len(configs) == 41


def test_config_key_renders_each_frame_once(monkeypatch):
    # Discovery pushes the core's own nodes. A frame reads its id off its
    # key and keeps it on the node, and a context keeps its own, so every
    # configuration pushed above them reuses both, and no frame is walked.
    # Count the frame ids asked for, and the walks of frames.
    asked, walked = [], []
    frame_id, walk = syntax.frame_id, syntax._walk

    def counted_id(ids, frame):
        asked.append(frame)
        return frame_id(ids, frame)

    def counted_walk(ids, term, env, depth):
        if not env and type(term) in HOLE_FIELD:
            walked.append(term)
        return walk(ids, term, env, depth)

    monkeypatch.setattr(syntax, "frame_id", counted_id)
    monkeypatch.setattr(syntax, "_walk", counted_walk)
    k = 5
    text = "force (thunk (produce (ret *)))"
    for i in range(k):
        text = f"({text}) to x{i} : V unit in produce x{i}"
    core = typecheck.check(s(text), syntax.FVUNIT)
    inner = initial_config(core)
    for _ in range(k):
        inner = step(inner).next
    outer = step(inner).next
    assert outer.ctx.below is inner.ctx
    first = inner.key(core._ids)
    assert len(asked) == k
    assert outer.key(core._ids)[0] != first[0]
    assert outer.ctx.below.cid == first[0]
    assert inner.key(core._ids) == first
    assert [id(f) for f in asked] == [id(f) for f in outer.ctx.frames]
    assert not walked
    assert all("_fid" in vars(f) for f in outer.ctx.frames)


def test_deep_context_key_matches_a_directly_built_context():
    # Keying a context thousands of frames deep walks them in a loop, with
    # no Python frame per context frame.
    n = 5000
    focus = Produce(Ret(Star()))
    ctx = EMPTY_CTX
    for i in range(n):
        ctx = ctx.push(to_frame(f"x{i % 7}"))
    key = Configuration(ctx, focus).key(IDS)
    direct = EvalContext(HOLE, tuple(to_frame("x") for _ in range(n)))
    assert Configuration(direct, focus).key(IDS) == key
    shallower = EvalContext(HOLE, tuple(to_frame("x") for _ in range(n - 1)))
    assert Configuration(shallower, focus).key(IDS) != key
    # The kept id serves every later key at that context.
    assert Configuration(ctx, Ret(Star())).key(IDS)[0] == key[0]


def test_frame_cache_leaves_equality_hash_and_repr():
    # A frame of a core holds its subterm in its hole and keeps its id as
    # _fid, outside the dataclass fields. A context's id, and a frame's
    # rendering, take each frame as if * filled its hole.
    core = typecheck.check(s("produce (do y : unit <- ret * in ret y)"),
                           syntax.FVUNIT)
    kept, starred = core.value, do_frame("y")
    fresh = Do("y", UNIT, Ret(Star()), Ret(Var("y")))
    ctx, twin = _pushed(kept), _pushed(starred)
    ids = core._ids
    assert context_id(ids, ctx) == context_id(ids, twin)
    assert "_fid" in vars(kept) and kept._fid == class_id(ids, starred)
    assert kept == fresh and hash(kept) == hash(fresh)
    assert repr(kept) == repr(fresh) and "_fid" not in repr(kept)
    assert canon_frame(kept) == canon_frame(starred) == \
        "(Do[:unit](*)(Ret(v#0)))"
    assert context_id(ids, ctx) != context_id(
        ids, _pushed(Do("y", UNIT, Star(), Ret(Star()))))


def test_deep_det_chain_no_recursion_limit():
    # a long chain of sequenced skips must not touch the Python stack
    n = 5000
    t = s("produce (ret *)")
    for _ in range(n):
        t = Seq(Star(), t)
    res = prob(initial_config(t), 2 * n + 5)
    assert (res.lower, res.exact) == (1, True)


def test_a_long_chain_is_not_cut_by_epsilon():
    # One deterministic chain with no branch and no rec unfold keeps the
    # graph at its root, whose lower bound stays 0 until the chain ends;
    # two such rounds used to stop the run at the default epsilon.
    text = "produce (ret *)"
    for _ in range(100):
        text = f"produce * to x : unit in {text}"
    res = pr_limit(s(text))
    assert (res.lower, res.exact, res.steps_used) == (1, True, 203)


def test_keys_reuse_the_rendering_of_shared_subterms(monkeypatch):
    # Each unfolding shares the rec node, and ids come from children's ids
    # where nodes are built: the elaborator's, rebuild's for every copy a
    # substitution makes, a frame's from its own key, a walk's for the ifz
    # frames of pifz splits, and one per context keyed. The explorer steps
    # each configuration once, 128 steps out to the second horizon, where
    # the budget-indexed tree walk took 6,639, and keys 127 branch arms and
    # rec unfolds. Giving ids to their nodes and keys takes 49 calls; it
    # took 175 while discovery copied every frame, and 260 visits while
    # keys were renderings.
    computed = [0]

    def counting(module, name):
        real = getattr(module, name)

        def counted(*args):
            computed[0] += 1
            return real(*args)
        monkeypatch.setattr(module, name, counted)

    counting(typecheck, "_stamp")
    counting(syntax, "_walk")
    counting(syntax, "rebuild")
    counting(syntax, "frame_id")
    counting(syntax, "class_id")
    counting(opsem, "class_id")
    res = pr_limit(s("produce (rec g : V unit. ((do y : unit <- g in "
                     "(rec x : V unit. x)) (+) g))"), max_budget=50_000)
    assert res.steps_used == 128
    assert computed[0] <= 60


def _pushed(*frames, initial=HOLE):
    ctx = EvalContext(initial)
    for frame in frames:
        ctx = ctx.push(frame)
    return ctx


RET_STAR = Produce(Ret(Star()))
X = Var("x")

# (rule, context, focus, the configuration the rule yields), one per
# contraction, initial shape, unfold and discovery that step knows.
CONTRACTIONS = [
    ("beta", _pushed(App(Star(), NumLit(4))),
     syntax.Lambda("x", INT, Produce(X)), (EMPTY_CTX, Produce(NumLit(4)))),
    ("to-produce", _pushed(To(Star(), "x", INT, Produce(Succ(X)))),
     Produce(NumLit(4)), (EMPTY_CTX, Produce(Succ(NumLit(4))))),
    ("force-thunk", _pushed(Force(Star())), syntax.Thunk(RET_STAR),
     (EMPTY_CTX, RET_STAR)),
    ("succ", _pushed(Pred(Star()), Succ(Star())), NumLit(2),
     (_pushed(Pred(Star())), NumLit(3))),
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
     syntax.Rec("u", VUNIT, Var("u")),
     (EvalContext(PRODUCE_HOLE), syntax.Rec("u", VUNIT, Var("u")))),
    ("discover", EMPTY_CTX, Seq(Star(), RET_STAR),
     (_pushed(Seq(Star(), RET_STAR)), Star())),
]


@pytest.mark.parametrize("rule,ctx,focus,after", CONTRACTIONS,
                         ids=[c[0] for c in CONTRACTIONS])
def test_every_contraction_fires_with_its_rule_name(rule, ctx, focus, after):
    out = step(Configuration(ctx, focus))
    assert isinstance(out, Det)
    assert out.rule == rule
    assert out.next.key(IDS) == Configuration(*after).key(IDS)


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
        assert out.next.ctx.top is term


# (context, focus, outcome class) of each branching form, which fires
# whatever the context; CONTRACTIONS gives the deterministic rules.
BRANCHES = [
    (_pushed(Succ(Star())), s("ret * (+) ret *"), SplitPChoice),
    (_pushed(Succ(Star())), s("produce 1 /\\ produce 2"), SplitNChoice),
    (_pushed(Succ(Star())), s("pifz 0 (produce 1) (produce 2)"), SplitPifz),
    (_pushed(Succ(Star())), s("obs[1/2] (produce (ret *))"), ObsGate),
]


def test_axioms_and_branching_forms_by_focus():
    # The axioms return one shared record each.
    assert step(Configuration(_pushed(Succ(Star())), syntax.Abort(
        syntax.FVUNIT))) is opsem.AXIOM_ABORT == Terminal("axiom-abort")
    assert step(Configuration(EvalContext(PRODUCE_RET_HOLE), Star())) is \
        opsem.AXIOM_STAR == Terminal("axiom-star")
    for ctx, focus, kind in BRANCHES:
        assert type(step(Configuration(ctx, focus))) is kind


@pytest.mark.parametrize("ctx,focus,reason", [
    (EMPTY_CTX, Var("y"), "free variable y at the focus"),
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


# Records the rules build ----------------------------------------------------

def _through_the_class(out):
    """out built again through its class, and its configurations through
    Configuration."""
    return type(out)(*(Configuration(*f) if isinstance(f, Configuration)
                       else f for f in out))


@pytest.mark.parametrize(
    "ctx,focus,cls",
    [(ctx, focus, Det) for _, ctx, focus, _ in CONTRACTIONS] + BRANCHES,
    ids=[c[0] for c in CONTRACTIONS] + [b[2].__name__ for b in BRANCHES])
def test_step_records_are_their_classes(ctx, focus, cls):
    out = step(Configuration(ctx, focus))
    assert type(out) is cls and isinstance(out, cls)
    again = _through_the_class(out)
    assert out == again and hash(out) == hash(again)
    configs = [f for f in out if isinstance(f, tuple)]
    assert configs and all(type(c) is Configuration for c in configs)
    if cls is Det:
        assert out.next.ctx is out[0][0] and out.rule == out[1]
    else:
        assert out.rule == cls._field_defaults["rule"]


def test_shared_initial_contexts_stay_unkeyed():
    produce, produce_ret = opsem.PRODUCE_CTX, opsem.PRODUCE_RET_CTX
    assert step(initial_config(RET_STAR)).next.ctx is produce
    assert step(Configuration(produce, Ret(Star()))).next.ctx is produce_ret
    files = sorted((pathlib.Path(__file__).resolve().parent.parent
                    / "corpus").glob("*.cbpv"))
    assert files
    for path in files:
        pr_limit(s(path.read_text()))
    for ctx, shape in ((produce, PRODUCE_HOLE),
                       (produce_ret, PRODUCE_RET_HOLE)):
        assert (ctx.initial, ctx.below, ctx.top) == (shape, None, None)
        assert ctx.ids is None and ctx.cid == SHAPE_IDS[shape]


# The one-loop solve of a graph without a cycle -------------------------------


@st.composite
def acyclic_graphs(draw):
    """A graph as _Graph builds one with no cycle through two or more nodes
    and no gate: every edge runs to a newer node or back to its source. A
    CONST node is a terminal (1 in both systems) or frontier (0 in the lower
    system, 1 in the upper one)."""
    n = draw(st.integers(1, 8))
    kind, succ, lower = [], [], []
    for i in range(n):
        k = draw(st.sampled_from((CONST, DET, AVG, MIN, MAX)))
        node = st.integers(i, n - 1)
        kind.append(k)
        succ.append(() if k == CONST else (draw(node),) if k == DET else
                    (draw(node), draw(node)))
        lower.append(Fraction(draw(st.integers(0, 1))) if k == CONST
                     else Fraction(0))
    return kind, succ, lower


@settings(max_examples=300)
@given(acyclic_graphs())
# Self-loops of every kind, and an arm pair that is one node.
@example(([DET, CONST], [(0,), ()], [Fraction(0)] * 2))
@example(([AVG, MAX, MIN, CONST], [(0, 1), (2, 1), (3, 2), ()],
          [Fraction(0), Fraction(0), Fraction(0), Fraction(1)]))
@example(([AVG, MIN, CONST], [(1, 1), (2, 2), ()],
          [Fraction(0), Fraction(0), Fraction(0)]))
def test_newest_first_loop_is_the_game_value(graph):
    # Both systems in one pass of the loop, each against the value of its
    # game by enumeration of strategies, which shares no solver code.
    kind, succ, lower = graph
    upper = [Fraction(1) if k == CONST else Fraction(0) for k in kind]
    got = list(lower), list(upper)
    solve_singletons(range(len(kind) - 1, -1, -1), kind, succ, got)
    for preset, val in zip((lower, upper), got):
        const = [v if k == CONST else None for k, v in zip(kind, preset)]
        assert val == brute_force(kind, succ, const)


# Gated programs whose graph has no cycle, and the rec-9 shape of the
# rec-adequacy pool, whose gate's inner run reaches the gate itself.
OPENS = "obs[1/2] (produce (ret *)) ; produce (ret *)"
SHUTS = ("obs[1/2] (produce ((ret *) (+) (ret (rec x : unit. x)))) ; "
         "produce (ret *)")
SIDE_BY_SIDE = ("obs[1/2] (produce (ret *)) ; "
                "(obs[1/2] (produce (ret *)) ; produce (ret *))")
OWN_INNER = ("* ; (produce (rec g : V unit. (ret (obs[2/3] "
             "(ifz 1 (produce (ret *)) (produce g))))))")


@pytest.mark.parametrize("text, bounds, steps", [
    (SIDE_BY_SIDE, (1, 1), 12),
    (SHUTS, (0, 0), 12),
    (f"({OPENS}) /\\ ({SHUTS})", (0, 0), 18),
])
def test_gates_are_decided_between_runs(text, bounds, steps):
    res = pr_limit(s(text))
    assert ((res.lower, res.upper), res.steps_used) == (bounds, steps)
    # At max_budget 4 no inner run is certified, and every gate is frontier.
    res = pr_limit(s(text), max_budget=4)
    assert (res.lower, res.upper) == (0, 1)


def test_a_gate_that_is_its_own_inner_run_stays_frontier():
    res = pr_limit(s(OWN_INNER))
    assert (res.lower, res.upper) == (0, 1)


def test_the_engine_builds_no_min_or_max_self_loop(monkeypatch):
    # solver keeps the closed forms of MIN and MAX self-loops for direct
    # callers; over the rec-adequacy pool the engine builds DET and AVG
    # self-loops only.
    loops = Counter()
    solve = opsem._Graph.solve

    def counted(graph):
        kind, succ = graph.kind, graph.succ
        loops.update(kind[n] for n in range(len(kind)) if n in succ[n])
        return solve(graph)

    monkeypatch.setattr(opsem._Graph, "solve", counted)
    gen = TermGen(GenPolicy(max_depth=6, seed=303, rec_probability=0.35,
                            omega_weight=1))
    programs = 0
    while programs < 1000:
        term = gen.term(syntax.FVUNIT)
        if harness.has_rec(term):
            harness.adequacy_check(term, max_budget=50_000)
            programs += 1
    assert loops[DET] > 0 and loops[AVG] > 0
    assert loops[MIN] == loops[MAX] == 0


# Why prob stopped, one small case per stop; the work cap's is pinned in
# test_defects.py.
GEOMETRIC_FILE = (pathlib.Path(__file__).resolve().parent.parent / "corpus"
                  / "geometric.cbpv")


@pytest.mark.parametrize("text, budget, stop, bounds", [
    (GEOMETRIC_FILE.read_text(), opsem.DEFAULT_MAX_BUDGET, "exact", (1, 1)),
    ("produce (rec u : V unit. (ret * (+) (do x : unit <- u in u)))", 64,
     "budget", (Fraction(21, 22), 1)),
    (OWN_INNER, opsem.DEFAULT_MAX_BUDGET, "gates", (0, 1)),
    (COUNTDOWN, opsem.DEFAULT_MAX_BUDGET, "epsilon", (0, 1)),
], ids=["exact", "budget", "gates", "epsilon"])
def test_each_stop_is_named(text, budget, stop, bounds):
    res = pr_limit(s(text), max_budget=budget)
    assert res.stop == stop and res.stop in opsem.STOPS
    assert (res.lower, res.upper) == bounds
    assert res.exact is (stop == "exact")


def test_result_records_built_in_c_are_their_classes():
    # prob and initial_config build their records with tuple.__new__; the
    # records equal, field by field, those built through their classes.
    cfg = initial_config(s(GEOMETRIC))
    again = Configuration(*cfg)
    assert type(cfg) is Configuration and cfg == again
    assert (cfg.ctx, cfg.focus) == (again.ctx, again.focus)
    res = pr_limit(s(COIN))
    again = opsem.ProbResult(res.lower, res.upper, res.steps_used, res.stop)
    assert type(res) is opsem.ProbResult and res == again
    assert hash(res) == hash(again) and repr(res) == repr(again)
    assert res._asdict() == again._asdict()
    assert res.exact and res.stop == "exact"
    # A record built by hand has no stop.
    assert opsem.ProbResult(res.lower, res.upper, 0).stop is None
