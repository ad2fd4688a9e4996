"""Terms, substitution, alpha-equivalence, and evaluation contexts."""

import ast
import gc
import pathlib
import random
import sys
import weakref
from dataclasses import fields, replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cbpvdp import densem, opsem, surface, syntax
from cbpvdp.harness import (
    GenPolicy, TermGen, adequacy_check, has_rec, oracle_substitute,
    _oracle_free_vars,
)
from cbpvdp.opsem import (
    Configuration, Det, ObsGate, SplitNChoice, SplitPChoice, SplitPifz,
    initial_config, step,
)
from cbpvdp.typecheck import check, synth
from cbpvdp.syntax import (
    FVUNIT, INT, UNIT, VUNIT,
    Abort, App, ArrowT, Do, EvalContext, Ifz, Lambda, NumLit, Obs,
    Pair, PChoice, Pred, ProducerT, ProdT, Produce, Rec, Ret, Seq, Star, Succ,
    Thunk, ThunkT, To, Var,
    HOLE, HOLE_FIELD, PRODUCE_HOLE, PRODUCE_RET_HOLE, IdTable,
    alpha_equal, canon, class_id, context_id, free_vars, fresh, occurs,
    open_id, plug, rebuild, starred, substitute,
)


def test_type_printing():
    assert str(UNIT) == "unit"
    assert str(ProdT(UNIT, INT)) == "(unit * int)"
    assert str(FVUNIT) == "F V unit"
    assert str(ArrowT(INT, ProducerT(INT))) == "(int -> F int)"
    assert str(ThunkT(ArrowT(INT, ProducerT(UNIT)))) == "U (int -> F unit)"


def test_free_vars():
    body = App(Var("f"), Var("x"))
    assert free_vars(body) == {"f", "x"}
    lam = Lambda("x", INT, body)
    assert free_vars(lam) == {"f"}


def test_fresh_avoids():
    assert fresh("x", {"x", "x1"}) == "x2"
    assert fresh("y", {"x"}) == "y"


def test_substitute_basic():
    t = Succ(Var("x"))
    assert substitute(t, "x", NumLit(3)) == Succ(NumLit(3))


def test_substitute_shadowing():
    lam = Lambda("x", INT, Succ(Var("x")))
    out = substitute(lam, "x", NumLit(3))
    assert out == lam


def test_substitute_capture_avoidance():
    # A value with a free name could be captured, here by the binder of y:
    # substitute takes closed values only, so it never renames a binder.
    lam = Lambda("y", INT, App(Var("f"), Var("y")))
    with pytest.raises(ValueError, match="closed value"):
        substitute(lam, "f", Lambda("z", INT, Produce(Ret(Var("y")))))


def _pair_lam(outer, inner, first, second):
    """\\outer : int. \\inner : int. produce (ret (first, second))."""
    return Lambda(outer, INT, Lambda(inner, INT, Produce(Ret(
        Pair(Var(first), Var(second))))))


# (what differs, a, b, whether a and b are alpha-equivalent)
ALPHA_CASES = [
    ("renamed lambda binder",
     Lambda("x", INT, Produce(Ret(Var("x")))),
     Lambda("y", INT, Produce(Ret(Var("y")))), True),
    ("renamed rec, do and to binders",
     Rec("u", VUNIT, Do("a", UNIT, Var("u"), Ret(Var("a")))),
     Rec("w", VUNIT, Do("b", UNIT, Var("w"), Ret(Var("b")))),
     True),
    ("renamed to binder",
     To(Produce(Star()), "x", UNIT, Produce(Ret(Var("x")))),
     To(Produce(Star()), "z", UNIT, Produce(Ret(Var("z")))), True),
    ("binder types differ",
     Lambda("x", INT, Produce(Ret(Star()))),
     Lambda("x", UNIT, Produce(Ret(Star()))), False),
    ("free versus bound name of the same spelling",
     Lambda("x", INT, Produce(Ret(Var("x")))),
     Lambda("y", INT, Produce(Ret(Var("x")))), False),
    ("free names differ",
     Produce(Var("x")), Produce(Var("y")), False),
    ("shadowing inner binder, renamed",
     _pair_lam("x", "x", "x", "x"), _pair_lam("a", "b", "b", "b"), True),
    ("shadowing inner binder versus the outer one",
     _pair_lam("x", "x", "x", "x"), _pair_lam("a", "b", "a", "a"), False),
    ("nested binders, renamed",
     _pair_lam("x", "y", "x", "y"), _pair_lam("y", "x", "y", "x"), True),
    ("nested binders, swapped uses",
     _pair_lam("x", "y", "x", "y"), _pair_lam("x", "y", "y", "x"), False),
    ("numerals differ",
     Produce(Ret(NumLit(1))), Produce(Ret(NumLit(2))), False),
    ("tester bounds differ",
     Obs(Fraction(1, 2), Produce(Ret(Star()))),
     Obs(Fraction(1, 3), Produce(Ret(Star()))), False),
    ("abort types differ",
     Abort(FVUNIT), Abort(ProducerT(INT)), False),
    ("same structure, different node kinds",
     Produce(Ret(Succ(NumLit(0)))), Produce(Ret(Pred(NumLit(0)))), False),
    ("spans ignored",
     Produce(Ret(Star(span=(1, 1)))), Produce(Ret(Star(span=(2, 5)))), True),
]


def test_alpha_equal():
    for what, a, b, expected in ALPHA_CASES:
        assert alpha_equal(a, b) is expected, what
        assert alpha_equal(b, a) is expected, what
        assert (canon(a) == canon(b)) is expected, what
        assert alpha_equal(a, a), what


def test_alpha_distinguishes_free_vars():
    a = Produce(Var("x"))
    b = Produce(Var("y"))
    assert not alpha_equal(a, b)


def test_obs_bound_validation():
    with pytest.raises(ValueError):
        Obs(Fraction(0), Produce(Ret(Star())))
    with pytest.raises(ValueError):
        Obs(Fraction(3, 2), Produce(Ret(Star())))
    with pytest.raises(ValueError, match="tester bound must be a rational in"):
        Obs(Fraction(10 ** 5000 + 1, 10 ** 5000), Produce(Ret(Star())))
    Obs(Fraction(1, 2), Produce(Ret(Star())))


def test_plug_roundtrip():
    body = Produce(Var("x"))
    ctx = EvalContext(HOLE, ()).push(To(Star(), "x", VUNIT, body))
    focus = Produce(Ret(Star()))
    assert plug(ctx, focus) == To(focus, "x", VUNIT, body)
    # Frames nest innermost last; each hole takes the term built so far.
    ctx = ctx.push(App(Star(), NumLit(2))).push(Seq(Star(), Produce(Ret(Star()))))
    assert plug(ctx, Star()) == To(
        App(Seq(Star(), Produce(Ret(Star()))), NumLit(2)), "x", VUNIT, body)


def test_plug_initial_shapes():
    assert plug(EvalContext(PRODUCE_HOLE, ()), Ret(Star())) == \
        Produce(Ret(Star()))
    assert plug(EvalContext(PRODUCE_RET_HOLE, ()), Star()) == \
        Produce(Ret(Star()))
    inner = EvalContext(PRODUCE_RET_HOLE, ()).push(Succ(Star()))
    # succ at the unit hole makes no sense at the type level, but plugging
    # is purely structural
    assert plug(inner, NumLit(1)) == Produce(Ret(Succ(NumLit(1))))
    with pytest.raises(ValueError, match="unknown initial context shape"):
        plug(EvalContext("produce-produce", ()), Star())


def test_context_push_pop_share_and_compare_by_frames():
    frame = Seq(Star(), Produce(Ret(Star())))
    below = EvalContext(HOLE, ()).push(App(Star(), NumLit(2)))
    above = below.push(frame)
    # A pushed context links the very context the frame was pushed on.
    assert above.below is below
    assert above.top is frame
    built = EvalContext(HOLE, (App(Star(), NumLit(2)), frame))
    assert built.frames == above.frames == (App(Star(), NumLit(2)), frame)
    # Contexts are told apart by their ids, not by ==.
    ids = IdTable()
    assert context_id(ids, built) == context_id(ids, above)
    assert context_id(ids, built) != context_id(ids, below)
    assert context_id(ids, built) != context_id(
        ids, EvalContext(PRODUCE_HOLE, built.frames))
    assert built != above and built == built


def test_contexts_share_an_id_across_bound_names_but_compare_by_identity():
    # Frames that differ only in their bound names are one de Bruijn frame,
    # so their contexts have one id; == on contexts is object identity.
    def ctx(name):
        return EvalContext(HOLE, (App(Star(), NumLit(2)), To(
            Star(), name, INT, Produce(Ret(Var(name))))))

    ids = IdTable()
    x, y = ctx("x"), ctx("y")
    assert x.frames != y.frames
    assert context_id(ids, x) == context_id(ids, y)
    assert x != y and x == x and y == y
    assert context_id(ids, ctx("x")) == context_id(ids, x)
    assert ctx("x") != x


_names = st.sampled_from(["x", "y", "z"])


@st.composite
def _int_terms(draw, depth=3):
    if depth == 0:
        return draw(st.one_of(
            st.builds(NumLit, st.integers(0, 3)),
            st.builds(Var, _names)))
    return draw(st.one_of(
        st.builds(NumLit, st.integers(0, 3)),
        st.builds(Var, _names),
        st.builds(Succ, _int_terms(depth - 1)),
        st.builds(Pred, _int_terms(depth - 1)),
        st.builds(Ifz, _int_terms(depth - 1), _int_terms(depth - 1),
                  _int_terms(depth - 1)),
    ))


@given(_int_terms(), _int_terms())
def test_substitution_then_canon_is_stable(t, r):
    if free_vars(r):
        with pytest.raises(ValueError, match="closed value"):
            substitute(t, "x", r)
        return
    out1 = substitute(t, "x", r)
    out2 = substitute(t, "x", r)
    assert out1 == out2
    assert canon(out1) == canon(out2)


@given(_int_terms())
def test_substituting_absent_name_is_identity(t):
    assert substitute(t, "w", NumLit(0)) == t


@given(_int_terms())
def test_canon_invariant_under_binder_rename(t):
    lam1 = Lambda("x", INT, Produce(t))
    renamed = oracle_substitute(t, "x", Var("q"))
    lam2 = Lambda("q", INT, Produce(renamed))
    if "q" not in free_vars(t):
        assert canon(lam1) == canon(lam2)


# Kept facts --------------------------------------------------------------------
#
# free_vars and canon keep their results on compound nodes, and substitute
# shares every subtree the name is not free in. The references below are the
# uncached algorithms; the kept facts must agree with them byte for byte.

_BINDING = (Lambda, Rec, Do, To)


def _fields(term):
    """(field name, subterm) pairs of a node."""
    return [(f.name, getattr(term, f.name)) for f in fields(term)
            if f.name != "span" and hasattr(getattr(term, f.name), "span")]


def _children(term):
    return [child for _, child in _fields(term)]


def _binds(term, field):
    return isinstance(term, _BINDING) and field == "body"


def ref_free_vars(term):
    if isinstance(term, Var):
        return {term.name}
    out = set()
    for f, child in _fields(term):
        sub = ref_free_vars(child)
        if _binds(term, f):
            sub -= {term.var}
        out |= sub
    return out


def ref_canon(term, env=None, depth=0):
    """The level-numbered rendering, computed afresh at every node."""
    env = env or {}
    if isinstance(term, Var):
        idx = env.get(term.name)
        return f"(v!{term.name})" if idx is None else f"(v#{idx})"
    if isinstance(term, NumLit):
        return f"(n{term.value})"
    if isinstance(term, Star):
        return "(*)"
    if isinstance(term, Abort):
        return f"(ab:{term.cty})"
    out = "(" + type(term).__name__
    if isinstance(term, Obs):
        out += f"[{term.bound}]"
    if isinstance(term, _BINDING):
        out += f"[:{term.var_ty}]"
        inner = dict(env, **{term.var: depth})
        for f, child in _fields(term):
            if _binds(term, f):
                out += ref_canon(child, inner, depth + 1)
            else:
                out += ref_canon(child, env, depth)
    else:
        for child in _children(term):
            out += ref_canon(child, env, depth)
    return out + ")"


def _nodes(term):
    stack = [term]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(_children(node))


def _assert_shared(before, after, names):
    """Every subtree of before in which no name is free is, by identity,
    the corresponding subtree of after. A renamed binder adds its old name:
    the renaming rebuilds the paths to that name's occurrences."""
    if not (names & ref_free_vars(before)):
        assert after is before
        return
    if isinstance(before, Var):
        return
    assert type(after) is type(before)
    for (f, old), (_, new) in zip(_fields(before), _fields(after)):
        inner = names
        if _binds(before, f):
            inner = names | {before.var} if after.var != before.var \
                else names - {before.var}
        _assert_shared(old, new, inner)


def _substitution_case(seed):
    """A generated term, a body under one of its binders with that binder's
    name free, and a replacement: closed, or a variable named after a binder
    inside the body that the name occurs under, so that substituting it must
    rename."""
    rng = random.Random(seed)
    gen = TermGen(GenPolicy(max_depth=6, seed=seed, rec_probability=0.3,
                            omega_weight=1))
    term = gen.term(FVUNIT)
    sites = []
    for site in _nodes(term):
        if isinstance(site, _BINDING):
            capturing = sorted({n.var for n in _nodes(site.body)
                                if isinstance(n, _BINDING)
                                and site.var in ref_free_vars(n.body)})
            sites.append((site, capturing))
    if not sites:
        return term, None, None, None
    sites = [c for c in sites if c[0].var in ref_free_vars(c[0].body)] or sites
    if rng.random() < 0.5:
        sites = [c for c in sites if c[1]] or sites
    site, capturing = rng.choice(sites)
    if capturing:
        replacement = Var(rng.choice(capturing))
    else:
        replacement = gen.term(site.var_ty, 2)
    return term, site.body, site.var, replacement


def _binder_paths(term):
    """Each node of the term with the names of the binders enclosing it,
    outermost first."""
    stack = [(term, ())]
    while stack:
        node, path = stack.pop()
        yield node, path
        for f, child in _fields(node):
            stack.append((child, path + (node.var,) if _binds(node, f)
                          else path))


def _render_inside_binders(term, rng):
    """Render about half the compound subterms of a term first inside
    lambdas: the binders that enclose the subterm in the term, or a random
    stack of names, some free in the subterm. A later rendering of the whole
    term then meets renderings kept under another enclosing render."""
    names = sorted({n.var for n in _nodes(term) if isinstance(n, _BINDING)}
                   | {"w"})
    for node, path in list(_binder_paths(term)):
        if isinstance(node, (Var, Star, NumLit, Abort)) or rng.random() < 0.5:
            continue
        if rng.random() < 0.5:
            pool = names + sorted(ref_free_vars(node))
            path = [rng.choice(pool) for _ in range(rng.randint(1, 4))]
        wrapped = node
        for name in reversed(path):
            wrapped = Lambda(name, UNIT, wrapped)
        assert canon(wrapped) == ref_canon(wrapped)


@settings(max_examples=150)
@given(st.integers(0, 10 ** 6))
def test_kept_facts_match_uncached_references(seed):
    term, body, name, replacement = _substitution_case(seed)
    _render_inside_binders(term, random.Random(seed))
    assert canon(term) == ref_canon(term)
    if body is None:
        return
    assert canon(body) == ref_canon(body)
    if free_vars(replacement):
        # The capturing half: a binder inside the body would capture the
        # replacement, which substitute refuses as open.
        with pytest.raises(ValueError, match="closed value"):
            substitute(body, name, replacement)
        return
    out = substitute(body, name, replacement)
    assert out == oracle_substitute(body, name, replacement)
    _assert_shared(body, out, {name})
    assert canon(out) == ref_canon(out)
    assert canon(body) == ref_canon(body)
    assert canon(term) == ref_canon(term)
    for node in list(_nodes(out)) + list(_nodes(body)):
        assert free_vars(node) == ref_free_vars(node)
        assert canon(node) == ref_canon(node)


def test_substitute_shares_the_replacement_and_untouched_subtrees():
    rec = Rec("g", VUNIT, PChoice(Ret(Star()), Var("g")))
    kept = Do("y", UNIT, Ret(Star()), Ret(Var("y")))
    body = PChoice(kept, Var("g"))
    out = substitute(body, "g", rec)
    assert out.left is kept and out.right is rec
    assert substitute(kept, "g", rec) is kept


def test_ids_and_renderings_leave_a_hand_built_term_alone():
    # class_id, open_id and canon keep nothing on a node built by hand, and
    # asking again walks it to the same answers. The one fact such a node
    # keeps is its free names, which free_vars keeps for substitution and
    # open_id reads; they are taken before the snapshot.
    closed = Lambda("y", INT, Produce(Succ(Var("y"))))
    open_x = Produce(Pair(Var("x"), closed))
    term = Lambda("x", INT, Lambda("z", INT, open_x))
    nodes = list(_nodes(term))
    for n in nodes:
        free_vars(n)
    before = [dict(vars(n)) for n in nodes]
    assert all(set(d) <= {f.name for f in fields(n)} | {"_fv"}
               for n, d in zip(nodes, before))
    ids = IdTable()
    answers = (class_id(ids, term), open_id(ids, open_x),
               open_id(ids, closed), canon(term), canon(open_x))
    assert [vars(n) for n in nodes] == before
    assert (class_id(ids, term), open_id(ids, open_x), open_id(ids, closed),
            canon(term), canon(open_x)) == answers
    assert canon(term) == ref_canon(term)
    assert canon(open_x) == ref_canon(open_x)
    assert [vars(n) for n in nodes] == before


def test_kept_facts_leave_equality_hash_and_repr():
    a = Lambda("x", INT, Produce(Succ(Var("x"))))
    b = Lambda("x", INT, Produce(Succ(Var("x"))))
    text, fv = canon(a), free_vars(a)
    assert free_vars(a) is fv
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert text not in repr(a)
    # Ids, kept on the nodes of a checked core, leave them alone too.
    core = check(a, ArrowT(INT, ProducerT(INT)))
    assert {"_ids", "_key", "_cid"} <= set(vars(core))
    assert core == a and hash(core) == hash(a) and repr(core) == repr(a)
    leaf = NumLit(3)
    canon(leaf)
    free_vars(leaf)
    check(Produce(leaf), ProducerT(INT))
    assert set(vars(leaf)) <= {f.name for f in fields(leaf)}


# free_vars against the harness's independent oracle -------------------------

_NAMES = st.sampled_from("xyz")


def _open_terms():
    """Terms over three names, typed or not, with every binder class:
    binders shadow each other, and a to's or do's source may hold the name
    its body binds."""
    leaves = st.one_of(_NAMES.map(Var), st.just(Star()),
                       st.integers(0, 2).map(NumLit))

    def extend(kids):
        return st.one_of(
            st.builds(App, kids, kids), st.builds(Pair, kids, kids),
            st.builds(Ifz, kids, kids, kids), st.builds(Succ, kids),
            st.builds(Lambda, _NAMES, st.just(UNIT), kids),
            st.builds(Rec, _NAMES, st.just(UNIT), kids),
            st.builds(Do, _NAMES, st.just(UNIT), kids, kids),
            st.builds(To, kids, _NAMES, st.just(UNIT), kids))
    return st.recursive(leaves, extend, max_leaves=14)


@settings(max_examples=300)
@given(_open_terms(), st.booleans())
@example(To(Var("x"), "x", UNIT, Var("x")), True)
@example(Do("x", UNIT, Pair(Var("x"), Star()), Lambda("x", UNIT, Var("x"))),
         False)
@example(To(Succ(Var("x")), "x", UNIT, App(Var("x"), Var("y"))), True)
def test_free_vars_matches_the_oracle(term, root_first):
    # Kept sets are built the same whether the root or the leaves ask
    # first.
    nodes = list(_nodes(term))
    for node in (nodes if root_first else reversed(nodes)):
        assert free_vars(node) == _oracle_free_vars(node)
        for name in "xyz":
            assert occurs(name, node) is (name in _oracle_free_vars(node))
    for node in nodes:
        assert free_vars(node) == _oracle_free_vars(node)


def test_free_vars_shares_a_childs_set_that_holds_every_name():
    a = App(Var("x"), Var("y"))
    names = free_vars(a)
    assert names == {"x", "y"}
    assert free_vars(Pair(a, Star())) is names
    assert free_vars(Pair(Var("x"), a)) is names
    # A binder whose name does not occur removes nothing.
    assert free_vars(Lambda("z", UNIT, a)) is names
    assert free_vars(Lambda("x", UNIT, a)) == {"y"}
    # A source that holds the bound name keeps it.
    assert free_vars(To(Var("x"), "x", UNIT, a)) == {"x", "y"}
    assert free_vars(Do("y", UNIT, a, Var("y"))) is names


# alpha_equal on generated terms ---------------------------------------------


def _rename_binders(term, name):
    """A copy of the term with every binder renamed, innermost first, by the
    oracle's substitution: name(old) gives the new name. Nothing else
    changes, so the copy is alpha-equivalent to the term."""
    changes = {f: _rename_binders(child, name) for f, child in _fields(term)}
    if isinstance(term, _BINDING):
        new = name(term.var)
        changes["body"] = oracle_substitute(
            changes["body"], term.var, Var(new))
        changes["var"] = new
    return replace(term, **changes) if changes else term


def _bump_numeral(term, index):
    """A copy of the term with its index-th numeral (preorder) raised by one,
    and how many numerals remain to skip when the term holds fewer."""
    if isinstance(term, NumLit):
        return (NumLit(term.value + 1), -1) if index == 0 else (term, index - 1)
    changes = {}
    for f, child in _fields(term):
        if index >= 0:
            child, index = _bump_numeral(child, index)
        changes[f] = child
    return (replace(term, **changes) if changes else term), index


@settings(max_examples=100)
@given(st.integers(0, 10 ** 6), st.integers(0, 20))
def test_alpha_equal_on_generated_terms(seed, which):
    term = TermGen(GenPolicy(max_depth=6, seed=seed, rec_probability=0.3,
                             omega_weight=1)).term(FVUNIT)
    binders = sum(isinstance(n, _BINDING) for n in _nodes(term))
    # Fresh names everywhere, and one shared name, which makes every inner
    # binder shadow its outer ones (the oracle renames where it would
    # capture).
    for name in (lambda old: old + "_r", lambda old: "s"):
        renamed = _rename_binders(term, name)
        assert alpha_equal(term, renamed)
        assert alpha_equal(renamed, term)
        assert (renamed == term) is (binders == 0)
    numerals = sum(isinstance(n, NumLit) for n in _nodes(term))
    if numerals:
        bumped, left = _bump_numeral(term, which % numerals)
        assert left == -1
        assert not alpha_equal(term, bumped)
        assert not alpha_equal(bumped, term)


# Alpha-class ids -------------------------------------------------------------
#
# Generated cores at the benchmark's two pool policies, with fixed seeds. Ids
# must agree with ref_canon above, which shares no code with them.

POLICIES = {
    "rec-free": dict(max_depth=7, omega_weight=1),
    "recursive": dict(max_depth=6, rec_probability=0.35, omega_weight=1),
}


def _core(policy, seed):
    term = TermGen(GenPolicy(seed=seed, **POLICIES[policy])).term(FVUNIT)
    return term, check(term, FVUNIT)


def _placed(term):
    """Each compound node of a term with its reference rendering in place:
    ref_canon with each binder above the node at its distance, -1 for the
    nearest, so that two renderings agree exactly when the nodes are one de
    Bruijn term. With it come the depth of each name bound above the node,
    and the node's own depth."""
    stack = [(term, ())]
    while stack:
        node, above = stack.pop()
        if not _fields(node):
            continue
        env = {name: k - len(above) for k, name in enumerate(above)}
        levels = {name: k for k, name in enumerate(above)}
        yield node, ref_canon(node, env), levels, len(above)
        for f, child in _fields(node):
            stack.append((child, above + (node.var,) if _binds(node, f)
                          else above))


def _assert_ids_in_place(core):
    """Every compound node's id agrees with the reference rendering in
    place, and is the id that a walk of a copy built by hand finds at the
    node's place."""
    placed = list(_placed(core))
    assert _one_to_one((node._cid, text) for node, text, _, _ in placed)
    for node, _, levels, depth in placed:
        assert node._cid == syntax._walk(core._ids, _by_hand(node), levels,
                                         depth)


def _one_to_one(pairs):
    """Equal ids exactly when equal renderings."""
    pairs = set(pairs)
    return len({i for i, _ in pairs}) == len({r for _, r in pairs}) == \
        len(pairs)


def _reached(cfg, limit):
    """Up to limit configurations reached from cfg, breadth first, down
    every branch."""
    out, todo = [], [cfg]
    while todo and len(out) < limit:
        cfg = todo.pop(0)
        out.append(cfg)
        res = step(cfg)
        if isinstance(res, Det):
            todo.append(res.next)
        elif isinstance(res, (SplitPChoice, SplitNChoice)):
            todo += [res.left, res.right]
        elif isinstance(res, SplitPifz):
            todo += [res.via_ifz, res.left, res.right]
        elif isinstance(res, ObsGate):
            todo += [res.inner, res.cont]
    return out


def _by_hand(term):
    """The same term built anew through the dataclass constructors, so that
    none of its compound nodes has an id."""
    changes = {f: _by_hand(child) for f, child in _fields(term)}
    return replace(term, **changes) if changes else term


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("seed", range(10))
def test_ids_agree_with_the_reference_rendering(policy, seed):
    term, core = _core(policy, seed)
    ids = core._ids
    # Every compound node of the core, with the id the elaborator gave it.
    _assert_ids_in_place(core)
    # The term as generated, keyed in the core's table, gets the core's id
    # (the pools use no form that elaboration expands).
    assert class_id(ids, _by_hand(term)) == core._cid
    # Closed terms the machine builds: every focus and frame it reaches,
    # substitution results among them, and the contexts above them, whose
    # frames render with * in their holes.
    terms, contexts = [], []
    for cfg in _reached(initial_config(core), 150):
        frames = cfg.ctx.frames
        terms += (cfg.focus,) + frames
        key = cfg.key(ids)
        contexts.append((key[0], (cfg.ctx.initial,) + tuple(
            ref_canon(starred(f)) for f in frames)))
        # Twins of the focus and of the frames, built by hand, get the same
        # ids in the core's table; beside the core's frames, the focus's
        # twin gets the same key.
        focus = _by_hand(cfg.focus)
        assert class_id(ids, focus) == class_id(ids, cfg.focus)
        twin = EvalContext(cfg.ctx.initial, tuple(map(_by_hand, frames)))
        assert context_id(ids, twin) == context_id(ids, cfg.ctx)
        assert Configuration(cfg.ctx, focus).key(ids) == key
    assert _one_to_one((class_id(ids, t), ref_canon(t)) for t in terms)
    assert _one_to_one(contexts)


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("seed", range(6))
def test_context_ids_equal_those_of_starred_frame_copies(policy, seed):
    # Discovery pushes the eliminator node itself. Each context the machine
    # reaches has the id of the same context built from copies of its
    # frames with * in their holes, as rebuild makes them in the core's
    # table and as a walk keys them with no id.
    _, core = _core(policy, seed)
    ids = core._ids
    for cfg in _reached(initial_config(core), 150):
        frames = cfg.ctx.frames
        copies = tuple(rebuild(f, {HOLE_FIELD[type(f)]: Star()})
                       for f in frames)
        cid = context_id(ids, cfg.ctx)
        assert context_id(ids, EvalContext(cfg.ctx.initial, copies)) == cid
        loose = EvalContext(cfg.ctx.initial,
                            tuple(_by_hand(starred(f)) for f in frames))
        assert context_id(ids, loose) == cid


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("seed", range(3))
def test_unfold_cache_leaves_bounds_and_steps(policy, seed, monkeypatch):
    # A graph keeps the body each rec node unfolds to. Without it every
    # unfold substitutes again, and every bound and step count is the same.
    # The first program unfolds one rec node in ever deeper contexts.
    gen = TermGen(GenPolicy(seed=seed, **POLICIES[policy]))
    terms = [surface.parse("produce (rec g : V unit. ((do y : unit <- g in "
                           "(rec x : V unit. x)) (+) g))")]
    terms += [gen.term(FVUNIT) for _ in range(40)]
    unfolds = []
    instantiate = opsem.instantiate

    def counted(binder, value):
        unfolds.append(type(binder) is Rec)
        return instantiate(binder, value)

    def run():
        unfolds.clear()
        out = []
        for term in terms:
            res = opsem.prob(initial_config(check(term, FVUNIT)), 50_000,
                             opsem.DEFAULT_EPSILON)
            out.append((res.lower, res.upper, res.steps_used))
        return out, sum(unfolds)

    monkeypatch.setattr(opsem, "instantiate", counted)
    cached, cached_unfolds = run()
    monkeypatch.setattr(opsem._Graph, "_unfolded",
                        lambda self, cfg: step(cfg).next)
    uncached, uncached_unfolds = run()
    assert cached == uncached
    assert cached_unfolds < uncached_unfolds


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("seed", range(4))
def test_open_ids_agree_with_the_reference_rendering(policy, seed):
    # open_id keys each free name of a node by name, as ref_canon of the
    # node alone renders it, so it agrees with that rendering wherever the
    # node sits; a copy built by hand gets the same open id.
    _, core = _core(policy, seed)
    ids = core._ids
    nodes = list(_nodes(core))
    assert _one_to_one((open_id(ids, n), ref_canon(n)) for n in nodes)
    for node in nodes:
        assert open_id(ids, _by_hand(node)) == open_id(ids, node)


def test_keys_are_taken_in_the_given_table():
    term = TermGen(GenPolicy(seed=5)).term(FVUNIT)
    a, b = check(term, FVUNIT), check(term, FVUNIT)
    assert a._ids is not b._ids and a._cid == b._cid
    # A node of the given table reads its kept id; a node of another core's
    # table, or one built by hand, is walked to the same id there.
    ids = a._ids
    key = initial_config(a).key(ids)
    assert key == (syntax.SHAPE_IDS[HOLE], a._cid)
    assert initial_config(b).key(ids) == initial_config(term).key(ids) == key
    # Keyed there, b's nodes keep the ids of their own table.
    assert b.value._ids is b._ids
    # A graph keys every configuration in its root's table: the focus's,
    # else the innermost frame's, else a new one.
    assert opsem._Graph(initial_config(a)).ids is ids
    frame = check(To(Produce(Ret(Star())), "x", VUNIT,
                     Produce(Var("x"))), FVUNIT)
    root = Configuration(EvalContext(HOLE, (frame,)), Produce(Ret(Star())))
    assert opsem._Graph(root).ids is frame._ids
    alone = opsem._Graph(initial_config(Produce(Ret(Star())))).ids
    assert alone not in (ids, frame._ids) and len(alone) == len(IdTable())


def _live(cls):
    return sum(isinstance(o, cls) for o in gc.get_objects())


def test_tables_live_as_long_as_their_programs():
    gen = TermGen(GenPolicy(seed=303, **POLICIES["recursive"]))
    terms = []
    while len(terms) < 60:
        term = gen.term(FVUNIT)
        if has_rec(term):
            terms.append(term)
    gc.collect()
    before = _live(IdTable), _live(densem.Table)
    for term in terms:
        adequacy_check(term, max_budget=50_000)
    # Counted with no collection in between: every table died by its
    # reference count.
    assert (_live(IdTable), _live(densem.Table)) == before
    # No module of the package holds a table with entries.
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "cbpvdp":
            for value in vars(module).values():
                if isinstance(value, IdTable):
                    assert len(value) == len(IdTable()), name
                if isinstance(value, densem.Table):
                    assert not value.nodes, name
    # A core's table dies with the core and everything built from it.
    core = check(terms[0], FVUNIT)
    table = weakref.ref(core._ids)
    opsem.pr_limit(core, max_budget=50_000)
    densem.evaluate(core)
    assert table() is not None
    del core
    assert table() is None


@pytest.mark.parametrize("text", [
    "\\a : int. (produce a to x : int in \\y : int. produce (x, (y, a)))",
    "\\a : int. pifz a (\\y : int. produce (y, a)) "
    "(\\y : int. produce (a, y))",
    "\\a : int. abort[int -> F V unit]",
    "\\a : int. \\b : int. (produce a to x : int in \\y : int. \\z : int. "
    "pifz b (\\w : int. produce (x, (y, (w, z)))) "
    "abort[int -> F (int * (int * (int * int)))])",
])
def test_ids_of_eta_expansions_agree_with_the_reference_rendering(text):
    # Arrow-typed to, pifz and abort under binders, the forms an eta
    # expansion would rewrite: the core keeps them as written, and each
    # node's id is the reference one at its place.
    core = check(surface.parse(text), synth(surface.parse(text)))
    _assert_ids_in_place(core)


_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _callee(expr):
    """The name an expression is spelled with, as Var or st.builds."""
    return getattr(expr, "attr", getattr(expr, "id", None))


def _var_calls_with_a_type(root):
    """Every call under root's src/, tests/ and scripts/ that gives Var a
    second positional argument not spelled span, directly or as
    st.builds(Var, ...), as path:line. Var's second field is its span, so
    such a call, written for the type a variable once held, would store that
    type as the span."""
    found = []
    for part in ("src", "tests", "scripts"):
        for path in sorted((root / part).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_bytes())):
                if not isinstance(node, ast.Call):
                    continue
                name, args = _callee(node.func), node.args
                if (name == "Var" and len(args) > 1
                        and (len(args) > 2 or _callee(args[1]) != "span")
                        or name == "builds" and args
                        and _callee(args[0]) == "Var" and len(args) > 2):
                    found.append(f"{path.relative_to(root)}:{node.lineno}")
    return found


def test_var_takes_its_name_alone(tmp_path):
    assert [f.name for f in fields(Var)] == ["name", "span"]
    assert _var_calls_with_a_type(_ROOT) == []
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "m.py").write_text(
        "Var(text, span)\nVar(x, term.span)\nVar('x', INT)\n"
        "Var(text, None, span)\nst.builds(Var, names, st.just(INT))\n")
    assert _var_calls_with_a_type(tmp_path) == [
        "src/m.py:3", "src/m.py:4", "src/m.py:5"]
