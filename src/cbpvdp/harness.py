"""Differential-testing harness.

Three independent routes to a termination probability are compared here:

  1. the step engine's certified lower and upper bounds (opsem.pr_limit),
  2. the domain evaluator's guaranteed mass (densem.hstar of one evaluate
     run at a fixed rec_depth),
  3. a deliberately naive derivation-tree oracle written against the rules
     directly, with no sharing of the step engine's machinery.

The harness also houses the seeded type-directed term generator used to
drive the comparisons, and the fixed probe families used as regressions:
a rejection sampler with a known per-depth mass, a parallel-or probe pair
that the step engine and evaluator must separate, and a tester probe pair
sitting exactly at a threshold bound.
"""

from __future__ import annotations

import random
from bisect import bisect
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from typing import Callable, List, Optional, Tuple

from . import densem, opsem, typecheck
from .syntax import (
    FVUNIT, INT, UNIT, VALUE_TYPES, VUNIT,
    Abort, App, ArrowT, CompType, DistT, Do, Force, Ifz, IntT, Lambda,
    NChoice, NumLit, Obs, Pair, PChoice, Pifz, Pred, Proj1, Proj2, Produce,
    ProducerT, ProdT, Rec, Ret, Seq, Star, Succ, Term, Thunk, ThunkT, To,
    Type, UnitT, Var, eq0_then, fresh, omega, pred_n,
    _BINDERS, _CHILD_FIELDS,
)

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# Independent derivation-tree oracle


class OracleOverrun(Exception):
    """The oracle exceeded its transition cap; treat the case as too big."""


class OracleStuck(Exception):
    pass


# The oracle's own substitution: a naive named rewrite that copies every
# node it passes and keeps no derived facts, apart from the engine's
# sharing syntax.substitute so that the substitution under test never
# computes its own reference.


def _oracle_free_vars(term: Term) -> frozenset:
    if isinstance(term, Var):
        return frozenset((term.name,))
    binder = _BINDERS.get(type(term))
    out = frozenset()
    for f in _CHILD_FIELDS[type(term)]:
        sub = _oracle_free_vars(getattr(term, f))
        if binder is not None and f in binder[1]:
            sub = sub - {getattr(term, binder[0])}
        out |= sub
    return out


def _oracle_rebuild(term: Term, changes: dict, newname: str = None) -> Term:
    kwargs = {}
    for f in type(term).__dataclass_fields__:
        if f == "span":
            continue
        if newname is not None and f == _BINDERS[type(term)][0]:
            kwargs[f] = newname
        else:
            kwargs[f] = changes.get(f, getattr(term, f))
    return type(term)(**kwargs)


def _oracle_subst(term: Term, mapping: dict) -> Term:
    if not mapping:
        return term
    if isinstance(term, Var):
        return mapping.get(term.name, term)
    binder = _BINDERS.get(type(term))
    if binder is None:
        return _oracle_rebuild(term, {f: _oracle_subst(getattr(term, f), mapping)
                                      for f in _CHILD_FIELDS[type(term)]})

    bname_field, bound_fields = binder
    bname = getattr(term, bname_field)
    inner = {k: v for k, v in mapping.items() if k != bname and any(
        k in _oracle_free_vars(getattr(term, f)) for f in bound_fields)}
    changes = {f: _oracle_subst(getattr(term, f), mapping)
               for f in _CHILD_FIELDS[type(term)] if f not in bound_fields}
    if not inner:
        return _oracle_rebuild(term, changes)
    clash = set()
    for v in inner.values():
        clash |= _oracle_free_vars(v)
    if bname not in clash:
        for f in bound_fields:
            changes[f] = _oracle_subst(getattr(term, f), inner)
        return _oracle_rebuild(term, changes)
    # The binder would capture a free name of a replacement: rename it.
    avoid = clash | set(inner)
    for f in bound_fields:
        avoid |= _oracle_free_vars(getattr(term, f))
    newname = fresh(bname, avoid)
    var_ty = getattr(term, bname_field.replace("var", "var_ty"))
    rename = {bname: Var(newname, var_ty)}
    for f in bound_fields:
        changes[f] = _oracle_subst(_oracle_subst(getattr(term, f), rename), inner)
    return _oracle_rebuild(term, changes, newname)


def oracle_substitute(term: Term, name: str, replacement: Term) -> Term:
    """Capture-avoiding substitution as the oracle performs it. It returns
    a term equal to syntax.substitute's, built without sharing."""
    return _oracle_subst(term, {name: replacement})


def oracle_prob(term: Term, unfold_depth: int, step_cap: int = 500_000) -> Fraction:
    """Best lower bound using at most unfold_depth recursion unfoldings per
    derivation path. Written as a direct recursion over the rules with its
    own context representation and its own substitution; shares only the
    syntax tree and the elaborator with the engine under test."""
    core = typecheck.check(term, FVUNIT)
    counter = [0]

    def go(mode: str, stack: tuple, focus: Term, depth: int) -> Fraction:
        counter[0] += 1
        if counter[0] > step_cap:
            raise OracleOverrun(f"more than {step_cap} transitions")

        if isinstance(focus, Abort):
            return ONE
        if isinstance(focus, Star) and not stack and mode == "produce-ret":
            return ONE

        if isinstance(focus, PChoice):
            return (go(mode, stack, focus.left, depth)
                    + go(mode, stack, focus.right, depth)) / 2
        if isinstance(focus, NChoice):
            return min(go(mode, stack, focus.left, depth),
                       go(mode, stack, focus.right, depth))
        if isinstance(focus, Pifz):
            via = go(mode, stack + (("ifz", focus.if_zero, focus.if_nonzero),),
                     focus.scrut, depth)
            hedge = min(go(mode, stack, focus.if_zero, depth),
                        go(mode, stack, focus.if_nonzero, depth))
            return max(via, hedge)
        if isinstance(focus, Obs):
            inner = go("hole", (), focus.arg, depth)
            if inner > focus.bound:
                return go(mode, stack, Star(), depth)
            return ZERO
        if isinstance(focus, Rec):
            if depth <= 0:
                return ZERO
            return go(mode, stack,
                      oracle_substitute(focus.body, focus.var, focus), depth - 1)

        if stack:
            top = stack[-1]
            rest = stack[:-1]
            tag = top[0]
            if tag == "app" and isinstance(focus, Lambda):
                return go(mode, rest,
                          oracle_substitute(focus.body, focus.var, top[1]), depth)
            if tag == "to" and isinstance(focus, Produce):
                _t, var, body = top
                return go(mode, rest, oracle_substitute(body, var, focus.value), depth)
            if tag == "force" and isinstance(focus, Thunk):
                return go(mode, rest, focus.comp, depth)
            if tag == "succ" and isinstance(focus, NumLit):
                return go(mode, rest, NumLit(focus.value + 1), depth)
            if tag == "pred" and isinstance(focus, NumLit):
                return go(mode, rest, NumLit(max(0, focus.value - 1)), depth)
            if tag == "ifz" and isinstance(focus, NumLit):
                _t, if_zero, if_nonzero = top
                return go(mode, rest,
                          if_zero if focus.value == 0 else if_nonzero, depth)
            if tag == "seq" and isinstance(focus, Star):
                return go(mode, rest, top[1], depth)
            if tag == "p1" and isinstance(focus, Pair):
                return go(mode, rest, focus.fst, depth)
            if tag == "p2" and isinstance(focus, Pair):
                return go(mode, rest, focus.snd, depth)
            if tag == "do" and isinstance(focus, Ret):
                _t, var, body = top
                return go(mode, rest, oracle_substitute(body, var, focus.value), depth)
        else:
            if mode == "hole" and isinstance(focus, Produce):
                return go("produce", (), focus.value, depth)
            if mode == "produce" and isinstance(focus, Ret):
                return go("produce-ret", (), focus.value, depth)

        if isinstance(focus, App):
            return go(mode, stack + (("app", focus.arg),), focus.fn, depth)
        if isinstance(focus, To):
            return go(mode, stack + (("to", focus.var, focus.body),),
                      focus.source, depth)
        if isinstance(focus, Force):
            return go(mode, stack + (("force",),), focus.thunk, depth)
        if isinstance(focus, Succ):
            return go(mode, stack + (("succ",),), focus.arg, depth)
        if isinstance(focus, Pred):
            return go(mode, stack + (("pred",),), focus.arg, depth)
        if isinstance(focus, Ifz):
            return go(mode,
                      stack + (("ifz", focus.if_zero, focus.if_nonzero),),
                      focus.scrut, depth)
        if isinstance(focus, Seq):
            return go(mode, stack + (("seq", focus.rest),), focus.first, depth)
        if isinstance(focus, Proj1):
            return go(mode, stack + (("p1",),), focus.pair, depth)
        if isinstance(focus, Proj2):
            return go(mode, stack + (("p2",),), focus.pair, depth)
        if isinstance(focus, Do):
            return go(mode, stack + (("do", focus.var, focus.body),),
                      focus.source, depth)

        raise OracleStuck(f"no rule for {type(focus).__name__}")

    return go("hole", (), core, unfold_depth)


# ---------------------------------------------------------------------------
# Type-directed term generation


@dataclass(frozen=True)
class GenPolicy:
    """Knobs for the random term generator. rec_probability zero keeps
    general recursion out of the output; omega_weight adds the canonical
    diverging constant as a leaf, which both semantics still settle exactly
    (the engine by spotting its one-configuration loop, the evaluator by
    stabilizing after one iteration). With both at zero every generated run
    terminates."""
    max_depth: int = 7
    seed: int = 0
    rec_probability: float = 0.0
    omega_weight: int = 0
    allow_obs: bool = True

    def __post_init__(self):
        if self.omega_weight < 0:
            raise ValueError(
                f"omega_weight must be nonnegative, not {self.omega_weight}")


# Largest numeral the generator writes and the law inputs draw, and the
# generator's weight for a variable of the wanted type when one is in scope.
_MAX_LITERAL = 3
_VAR_WEIGHT = 4

_OBS_BOUNDS = [Fraction(1, 8), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2),
               Fraction(2, 3), Fraction(3, 4)]

# The value types a binder or a projection's other half is drawn from: the
# small ones below depth 2, all of them from depth 2 on.
_SMALL_TYPES = (UNIT, UNIT, INT, INT, DistT(UNIT))
_ALL_TYPES = _SMALL_TYPES + (ProdT(UNIT, INT), ProdT(INT, INT), DistT(INT),
                             ThunkT(ProducerT(UNIT)))


# Node builders. Each takes the generator, the wanted type, the children's
# depth, the environment and the names in it of the wanted type, and draws
# its children left to right.


def _var(gen, ty, d, env, cands):
    return Var(gen.rng.choice(cands), ty)


def _ifz(gen, ty, d, env, cands):
    sub = gen.term
    return Ifz(sub(INT, d, env), sub(ty, d, env), sub(ty, d, env))


def _seq(gen, ty, d, env, cands):
    return Seq(gen.term(UNIT, d, env), gen.term(ty, d, env))


def _proj(gen, ty, d, env, cands):
    other = gen._rand_value_type(d)
    if gen.rng.random() < 0.5:
        return Proj1(gen.term(ProdT(ty, other), d, env))
    return Proj2(gen.term(ProdT(other, ty), d, env))


def _omega(gen, ty, d, env, cands):
    return omega(ty)


def _rec(gen, ty, d, env, cands):
    x = gen._name()
    return Rec(x, ty, gen.term(ty, d, env + ((x, ty),)))


def _app(gen, ty, d, env, cands):
    arg_ty = gen._rand_value_type(d)
    x = gen._name()
    body = gen.term(ty, d, env + ((x, arg_ty),))
    return App(Lambda(x, arg_ty, body), gen.term(arg_ty, d, env))


def _force(gen, ty, d, env, cands):
    return Force(gen.term(ThunkT(ty), d, env))


def _to(gen, ty, d, env, cands):
    src_ty = gen._rand_value_type(d)
    x = gen._name()
    body = gen.term(ty, d, env + ((x, src_ty),))
    return To(gen.term(ProducerT(src_ty), d, env), x, src_ty, body)


def _pifz(gen, ty, d, env, cands):
    sub = gen.term
    return Pifz(sub(INT, d, env), sub(ty, d, env), sub(ty, d, env))


def _star(gen, ty, d, env, cands):
    return Star()


def _obs(gen, ty, d, env, cands):
    return Obs(gen.rng.choice(_OBS_BOUNDS), gen.term(FVUNIT, d, env))


def _numlit(gen, ty, d, env, cands):
    return NumLit(gen.rng.randint(0, _MAX_LITERAL))


def _succ(gen, ty, d, env, cands):
    return Succ(gen.term(INT, d, env))


def _pred(gen, ty, d, env, cands):
    return Pred(gen.term(INT, d, env))


def _pair(gen, ty, d, env, cands):
    return Pair(gen.term(ty.fst, d, env), gen.term(ty.snd, d, env))


def _ret(gen, ty, d, env, cands):
    return Ret(gen.term(ty.elem, d, env))


def _pchoice(gen, ty, d, env, cands):
    return PChoice(gen.term(ty, d, env), gen.term(ty, d, env))


def _do(gen, ty, d, env, cands):
    src_ty = gen._rand_value_type(d)
    x = gen._name()
    body = gen.term(ty, d, env + ((x, src_ty),))
    return Do(x, src_ty, gen.term(DistT(src_ty), d, env), body)


def _thunk(gen, ty, d, env, cands):
    return Thunk(gen.term(ty.comp, d, env))


def _produce(gen, ty, d, env, cands):
    return Produce(gen.term(ty.elem, d, env))


def _nchoice(gen, ty, d, env, cands):
    return NChoice(gen.term(ty, d, env), gen.term(ty, d, env))


def _abort(gen, ty, d, env, cands):
    return Abort(ty)


def _lam(gen, ty, d, env, cands):
    x = gen._name()
    return Lambda(x, ty.arg, gen.term(ty.res, d, env + ((x, ty.arg),)))


# The introduction forms of each type class, weighted.
_INTROS = {
    UnitT: ((4, _star), (3, _obs)),
    IntT: ((3, _numlit), (2, _succ), (2, _pred)),
    ProdT: ((4, _pair),),
    DistT: ((4, _ret), (3, _pchoice), (2, _do)),
    ThunkT: ((4, _thunk),),
    ProducerT: ((4, _produce), (2, _nchoice), (1, _abort)),
    ArrowT: ((5, _lam),),
}


def _menu(cls, has_var: bool, rec: bool, policy: GenPolicy) -> tuple:
    """The weighted builders of a node of the given type class, in draw
    order: a variable, the forms of every type, the eliminations of value or
    computation types, omega, rec (value types only), then the
    introductions."""
    if cls not in _INTROS:
        raise TypeError(f"cannot generate at a {cls.__name__}")
    out = [(_VAR_WEIGHT, _var)] if has_var else []
    out += [(2, _ifz), (1, _seq)]
    if cls in VALUE_TYPES:
        out.append((1, _proj))
    else:
        out += [(2, _app), (2, _force), (2, _to), (1, _pifz)]
    if policy.omega_weight:
        out.append((policy.omega_weight, _omega))
    if rec:
        out.append((3, _rec))
    out += [(w, b) for w, b in _INTROS[cls]
            if b is not _obs or policy.allow_obs]
    cum = list(accumulate(w for w, _ in out))
    return cum, cum[-1] + 0.0, len(cum) - 1, tuple(b for _, b in out)


class TermGen:
    """Seeded type-directed generator of closed well-typed terms.

    A node costs one weighted draw from a menu that depends only on the
    wanted type's class, whether a variable of that type is in scope, and
    the rec coin, so each generator builds its menus once, lazily. The draw
    is random.choices' own: one random() scaled by the weight total and
    bisected into the cumulative weights."""

    def __init__(self, policy: GenPolicy):
        self.policy = policy
        self.rng = random.Random(policy.seed)
        self._counter = 0
        self._menus = {}

    def _name(self) -> str:
        self._counter += 1
        return f"g{self._counter}"

    def term(self, ty: Type, depth: Optional[int] = None,
             env: Tuple[Tuple[str, Type], ...] = ()) -> Term:
        if depth is None:
            depth = self.policy.max_depth
        if depth <= 0:
            return self._minimal(ty, env)
        cands = [n for n, t in env if t == ty]
        cls = type(ty)
        # The rec coin is drawn at every value type, before the choice.
        rec = (cls in VALUE_TYPES
               and self.rng.random() < self.policy.rec_probability)
        key = (cls, bool(cands), rec)
        menu = self._menus.get(key)
        if menu is None:
            menu = self._menus[key] = _menu(*key, self.policy)
        cum, total, hi, builders = menu
        pick = bisect(cum, self.rng.random() * total, 0, hi)
        return builders[pick](self, ty, depth - 1, env, cands)

    def _minimal(self, ty: Type, env) -> Term:
        cands = [n for n, t in env if t == ty]
        if cands and self.rng.random() < 0.5:
            return Var(self.rng.choice(cands), ty)
        cls = type(ty)
        if cls is UnitT:
            return Star()
        if cls is IntT:
            return NumLit(self.rng.randint(0, _MAX_LITERAL))
        if cls is ProdT:
            return Pair(self._minimal(ty.fst, env), self._minimal(ty.snd, env))
        if cls is DistT:
            return Ret(self._minimal(ty.elem, env))
        if cls is ThunkT:
            return Thunk(self._minimal(ty.comp, env))
        if cls is ProducerT:
            return Produce(self._minimal(ty.elem, env))
        if cls is ArrowT:
            x = self._name()
            return Lambda(x, ty.arg, self._minimal(ty.res, env))
        raise TypeError(f"cannot generate at {ty!r}")

    def _rand_value_type(self, depth: int) -> Type:
        return self.rng.choice(_ALL_TYPES if depth >= 2 else _SMALL_TYPES)


def generate(ty: Type, policy: GenPolicy) -> Term:
    """One closed term of the given type; deterministic in the seed."""
    return TermGen(policy).term(ty)


# ---------------------------------------------------------------------------
# Adequacy comparison


@dataclass(frozen=True)
class AdequacyReport:
    """One differential comparison. Verdicts:

    exact-match    both routes exact and equal
    convergent     bounds consistent and within the tolerance
    inconclusive   bounds consistent but still far apart
    violation      some route certified a value the other route refutes

    op_lower and op_upper are the engine's certified bounds; op_exact says
    they meet.
    """
    term: Term
    op_lower: Fraction
    op_exact: bool
    den_mass: Fraction
    den_exact: bool
    verdict: str
    detail: str = ""
    op_upper: Fraction = ONE


def adequacy_check(term: Term,
                   epsilon: Fraction = opsem.DEFAULT_EPSILON,
                   max_budget: int = opsem.DEFAULT_MAX_BUDGET,
                   rec_depth: int = densem.DEFAULT_REC_DEPTH,
                   tolerance: Fraction = Fraction(1, 10 ** 6)) -> AdequacyReport:
    """Compare the step engine against the domain evaluator on one term of
    the tester-argument type. The term is checked once; the engine and one
    evaluator run at rec_depth both read its core."""
    core = typecheck.check(term, FVUNIT)
    op = opsem.pr_limit(core, epsilon=epsilon, max_budget=max_budget)
    out = densem.evaluate(core, rec_depth=rec_depth)
    den_mass, den_exact = densem.hstar(out.value), out.exact

    if den_mass > op.upper:
        # Every evaluator iterate is below the least fixed point, which the
        # engine's upper bound is above.
        verdict = "violation"
        detail = "evaluator mass above certified upper bound"
    elif op.exact and den_exact:
        if op.lower == den_mass:
            verdict, detail = "exact-match", ""
        else:
            verdict = "violation"
            detail = f"both exact yet {op.lower} != {den_mass}"
    elif op.exact:
        if op.lower - den_mass < tolerance:
            verdict, detail = "convergent", ""
        else:
            verdict, detail = "inconclusive", "evaluator far below exact probability"
    elif den_exact:
        if op.lower > den_mass:
            verdict, detail = "violation", "certified bound above exact probability"
        elif den_mass - op.lower < tolerance:
            verdict, detail = "convergent", ""
        else:
            verdict, detail = "inconclusive", "engine far below exact probability"
    else:
        verdict, detail = "inconclusive", "neither route reached exactness"

    return AdequacyReport(term, op.lower, op.exact, den_mass, den_exact,
                          verdict, detail, op.upper)


def adequacy_campaign(count: int, policy: GenPolicy,
                      epsilon: Fraction = opsem.DEFAULT_EPSILON,
                      max_budget: int = opsem.DEFAULT_MAX_BUDGET,
                      rec_depth: int = densem.DEFAULT_REC_DEPTH
                      ) -> List[AdequacyReport]:
    gen = TermGen(policy)
    return [adequacy_check(gen.term(FVUNIT), epsilon=epsilon,
                           max_budget=max_budget, rec_depth=rec_depth)
            for _ in range(count)]


# ---------------------------------------------------------------------------
# Fixed probe families


def rejection_sampler() -> Term:
    """Distribution-typed loop drawing uniformly from {0,1,2} by flipping
    two fair coins and retrying on the fourth outcome. The mass each value
    reaches within k unfoldings is (1/3) * (1 - (1/4)**k)."""
    u = "u"
    vint = DistT(INT)
    return Rec(u, vint,
               PChoice(PChoice(Ret(NumLit(0)), Ret(NumLit(1))),
                       PChoice(Ret(NumLit(2)), Var(u, vint))))


def sampler_mass(k: int) -> Fraction:
    """Closed form for the sampler's per-value mass at unfolding depth k."""
    return Fraction(1, 3) * (1 - Fraction(1, 4) ** k)


def sampler_probe(i: int) -> Term:
    """Tester-argument term whose termination probability is the sampler's
    mass on the value i (for i in {0,1,2}). Truncated pred makes the first
    test a lower-or-equal check, so the zero branch re-checks that the draw
    did not fall below i."""
    u = rejection_sampler()
    x = "x"
    hit = Ret(Star())
    if i == 0:
        body = Ifz(Var(x, INT), hit, omega(VUNIT))
    else:
        confirm = Ifz(pred_n(Var(x, INT), i - 1), omega(VUNIT), hit)
        body = Ifz(pred_n(Var(x, INT), i), confirm, omega(VUNIT))
    return Produce(Do(x, INT, u, body))


_PAIR_FN_TY = ThunkT(ArrowT(INT, ArrowT(INT, ProducerT(INT))))


def parallel_or_probe() -> Tuple[Term, Callable, Callable]:
    """A candidate parallel disjunction on flat naturals, plus the two
    agreement tests that separate implementations able to race their
    arguments from ones that cannot.

    Returns (good, make_left, make_right) where good : U (int -> int -> F int)
    answers 0 when either argument is 0 even if the other hangs, and the
    callables build the two tester-argument probes from any candidate."""
    m, n = "m", "n"
    good = Thunk(Lambda(m, INT, Lambda(n, INT,
        Pifz(Var(m, INT),
             Produce(NumLit(0)),
             Pifz(Var(n, INT),
                  Produce(NumLit(0)),
                  omega(ProducerT(INT)))))))

    def app2(p: Term, a: Term, b: Term) -> Term:
        return App(App(Force(p), a), b)

    def make_left(p: Term) -> Term:
        return eq0_then(app2(p, NumLit(0), omega(INT)),
                        eq0_then(app2(p, omega(INT), NumLit(0)),
                                 Produce(Ret(Star()))))

    def make_right(p: Term) -> Term:
        return eq0_then(app2(p, NumLit(0), omega(INT)),
                        eq0_then(app2(p, omega(INT), NumLit(0)),
                                 eq0_then(app2(p, omega(INT), omega(INT)),
                                          Produce(Ret(Star())))))

    return good, make_left, make_right


def obs_probe() -> Tuple[Term, Term, Term]:
    """A thunked tester at bound 1/4 together with two arguments: one of
    mass one (strictly above the bound, so the gate opens) and one of mass
    exactly 1/4 (not strictly above, so the gate stays shut). No
    tester-free term can separate the pair the same way.

    Returns (tester, passing, probe_at_bound); apply the forced tester."""
    y = "y"
    tester = Thunk(Lambda(y, VUNIT,
        Seq(Obs(Fraction(1, 4), Produce(Var(y, VUNIT))),
            Produce(Ret(Star())))))
    passing = Ret(Star())
    at_bound = PChoice(PChoice(Ret(Star()), omega(VUNIT)), omega(VUNIT))
    return tester, passing, at_bound


def obs_probe_terms() -> Tuple[Term, Term]:
    """The two applied probes: termination probability one versus zero."""
    tester, passing, at_bound = obs_probe()
    return (App(Force(tester), passing), App(Force(tester), at_bound))


# ---------------------------------------------------------------------------
# Randomized semantic inputs for the operator-law campaigns


def rand_int_point(rng: random.Random) -> "densem.SInt":
    """A random integer point, the undefined one as likely as each other."""
    hi = _MAX_LITERAL + 1
    if rng.randrange(hi + 1) >= hi:
        return densem.Table().nat(None)
    return densem.Table().nat(rng.randrange(hi))


def rand_weights(rng: random.Random, n: int) -> List[Fraction]:
    """n exact nonnegative rationals whose sum stays at most one."""
    left = ONE
    out = []
    for _ in range(n):
        w = left * Fraction(rng.randrange(3), rng.choice((3, 4, 6)))
        out.append(w)
        left -= w
    return out


def rand_valuation(rng: random.Random) -> "densem.SVal":
    """A random subprobability valuation over at most three integer points."""
    n = rng.randrange(4)
    return densem.make_val(
        (w, rand_int_point(rng)) for w in rand_weights(rng, n))


def rand_unit_valuation(rng: random.Random) -> "densem.SVal":
    """A random subprobability valuation over the two unit points."""
    wt, wb = rand_weights(rng, 2)
    tab = densem.Table()
    return densem.make_val(((wt, tab.unit(True)), (wb, tab.unit(False))),
                           tab)


def rand_producer(rng: random.Random, point_maker: Callable):
    """A random producer element whose generators come from point_maker:
    sometimes bottom, sometimes the empty menu, otherwise one to three
    generators."""
    roll = rng.randrange(6)
    if roll == 0:
        return densem.Table().fbot()
    if roll == 1:
        return densem.Table().fset(())
    gens = [point_maker(rng) for _ in range(rng.randrange(1, 4))]
    return densem.make_fset(gens)


def rand_term_fun(rng: random.Random, arg_ty: Type,
                  res: CompType) -> Tuple[Term, Callable]:
    """A random rec-free function term of generator depth 4 from arg_ty
    into the computation type res, returned together with its denotation
    as a callable on points. Term-definable functions are monotone by
    construction, which the generator-set normalization relies on."""
    policy = GenPolicy(max_depth=4, seed=rng.randrange(1 << 30),
                       rec_probability=0.0, omega_weight=1)
    term = generate(ArrowT(arg_ty, res), policy)
    sem = densem.evaluate(term).value

    def apply_point(p):
        return densem.apply_fun(sem, p)[0]

    return term, apply_point


def rand_table_kernel(rng: random.Random, points: List,
                      valuation_maker: Callable) -> Callable:
    """A random tabulated kernel from the listed points into valuations.
    Tables carry no monotonicity promise; the distribution-level lift must
    hold for them regardless."""
    table = {densem.skey(p): valuation_maker(rng) for p in points}

    def kernel(p):
        return table[densem.skey(p)]

    return kernel


# ---------------------------------------------------------------------------
# Operator laws as executable properties (one randomized trial each; a
# failing trial raises AssertionError, since every law is an exact rational
# identity)

_LAW_POINTS = tuple(range(-1, 4))  # -1 stands for the undefined point


def _law_points():
    tab = densem.Table()
    return tuple(tab.nat(None if k < 0 else k) for k in _LAW_POINTS)


def law_producer_lift(rng: random.Random) -> None:
    """The producer-level lift is strict at bottom, fixes the empty menu,
    and composes, for monotone (term-derived) point functions."""
    _, f = rand_term_fun(rng, INT, ProducerT(INT))
    _, g = rand_term_fun(rng, INT, ProducerT(INT))
    q = rand_producer(rng, rand_int_point)

    tab = densem.Table()
    assert isinstance(densem.qstar(f, tab.fbot()), densem.FBot), \
        "lift must be strict at bottom"
    empty = densem.qstar(f, tab.fset(()))
    assert isinstance(empty, densem.FSet) and not empty.gens, \
        "lift must fix the empty menu"
    lhs = densem.qstar(g, densem.qstar(f, q))
    rhs = densem.qstar(lambda x: densem.qstar(g, f(x)), q)
    assert densem.sem_equal(lhs, rhs), \
        f"composition: {densem.render_value(lhs)} != {densem.render_value(rhs)}"


def law_pointwise_meet(rng: random.Random) -> None:
    """Meets of function values apply pointwise."""
    fterm, _ = rand_term_fun(rng, INT, ProducerT(INT))
    gterm, _ = rand_term_fun(rng, INT, ProducerT(INT))
    fsem = densem.evaluate(fterm).value
    gsem = densem.evaluate(gterm).value
    both = densem.meet(fsem, gsem)
    x = rand_int_point(rng)
    lhs = densem.apply_fun(both, x)[0]
    rhs = densem.meet(densem.apply_fun(fsem, x)[0],
                      densem.apply_fun(gsem, x)[0])
    assert densem.sem_equal(lhs, rhs), "meets must apply pointwise"


def law_distribution_lift(rng: random.Random) -> None:
    """The distribution-level lift satisfies the unit, identity, and
    associativity identities for arbitrary tabulated kernels."""
    pts = _law_points()
    f = rand_table_kernel(rng, pts, rand_valuation)
    g = rand_table_kernel(rng, pts, rand_valuation)
    nu = rand_valuation(rng)
    x = rand_int_point(rng)

    unit = densem.vdagger(f, densem.make_val(((ONE, x),)))
    assert densem.skey(unit) == densem.skey(f(x)), "unit law"
    ident = densem.vdagger(lambda y: densem.make_val(((ONE, y),)), nu)
    assert densem.skey(ident) == densem.skey(nu), "identity law"
    lhs = densem.vdagger(g, densem.vdagger(f, nu))
    rhs = densem.vdagger(lambda y: densem.vdagger(g, f(y)), nu)
    assert densem.skey(lhs) == densem.skey(rhs), "associativity law"


def law_fubini(rng: random.Random) -> None:
    """Integrating a two-argument kernel against two independent sources
    gives the same valuation in either order."""
    pts = _law_points()
    nu = rand_valuation(rng)
    mu = rand_valuation(rng)
    table = {(densem.skey(x), densem.skey(y)): rand_unit_valuation(rng)
             for x in pts for y in pts}

    def kern(x, y):
        return table[(densem.skey(x), densem.skey(y))]

    lhs = densem.vdagger(lambda x: densem.vdagger(lambda y: kern(x, y), mu), nu)
    rhs = densem.vdagger(lambda y: densem.vdagger(lambda x: kern(x, y), nu), mu)
    assert densem.skey(lhs) == densem.skey(rhs), \
        "integration order over independent sources must not matter"


LAW_TRIALS = (("producer-lift", law_producer_lift),
              ("pointwise-meet", law_pointwise_meet),
              ("distribution-lift", law_distribution_lift),
              ("fubini", law_fubini))


def has_rec(term: Term) -> bool:
    """Whether any recursion binder occurs anywhere in the term."""
    stack = [term]
    while stack:
        node = stack.pop()
        if isinstance(node, Rec):
            return True
        stack.extend(getattr(node, f) for f in _CHILD_FIELDS[type(node)])
    return False


# ---------------------------------------------------------------------------
# Corpus files


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    text: str
    expectations: dict


def parse_expectations(text: str) -> dict:
    """Read '# expect: key=value ...' header lines. Values parse as
    rationals when they contain a slash or digits, booleans for true/false,
    bare strings otherwise."""
    out = {}
    for line in text.splitlines():
        line = line.strip()
        if not line.startswith("# expect:"):
            continue
        for chunk in line[len("# expect:"):].split():
            if "=" not in chunk:
                continue
            key, raw = chunk.split("=", 1)
            if raw in ("true", "false"):
                out[key] = raw == "true"
            else:
                try:
                    out[key] = Fraction(raw)
                except ValueError:
                    out[key] = raw
    return out


def load_corpus_file(path) -> CorpusEntry:
    import pathlib
    p = pathlib.Path(path)
    text = p.read_text()
    return CorpusEntry(p.stem, text, parse_expectations(text))
