"""Denotational evaluator over finitely representable domain elements.

Types denote domains as follows. The unit type denotes the two-point lattice
(bottom and top); int denotes flat naturals with bottom; pairs are
componentwise; V sigma denotes finite-support subprobability valuations with
rational weights over the element domain; F sigma denotes a demonic
completion of sigma: either bottom (the computation may hang before
producing) or a finite set of generators read as "one of these, chosen by an
adversary" (the empty set, arising from abort, is the top element); U tau
is transparent; arrows denote functions, represented by closures.

Recursion is evaluated by iterating from bottom. When an iterate repeats,
the fixed point has been reached and the result is exact; otherwise the
evaluator returns the deepest iterate computed and clears the exactness
flag. One run at a given depth therefore gives everything a shallower run
would, and more.

The evaluator reads the core that elaboration produced and derives no type
of its own: a `;` whose head is bottom, or an `ifz` whose scrutinee is,
denotes the bottom of the type elaboration kept on that node. Environments
map names to semantic values. Evaluation dispatches on a node's class
through one table, _EVAL, with a handler per class that evaluates each child
by calling the child's handler from the table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from . import typecheck
from .syntax import (
    INT, UNIT,
    Abort, App, ArrowT, DistT, Do, Force, Ifz, Lambda, NChoice, NumLit, Obs,
    Pair, PChoice, Pifz, Pred, Proj1, Proj2, Produce, ProducerT, ProdT, Rec,
    Ret, Seq, Star, Succ, Term, Thunk, ThunkT, To, Type, Var,
    canon, free_vars,
)

DEFAULT_REC_DEPTH = 64

ZERO = Fraction(0)
HALF = Fraction(1, 2)
ONE = Fraction(1)


class DomainError(Exception):
    pass


class LeqUndefined(DomainError):
    """Raised when the information order is queried outside the first-order
    fragment where this representation can decide it."""


# Semantic values -------------------------------------------------------------


@dataclass(frozen=True)
class SUnit:
    """Element of the two-point lattice: top (observed) or bottom."""
    top: bool


@dataclass(frozen=True)
class SInt:
    """Flat natural with bottom; value None encodes bottom."""
    value: Optional[int]


@dataclass(frozen=True)
class SPair:
    fst: "SemValue"
    snd: "SemValue"


@dataclass(frozen=True)
class SVal:
    """Finite-support subprobability valuation: entries are (weight, point)
    with positive rational weights summing to at most one. Normalized form:
    points deduplicated and sorted by canonical key."""
    entries: tuple


@dataclass(frozen=True)
class FBot:
    """Least element of a producer domain: the run may hang."""


@dataclass(frozen=True)
class FSet:
    """Finitely generated element of a producer domain: an adversary picks
    one of the generators. No generators means no possible outcome, the top
    element, which is what abort denotes."""
    gens: tuple


class Closure:
    """A function value: a lambda body together with the environment it
    closed over, restricted to the body's free variables."""

    __slots__ = ("env", "var", "var_ty", "body", "_key")

    def __init__(self, env: dict, var: str, var_ty, body: Term):
        names = free_vars(body) - {var}
        self.env = {n: env[n] for n in sorted(names)}
        self.var = var
        self.var_ty = var_ty
        self.body = body
        self._key = None

    def key(self) -> str:
        if self._key is None:
            envpart = ",".join(
                f"{n}={skey(v)}" for n, v in sorted(self.env.items()))
            self._key = f"c({self.var_ty};{canon(self.body)};{envpart})"
        return self._key

    def __eq__(self, other):
        return isinstance(other, Closure) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"Closure({self.var}:{self.var_ty})"


@dataclass(frozen=True)
class ConstFun:
    """A function that ignores its argument; used for arrow-type bottoms."""
    value: "SemValue"


@dataclass(frozen=True)
class SFun:
    """Function value as a meet of parts: applying it applies every part
    and takes the meet of the results. Singletons are the common case."""
    parts: tuple


SemValue = object


# Canonical keys and normalization -------------------------------------------


def skey(v: SemValue) -> str:
    """Deterministic canonical string; equal keys mean equal values."""
    if isinstance(v, SUnit):
        return "u1" if v.top else "u0"
    if isinstance(v, SInt):
        return "i_" if v.value is None else f"i{v.value}"
    if isinstance(v, SPair):
        return f"p({skey(v.fst)},{skey(v.snd)})"
    if isinstance(v, SVal):
        inner = ",".join(f"{w}@{skey(x)}" for w, x in v.entries)
        return "v{" + inner + "}"
    if isinstance(v, FBot):
        return "f_"
    if isinstance(v, FSet):
        return "f{" + ",".join(skey(g) for g in v.gens) + "}"
    if isinstance(v, SFun):
        return "fn[" + ";".join(_part_key(p) for p in v.parts) + "]"
    raise DomainError(f"not a semantic value: {v!r}")


def _part_key(p) -> str:
    if isinstance(p, Closure):
        return p.key()
    if isinstance(p, ConstFun):
        return f"k({skey(p.value)})"
    raise DomainError(f"not a function part: {p!r}")


def make_val(pairs) -> SVal:
    """Build a normalized valuation from (weight, point) pairs."""
    acc = {}
    for w, x in pairs:
        w = Fraction(w)
        if w < 0:
            raise DomainError("negative weight in a valuation")
        if w == 0:
            continue
        k = skey(x)
        if k in acc:
            acc[k] = (acc[k][0] + w, acc[k][1])
        else:
            acc[k] = (w, x)
    entries = tuple(sorted(((w, x) for w, x in acc.values()),
                           key=lambda e: skey(e[1])))
    total = sum((w for w, _ in entries), ZERO)
    if total > 1:
        raise DomainError(f"valuation mass {total} exceeds one")
    return SVal(entries)


def make_fset(gens) -> FSet:
    """Build a normalized generator set: deduplicate, drop strictly
    dominated generators where the order is decidable, sort."""
    uniq = {}
    for g in gens:
        uniq.setdefault(skey(g), g)
    items = list(uniq.values())
    kept = []
    for g in items:
        dominated = False
        for h in items:
            if h is g:
                continue
            below = _leq_or_none(h, g)
            if below:
                above = _leq_or_none(g, h)
                if not above:
                    dominated = True
                    break
        if not dominated:
            kept.append(g)
    return FSet(tuple(sorted(kept, key=skey)))


def _leq_or_none(a, b):
    try:
        return leq(a, b)
    except LeqUndefined:
        return None


# Order, bottom, meet ---------------------------------------------------------


def bottom(ty: Type) -> SemValue:
    if ty == UNIT:
        return SUnit(False)
    if ty == INT:
        return SInt(None)
    if isinstance(ty, ProdT):
        return SPair(bottom(ty.fst), bottom(ty.snd))
    if isinstance(ty, DistT):
        return SVal(())
    if isinstance(ty, ThunkT):
        return bottom(ty.comp)
    if isinstance(ty, ProducerT):
        return FBot()
    if isinstance(ty, ArrowT):
        return SFun((ConstFun(bottom(ty.res)),))
    raise DomainError(f"no domain for {ty!r}")


_LEQ_SUPPORT_CAP = 12

# Recursion stops iterating, inexactly, at an iterate holding a weight whose
# denominator is longer than this many bits. A body that binds its own
# recursive call squares the mass each round, doubling the digits of every
# weight per iterate, which soon outgrows Python's 4300-digit (about
# 14,280-bit) limit on rendering integers in skey.
_WEIGHT_BITS_CAP = 2048


def leq(a: SemValue, b: SemValue) -> bool:
    """Information order, decidable on the first-order fragment. Raises
    LeqUndefined at function values and oversized valuation supports."""
    if isinstance(a, SUnit) and isinstance(b, SUnit):
        return (not a.top) or b.top
    if isinstance(a, SInt) and isinstance(b, SInt):
        return a.value is None or a.value == b.value
    if isinstance(a, SPair) and isinstance(b, SPair):
        return leq(a.fst, b.fst) and leq(a.snd, b.snd)
    if isinstance(a, SVal) and isinstance(b, SVal):
        return _leq_val(a, b)
    if isinstance(a, FBot):
        return isinstance(b, (FBot, FSet))
    if isinstance(a, FSet):
        if isinstance(b, FBot):
            return False
        if isinstance(b, FSet):
            return all(any(leq(g, h) for g in a.gens) for h in b.gens)
    if isinstance(a, SFun) or isinstance(b, SFun):
        raise LeqUndefined("order on function values is not decidable here")
    raise DomainError(f"incomparable kinds: {a!r} vs {b!r}")


def _leq_val(a: SVal, b: SVal) -> bool:
    """Valuation order: for every upper set, a's mass is at most b's. It
    suffices to check upper closures of subsets of the joint support."""
    support = {}
    for w, x in a.entries + b.entries:
        support.setdefault(skey(x), x)
    points = list(support.values())
    n = len(points)
    if n > _LEQ_SUPPORT_CAP:
        raise LeqUndefined(f"joint support of size {n} exceeds the cap")
    for mask in range(1, 1 << n):
        base = [points[i] for i in range(n) if mask & (1 << i)]
        ma = _upmass(a, base)
        mb = _upmass(b, base)
        if ma > mb:
            return False
    return True


def _upmass(v: SVal, base: list) -> Fraction:
    total = ZERO
    for w, x in v.entries:
        if any(leq(p, x) for p in base):
            total += w
    return total


def sem_equal(a: SemValue, b: SemValue) -> bool:
    """Semantic equality: the order in both directions where decidable,
    canonical-key equality otherwise."""
    if skey(a) == skey(b):
        return True
    try:
        return leq(a, b) and leq(b, a)
    except LeqUndefined:
        return False


def meet(a: SemValue, b: SemValue) -> SemValue:
    """Binary meet where representable: producer elements and functions."""
    if isinstance(a, FBot) or isinstance(b, FBot):
        if isinstance(a, (FBot, FSet)) and isinstance(b, (FBot, FSet)):
            return FBot()
    if isinstance(a, FSet) and isinstance(b, FSet):
        return make_fset(a.gens + b.gens)
    if isinstance(a, SFun) and isinstance(b, SFun):
        return SFun(a.parts + b.parts)
    raise DomainError(
        f"no representable meet for {type(a).__name__} and {type(b).__name__}")


# Valuation and producer combinators ------------------------------------------


def scale_val(c: Fraction, v: SVal) -> SVal:
    c = Fraction(c)
    return make_val((c * w, x) for w, x in v.entries)


def add_vals(a: SVal, b: SVal) -> SVal:
    return make_val(a.entries + b.entries)


def vdagger(f: Callable, v: SVal) -> SVal:
    """Lift a point function into valuations: weighted sum of f over the
    support."""
    pairs = []
    for w, x in v.entries:
        fx = f(x)
        if not isinstance(fx, SVal):
            raise DomainError("lifted function must return a valuation")
        pairs.extend((w * u, y) for u, y in fx.entries)
    return make_val(pairs)


def qstar(f: Callable, q: SemValue) -> SemValue:
    """Lift a point function into producer elements: bottom is fixed, and a
    generator set maps to the meet of the images (empty set stays empty)."""
    if isinstance(q, FBot):
        return FBot()
    if not isinstance(q, FSet):
        raise DomainError("qstar expects a producer element")
    if not q.gens:
        return FSet(())
    out = None
    for g in q.gens:
        fg = f(g)
        out = fg if out is None else meet(out, fg)
    return out


def tmass(v: SVal) -> Fraction:
    """Mass a unit-valued valuation places on top."""
    total = ZERO
    for w, x in v.entries:
        if not isinstance(x, SUnit):
            raise DomainError("tmass expects a valuation over unit")
        if x.top:
            total += w
    return total


def hstar(q: SemValue) -> Fraction:
    """Guaranteed termination mass of a producer-of-distributions element:
    the worst generator's mass on top. Bottom gives zero; the empty set,
    having no adversary move, gives one."""
    if isinstance(q, FBot):
        return ZERO
    if not isinstance(q, FSet):
        raise DomainError("hstar expects a producer element")
    if not q.gens:
        return ONE
    return min(tmass(g) for g in q.gens)


def obs_gate(bound: Fraction, q: SemValue) -> SUnit:
    """Denotation of the statistical tester at a given bound."""
    if isinstance(q, FBot):
        return SUnit(False)
    if not isinstance(q, FSet):
        raise DomainError("tester expects a producer element")
    if not q.gens:
        return SUnit(True)
    return SUnit(all(tmass(g) > bound for g in q.gens))


# Evaluation ------------------------------------------------------------------


@dataclass(frozen=True)
class EvalOutcome:
    value: SemValue
    ty: Type
    exact: bool


class _Ev:
    __slots__ = ("rec_depth", "approx")

    def __init__(self, rec_depth: int):
        self.rec_depth = rec_depth
        self.approx = False


def evaluate(term: Term, rec_depth: int = DEFAULT_REC_DEPTH) -> EvalOutcome:
    """Evaluate a closed term to a domain element. The outcome is exact
    unless some recursion failed to stabilize within rec_depth iterations."""
    core, ty = typecheck.elaborate(term)
    ev = _Ev(rec_depth)
    value = _EVAL[type(core)](core, {}, ev)
    return EvalOutcome(value, ty, not ev.approx)


def apply_fun(fn: SemValue, arg: SemValue, rec_depth: int = DEFAULT_REC_DEPTH):
    """Apply a function value outside of term evaluation."""
    ev = _Ev(rec_depth)
    out = _apply(fn, arg, ev)
    return out, not ev.approx


def _apply(fn: SemValue, arg: SemValue, ev: "_Ev") -> SemValue:
    if not isinstance(fn, SFun) or not fn.parts:
        raise DomainError(f"cannot apply {fn!r}")
    out = None
    for p in fn.parts:
        if isinstance(p, ConstFun):
            r = p.value
        else:
            inner = dict(p.env)
            inner[p.var] = arg
            body = p.body
            r = _EVAL[type(body)](body, inner, ev)
        out = r if out is None else meet(out, r)
    return out


# Handlers, one per core node class: handler(term, env, ev) -> value. The
# table covers core forms only: evaluate elaborates first, which refuses
# anything else.


def _var(term, env, ev):
    return env[term.name]


def _star(term, env, ev):
    return SUnit(True)


def _numlit(term, env, ev):
    return SInt(term.value)


def _abort(term, env, ev):
    return FSet(())


def _lambda(term, env, ev):
    return SFun((Closure(env, term.var, term.var_ty, term.body),))


def _app(term, env, ev):
    fn, arg = term.fn, term.arg
    fn = _EVAL[type(fn)](fn, env, ev)
    return _apply(fn, _EVAL[type(arg)](arg, env, ev), ev)


def _succ(term, env, ev):
    arg = term.arg
    n = _EVAL[type(arg)](arg, env, ev)
    return SInt(None) if n.value is None else SInt(n.value + 1)


def _pred(term, env, ev):
    arg = term.arg
    n = _EVAL[type(arg)](arg, env, ev)
    return SInt(None) if n.value is None else SInt(max(0, n.value - 1))


def _thunk(term, env, ev):
    comp = term.comp
    return _EVAL[type(comp)](comp, env, ev)


def _force(term, env, ev):
    thunk = term.thunk
    return _EVAL[type(thunk)](thunk, env, ev)


def _seq(term, env, ev):
    first = term.first
    head = _EVAL[type(first)](first, env, ev)
    if not isinstance(head, SUnit):
        raise DomainError("sequencing head did not evaluate at unit")
    if head.top:
        rest = term.rest
        return _EVAL[type(rest)](rest, env, ev)
    return bottom(term._node_ty)


def _ifz(term, env, ev):
    scrut = term.scrut
    n = _EVAL[type(scrut)](scrut, env, ev).value
    if n is None:
        return bottom(term._node_ty)
    branch = term.if_zero if n == 0 else term.if_nonzero
    return _EVAL[type(branch)](branch, env, ev)


def _proj1(term, env, ev):
    pair = term.pair
    return _EVAL[type(pair)](pair, env, ev).fst


def _proj2(term, env, ev):
    pair = term.pair
    return _EVAL[type(pair)](pair, env, ev).snd


def _pair(term, env, ev):
    fst, snd = term.fst, term.snd
    return SPair(_EVAL[type(fst)](fst, env, ev), _EVAL[type(snd)](snd, env, ev))


def _pchoice(term, env, ev):
    left, right = term.left, term.right
    left = _EVAL[type(left)](left, env, ev)
    right = _EVAL[type(right)](right, env, ev)
    return add_vals(scale_val(HALF, left), scale_val(HALF, right))


def _ret(term, env, ev):
    value = term.value
    return make_val(((ONE, _EVAL[type(value)](value, env, ev)),))


def _do(term, env, ev):
    source = term.source
    return vdagger(_binder_body(term, env, ev),
                   _EVAL[type(source)](source, env, ev))


def _nchoice(term, env, ev):
    left, right = term.left, term.right
    return meet(_EVAL[type(left)](left, env, ev),
                _EVAL[type(right)](right, env, ev))


def _produce(term, env, ev):
    value = term.value
    return make_fset((_EVAL[type(value)](value, env, ev),))


def _to(term, env, ev):
    source = term.source
    return qstar(_binder_body(term, env, ev),
                 _EVAL[type(source)](source, env, ev))


def _pifz(term, env, ev):
    scrut = term.scrut
    n = _EVAL[type(scrut)](scrut, env, ev).value
    z, nz = term.if_zero, term.if_nonzero
    if n is None:
        return meet(_EVAL[type(z)](z, env, ev), _EVAL[type(nz)](nz, env, ev))
    branch = z if n == 0 else nz
    return _EVAL[type(branch)](branch, env, ev)


def _obs(term, env, ev):
    arg = term.arg
    return obs_gate(term.bound, _EVAL[type(arg)](arg, env, ev))


def _binder_body(term, env: dict, ev: "_Ev") -> Callable:
    """The body of a Do or To as a point function of its bound variable."""
    body, var = term.body, term.var
    handler = _EVAL[type(body)]

    def run(x):
        inner = dict(env)
        inner[var] = x
        return handler(body, inner, ev)
    return run


def _eval_rec(term, env: dict, ev: "_Ev") -> SemValue:
    body, var = term.body, term.var
    handler = _EVAL[type(body)]
    cur = bottom(term.var_ty)
    for _ in range(ev.rec_depth):
        inner = dict(env)
        inner[var] = cur
        nxt = handler(body, inner, ev)
        if _too_fine(nxt):
            break
        if sem_equal(nxt, cur):
            return nxt
        cur = nxt
    ev.approx = True
    return cur


# Every handler evaluates its children by calling their handlers straight
# from this table, so the recursion takes one Python frame per tree level
# (a binder's body also passes through vdagger or qstar and the point
# function of _binder_body, an application through _apply); explicit stacks
# would lift that limit.
_EVAL = {
    Var: _var, Star: _star, NumLit: _numlit, Abort: _abort,
    Lambda: _lambda, App: _app, Rec: _eval_rec, Succ: _succ, Pred: _pred,
    Thunk: _thunk, Force: _force, Seq: _seq, Ifz: _ifz,
    Proj1: _proj1, Proj2: _proj2, Pair: _pair, PChoice: _pchoice, Ret: _ret,
    Do: _do, NChoice: _nchoice, Produce: _produce, To: _to, Pifz: _pifz,
    Obs: _obs,
}


def _too_fine(v: SemValue) -> bool:
    """True when some weight anywhere inside v, closure environments
    included (everything skey renders), has a denominator longer than
    _WEIGHT_BITS_CAP bits. Shared parts are visited once: iterates that
    capture the previous iterate twice would otherwise cost time
    exponential in the iteration count."""
    todo, seen = [v], set()
    while todo:
        v = todo.pop()
        if id(v) in seen:
            continue
        seen.add(id(v))
        if isinstance(v, SVal):
            for w, x in v.entries:
                if w.denominator.bit_length() > _WEIGHT_BITS_CAP:
                    return True
                todo.append(x)
        elif isinstance(v, SPair):
            todo += (v.fst, v.snd)
        elif isinstance(v, FSet):
            todo += v.gens
        elif isinstance(v, SFun):
            todo += v.parts
        elif isinstance(v, Closure):
            todo += v.env.values()
        elif isinstance(v, ConstFun):
            todo.append(v.value)
    return False


# Rendering -------------------------------------------------------------------


def render_value(v: SemValue) -> str:
    """Human-readable rendering of a domain element."""
    if isinstance(v, SUnit):
        return "tt" if v.top else "bot"
    if isinstance(v, SInt):
        return "bot" if v.value is None else str(v.value)
    if isinstance(v, SPair):
        return f"({render_value(v.fst)}, {render_value(v.snd)})"
    if isinstance(v, SVal):
        if not v.entries:
            return "dist{}"
        inner = ", ".join(f"{w} @ {render_value(x)}" for w, x in v.entries)
        return "dist{" + inner + "}"
    if isinstance(v, FBot):
        return "bot"
    if isinstance(v, FSet):
        if not v.gens:
            return "must{}"
        return "must{" + ", ".join(render_value(g) for g in v.gens) + "}"
    if isinstance(v, SFun):
        return "<function>"
    raise DomainError(f"not a semantic value: {v!r}")
