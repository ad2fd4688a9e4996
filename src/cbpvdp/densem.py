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

Values are hash-consed (Filliatre and Conchon, "Type-safe modular
hash-consing", 2006), and a Table is the only way to build one: code that
builds values by hand calls its constructors (unit, nat, pair, val, fbot,
fset, fun, const, closure), and calling a value class raises TypeError. One
evaluate or apply_fun call builds every value through the table of its _Ev,
which lives exactly as long as the call. A table keys each node by its class
and its children's small integer ids and weights (a closure by its variable
type, canon of its body and its environment's ids), so within a table
structurally equal values are one object: make_val and make_fset merge
points by id, sem_equal's fast path is `is`, and leq is memoized per pair of
ids. A helper called outside an evaluation (make_val, make_fset, leq, meet,
sem_equal, vdagger, qstar, bottom, obs_gate) builds into a fresh table of
its own; the evaluator passes its table as the helper's last argument.
Table.adopt rebuilds a value of another table in this one, and constructors
adopt such children themselves. Between tables, `==` compares skeys.

Each node computes two things lazily, at most once: skey, its canonical
string, which orders valuation entries and generators and which the harness
uses as a key, and the bit length of its longest weight denominator, which
the recursion's weight cap reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from typing import Callable, Optional

from . import typecheck
from .syntax import (
    INT, UNIT,
    Abort, App, ArrowT, DistT, Do, Force, Ifz, Lambda, NChoice, NumLit, Obs,
    Pair, PChoice, Pifz, Pred, Proj1, Proj2, Produce, ProducerT, ProdT, Rec,
    Ret, Seq, Star, Succ, Term, Thunk, ThunkT, To, Type, Var,
    canon, digits, free_vars,
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


class _Value:
    """A node of a semantic value. Only a Table builds one: calling a value
    class raises TypeError."""

    __slots__ = ("_id", "_tab", "_skey", "_bits")
    _fields = ()

    def __init__(self, *args, **kwargs):
        raise TypeError(f"{type(self).__name__} values come from densem.Table")

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self._tab is not other._tab and skey(self) == skey(other)

    def __hash__(self):
        return hash(skey(self))

    def __repr__(self):
        inner = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({inner})"


class SUnit(_Value):
    """Element of the two-point lattice: top (observed) or bottom."""
    __slots__ = ("top",)
    _fields = __slots__


class SInt(_Value):
    """Flat natural with bottom; value None encodes bottom."""
    __slots__ = ("value",)
    _fields = __slots__


class SPair(_Value):
    __slots__ = ("fst", "snd")
    _fields = __slots__


class SVal(_Value):
    """Finite-support subprobability valuation: entries are (weight, point)
    with positive rational weights summing to at most one. Normalized form:
    points deduplicated and sorted by canonical key."""
    __slots__ = ("entries",)
    _fields = __slots__


class FBot(_Value):
    """Least element of a producer domain: the run may hang."""
    __slots__ = ()


class FSet(_Value):
    """Finitely generated element of a producer domain: an adversary picks
    one of the generators. No generators means no possible outcome, the top
    element, which is what abort denotes."""
    __slots__ = ("gens",)
    _fields = __slots__


class Closure(_Value):
    """A function value: a lambda body together with the environment it
    closed over, restricted to the body's free variables."""

    __slots__ = ("env", "var", "var_ty", "body")

    def __repr__(self):
        return f"Closure({self.var}:{self.var_ty})"


class ConstFun(_Value):
    """A function that ignores its argument; used for arrow-type bottoms."""
    __slots__ = ("value",)
    _fields = __slots__


class SFun(_Value):
    """Function value as a meet of parts: applying it applies every part
    and takes the meet of the results. Singletons are the common case."""
    __slots__ = ("parts",)
    _fields = __slots__


SemValue = object

_PRODUCERS = (FBot, FSet)

_TABLES = count()


class Table:
    """Intern table: one node per structurally distinct value. Ids are
    positions in the table, tokens are unique per table, so (token, id)
    names a node for good; the table holds no id() of any object. Keys are
    made of child ids, so a constructor first adopts a foreign child."""

    __slots__ = ("nodes", "leq_memo", "adopted", "token")

    def __init__(self):
        self.nodes = {}
        self.leq_memo = {}
        self.adopted = {}
        self.token = next(_TABLES)

    def _new(self, key, cls, *fields):
        node = object.__new__(cls)
        for name, value in zip(cls.__slots__, fields):
            setattr(node, name, value)
        node._id = len(self.nodes)
        node._tab = self.token
        node._skey = node._bits = None
        self.nodes[key] = node
        return node

    def _mine(self, values):
        """values as nodes of this table, adopting those from another."""
        token = self.token
        for v in values:
            if v._tab is not token:
                return tuple(map(self.adopt, values))
        return values

    def unit(self, top):
        key = (SUnit, top)
        return self.nodes.get(key) or self._new(key, SUnit, top)

    def nat(self, n):
        key = (SInt, n)
        return self.nodes.get(key) or self._new(key, SInt, n)

    def pair(self, fst, snd):
        if fst._tab is not self.token:
            fst = self.adopt(fst)
        if snd._tab is not self.token:
            snd = self.adopt(snd)
        key = (SPair, fst._id, snd._id)
        return self.nodes.get(key) or self._new(key, SPair, fst, snd)

    def val(self, entries):
        token = self.token
        key = [SVal]
        for w, x in entries:
            if x._tab is not token:
                return self.val(tuple([(w, self.adopt(x))
                                       for w, x in entries]))
            key += (x._id, w.numerator, w.denominator)
        key = tuple(key)
        return self.nodes.get(key) or self._new(key, SVal, entries)

    def fbot(self):
        key = (FBot,)
        return self.nodes.get(key) or self._new(key, FBot)

    def fset(self, gens):
        gens = self._mine(gens)
        key = (FSet, *[g._id for g in gens])
        return self.nodes.get(key) or self._new(key, FSet, gens)

    def fun(self, parts):
        parts = self._mine(parts)
        key = (SFun, *[p._id for p in parts])
        return self.nodes.get(key) or self._new(key, SFun, parts)

    def const(self, value):
        if value._tab is not self.token:
            value = self.adopt(value)
        key = (ConstFun, value._id)
        return self.nodes.get(key) or self._new(key, ConstFun, value)

    def closure(self, var, var_ty, body, names, values):
        """The closure of body over the environment that maps each of the
        sorted names, the free variables of the lambda, to its value."""
        values = self._mine(values)
        key = (Closure, var_ty, canon(body), names,
               tuple([v._id for v in values]))
        return self.nodes.get(key) or self._new(
            key, Closure, dict(zip(names, values)), var, var_ty, body)

    def adopt(self, v):
        """This table's node equal to v, which may come from another table;
        v's own structure is kept as is."""
        try:
            tab = v._tab
        except AttributeError:
            raise DomainError(f"not a semantic value: {v!r}") from None
        if tab is self.token:
            return v
        node = self.adopted.get((tab, v._id))
        if node is None:
            node = self.adopted[tab, v._id] = _ADOPT[type(v)](self, v)
        return node


_ADOPT = {
    SUnit: lambda t, v: t.unit(v.top),
    SInt: lambda t, v: t.nat(v.value),
    SPair: lambda t, v: t.pair(v.fst, v.snd),
    SVal: lambda t, v: t.val(v.entries),
    FBot: lambda t, v: t.fbot(),
    FSet: lambda t, v: t.fset(v.gens),
    SFun: lambda t, v: t.fun(v.parts),
    ConstFun: lambda t, v: t.const(v.value),
    Closure: lambda t, v: t.closure(  # env is kept in name order
        v.var, v.var_ty, v.body, tuple(v.env), tuple(v.env.values())),
}


# Canonical keys and normalization -------------------------------------------


def skey(v: SemValue) -> str:
    """Deterministic canonical string, rendered once per node; equal keys
    mean equal values."""
    try:
        k = v._skey
    except AttributeError:
        raise DomainError(f"not a semantic value: {v!r}") from None
    if k is None:
        k = v._skey = _SKEY[type(v)](v)
    return k


def _closure_key(c: Closure) -> str:
    envpart = ",".join(f"{n}={skey(v)}" for n, v in c.env.items())
    return f"c({c.var_ty};{canon(c.body)};{envpart})"


_SKEY = {
    SUnit: lambda v: "u1" if v.top else "u0",
    SInt: lambda v: "i_" if v.value is None else f"i{digits(v.value)}",
    SPair: lambda v: f"p({skey(v.fst)},{skey(v.snd)})",
    SVal: lambda v: "v{" + ",".join(
        f"{w}@{skey(x)}" for w, x in v.entries) + "}",
    FBot: lambda v: "f_",
    FSet: lambda v: "f{" + ",".join(skey(g) for g in v.gens) + "}",
    SFun: lambda v: "fn[" + ";".join(skey(p) for p in v.parts) + "]",
    ConstFun: lambda v: f"k({skey(v.value)})",
    Closure: _closure_key,
}


def _entry_key(entry) -> str:
    return skey(entry[1])


def make_val(pairs, tab: Optional[Table] = None) -> SVal:
    """Build a normalized valuation from (weight, point) pairs: one entry
    per distinct point, zero weights dropped, entries in skey order."""
    if tab is None:
        tab = Table()
    token = tab.token
    acc = {}
    for w, x in pairs:
        if type(w) is not Fraction:
            w = Fraction(w)
        n = w.numerator
        if n <= 0:
            if n < 0:
                raise DomainError("negative weight in a valuation")
            continue
        if x._tab is not token:
            x = tab.adopt(x)
        seen = acc.get(x._id)
        acc[x._id] = (w, x) if seen is None else (seen[0] + w, x)
    if len(acc) > 1:
        entries = tuple(sorted(acc.values(), key=_entry_key))
        total = sum([w for w, _ in entries], ZERO)
    else:
        entries = tuple(acc.values())
        total = entries[0][0] if entries else ZERO
    if total > 1:
        raise DomainError(f"valuation mass {total} exceeds one")
    return tab.val(entries)


def make_fset(gens, tab: Optional[Table] = None) -> FSet:
    """Build a normalized generator set: deduplicate, drop strictly
    dominated generators where the order is decidable, sort."""
    if tab is None:
        tab = Table()
    token = tab.token
    uniq = {}
    for g in gens:
        if g._tab is not token:
            g = tab.adopt(g)
        uniq.setdefault(g._id, g)
    items = list(uniq.values())
    if len(items) > 1:
        kept = []
        for g in items:
            dominated = False
            for h in items:
                if h is g:
                    continue
                below = _leq_or_none(h, g, tab)
                if below:
                    above = _leq_or_none(g, h, tab)
                    if not above:
                        dominated = True
                        break
            if not dominated:
                kept.append(g)
        items = sorted(kept, key=skey)
    return tab.fset(tuple(items))


def _leq_or_none(a, b, tab):
    try:
        return leq(a, b, tab)
    except LeqUndefined:
        return None


# Order, bottom, meet ---------------------------------------------------------


def bottom(ty: Type, tab: Optional[Table] = None) -> SemValue:
    if tab is None:
        tab = Table()
    if ty == UNIT:
        return tab.unit(False)
    if ty == INT:
        return tab.nat(None)
    if isinstance(ty, ProdT):
        return tab.pair(bottom(ty.fst, tab), bottom(ty.snd, tab))
    if isinstance(ty, DistT):
        return tab.val(())
    if isinstance(ty, ThunkT):
        return bottom(ty.comp, tab)
    if isinstance(ty, ProducerT):
        return tab.fbot()
    if isinstance(ty, ArrowT):
        return tab.fun((tab.const(bottom(ty.res, tab)),))
    raise DomainError(f"no domain for {ty!r}")


_LEQ_SUPPORT_CAP = 12

# Recursion stops iterating, inexactly, at an iterate holding a weight whose
# denominator is longer than this many bits. A body that binds its own
# recursive call squares the mass each round, doubling the digits of every
# weight per iterate, which soon outgrows Python's 4300-digit (about
# 14,280-bit) limit on rendering integers in skey.
_WEIGHT_BITS_CAP = 2048


def leq(a: SemValue, b: SemValue, tab: Optional[Table] = None) -> bool:
    """Information order, decidable on the first-order fragment. Raises
    LeqUndefined at function values and oversized valuation supports.
    Answers are kept per pair of nodes in the table."""
    if tab is None:
        tab = Table()
        a, b = tab.adopt(a), tab.adopt(b)
    key = (a._id, b._id)
    memo = tab.leq_memo
    known = memo.get(key)
    if known is None:
        try:
            known = _leq(a, b, tab)
        except LeqUndefined as e:
            known = str(e)
        memo[key] = known
    if known is True or known is False:
        return known
    raise LeqUndefined(known)


def _leq(a, b, tab) -> bool:
    ta, tb = type(a), type(b)
    if ta is SUnit and tb is SUnit:
        return (not a.top) or b.top
    if ta is SInt and tb is SInt:
        return a.value is None or a.value == b.value
    if ta is SPair and tb is SPair:
        return leq(a.fst, b.fst, tab) and leq(a.snd, b.snd, tab)
    if ta is SVal and tb is SVal:
        return _leq_val(a, b, tab)
    if ta is FBot:
        return tb in _PRODUCERS
    if ta is FSet:
        if tb is FBot:
            return False
        if tb is FSet:
            return all(any(leq(g, h, tab) for g in a.gens) for h in b.gens)
    if ta is SFun or tb is SFun:
        raise LeqUndefined("order on function values is not decidable here")
    raise DomainError(f"incomparable kinds: {a!r} vs {b!r}")


def _leq_val(a: SVal, b: SVal, tab) -> bool:
    """Valuation order: for every upper set, a's mass is at most b's. It
    suffices to check upper closures of subsets of the joint support."""
    support = {}
    for w, x in a.entries + b.entries:
        support.setdefault(x._id, x)
    points = list(support.values())
    n = len(points)
    if n > _LEQ_SUPPORT_CAP:
        raise LeqUndefined(f"joint support of size {n} exceeds the cap")
    for mask in range(1, 1 << n):
        base = [points[i] for i in range(n) if mask & (1 << i)]
        ma = _upmass(a, base, tab)
        mb = _upmass(b, base, tab)
        if ma > mb:
            return False
    return True


def _upmass(v: SVal, base: list, tab) -> Fraction:
    total = ZERO
    for w, x in v.entries:
        if any(leq(p, x, tab) for p in base):
            total += w
    return total


def sem_equal(a: SemValue, b: SemValue,
              tab: Optional[Table] = None) -> bool:
    """Semantic equality: the order in both directions where decidable,
    structural equality (one node of the table) otherwise."""
    if a is b:
        return True
    if tab is None:
        tab = Table()
        a, b = tab.adopt(a), tab.adopt(b)
        if a is b:
            return True
    try:
        return leq(a, b, tab) and leq(b, a, tab)
    except LeqUndefined:
        return False


def meet(a: SemValue, b: SemValue, tab: Optional[Table] = None) -> SemValue:
    """Binary meet where representable: producer elements and functions."""
    if tab is None:
        tab = Table()
    ta, tb = type(a), type(b)
    if ta is FBot or tb is FBot:
        if ta in _PRODUCERS and tb in _PRODUCERS:
            return tab.fbot()
    if ta is FSet and tb is FSet:
        return make_fset(a.gens + b.gens, tab)
    if ta is SFun and tb is SFun:
        return tab.fun(a.parts + b.parts)
    raise DomainError(
        f"no representable meet for {ta.__name__} and {tb.__name__}")


# Valuation and producer combinators ------------------------------------------


def vdagger(f: Callable, v: SVal, tab: Optional[Table] = None) -> SVal:
    """Lift a point function into valuations: weighted sum of f over the
    support."""
    pairs = []
    for w, x in v.entries:
        fx = f(x)
        if not isinstance(fx, SVal):
            raise DomainError("lifted function must return a valuation")
        pairs.extend((w if u is ONE else w * u, y) for u, y in fx.entries)
    return make_val(pairs, tab)


def qstar(f: Callable, q: SemValue, tab: Optional[Table] = None) -> SemValue:
    """Lift a point function into producer elements: bottom is fixed, and a
    generator set maps to the meet of the images (empty set stays empty)."""
    if tab is None:
        tab = Table()
    if isinstance(q, FBot):
        return tab.fbot()
    if not isinstance(q, FSet):
        raise DomainError("qstar expects a producer element")
    if not q.gens:
        return tab.fset(())
    out = None
    for g in q.gens:
        fg = f(g)
        if fg._tab is not tab.token:
            fg = tab.adopt(fg)
        out = fg if out is None else meet(out, fg, tab)
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


def obs_gate(bound: Fraction, q: SemValue,
             tab: Optional[Table] = None) -> SUnit:
    """Denotation of the statistical tester at a given bound."""
    if tab is None:
        tab = Table()
    if isinstance(q, FBot):
        return tab.unit(False)
    if not isinstance(q, FSet):
        raise DomainError("tester expects a producer element")
    if not q.gens:
        return tab.unit(True)
    return tab.unit(all(tmass(g) > bound for g in q.gens))


# Evaluation ------------------------------------------------------------------


@dataclass(frozen=True)
class EvalOutcome:
    value: SemValue
    ty: Type
    exact: bool


class _Ev(Table):
    """One evaluation: its intern table, its depth, its exactness."""

    __slots__ = ("rec_depth", "approx")

    def __init__(self, rec_depth: int):
        super().__init__()
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
    out = _apply(ev.adopt(fn), ev.adopt(arg), ev)
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
        out = r if out is None else meet(out, r, ev)
    return out


# Handlers, one per core node class: handler(term, env, ev) -> value. The
# table covers core forms only: evaluate elaborates first, which refuses
# anything else.


def _var(term, env, ev):
    return env[term.name]


def _star(term, env, ev):
    return ev.unit(True)


def _numlit(term, env, ev):
    return ev.nat(term.value)


def _abort(term, env, ev):
    return ev.fset(())


def _lambda(term, env, ev):
    names = tuple(sorted(free_vars(term)))
    return ev.fun((ev.closure(term.var, term.var_ty, term.body, names,
                              tuple([env[n] for n in names])),))


def _app(term, env, ev):
    fn, arg = term.fn, term.arg
    fn = _EVAL[type(fn)](fn, env, ev)
    return _apply(fn, _EVAL[type(arg)](arg, env, ev), ev)


def _succ(term, env, ev):
    arg = term.arg
    n = _EVAL[type(arg)](arg, env, ev).value
    return ev.nat(None if n is None else n + 1)


def _pred(term, env, ev):
    arg = term.arg
    n = _EVAL[type(arg)](arg, env, ev).value
    return ev.nat(None if n is None else max(0, n - 1))


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
    return bottom(term._node_ty, ev)


def _ifz(term, env, ev):
    scrut = term.scrut
    n = _EVAL[type(scrut)](scrut, env, ev).value
    if n is None:
        return bottom(term._node_ty, ev)
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
    return ev.pair(_EVAL[type(fst)](fst, env, ev),
                   _EVAL[type(snd)](snd, env, ev))


def _pchoice(term, env, ev):
    # Both halves scaled and merged in one normalization.
    left, right = term.left, term.right
    left = _EVAL[type(left)](left, env, ev)
    right = _EVAL[type(right)](right, env, ev)
    return make_val([(HALF * w, x) for w, x in left.entries + right.entries],
                    ev)


def _ret(term, env, ev):
    value = term.value
    return make_val(((ONE, _EVAL[type(value)](value, env, ev)),), ev)


def _do(term, env, ev):
    source = term.source
    return vdagger(_binder_body(term, env, ev),
                   _EVAL[type(source)](source, env, ev), ev)


def _nchoice(term, env, ev):
    left, right = term.left, term.right
    return meet(_EVAL[type(left)](left, env, ev),
                _EVAL[type(right)](right, env, ev), ev)


def _produce(term, env, ev):
    value = term.value
    return make_fset((_EVAL[type(value)](value, env, ev),), ev)


def _to(term, env, ev):
    source = term.source
    return qstar(_binder_body(term, env, ev),
                 _EVAL[type(source)](source, env, ev), ev)


def _pifz(term, env, ev):
    scrut = term.scrut
    n = _EVAL[type(scrut)](scrut, env, ev).value
    z, nz = term.if_zero, term.if_nonzero
    if n is None:
        return meet(_EVAL[type(z)](z, env, ev), _EVAL[type(nz)](nz, env, ev),
                    ev)
    branch = z if n == 0 else nz
    return _EVAL[type(branch)](branch, env, ev)


def _obs(term, env, ev):
    arg = term.arg
    return obs_gate(term.bound, _EVAL[type(arg)](arg, env, ev), ev)


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
    cur = bottom(term.var_ty, ev)
    for _ in range(ev.rec_depth):
        inner = dict(env)
        inner[var] = cur
        nxt = handler(body, inner, ev)
        if _too_fine(nxt):
            break
        if sem_equal(nxt, cur, ev):
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
    _WEIGHT_BITS_CAP bits."""
    return _max_bits(v) > _WEIGHT_BITS_CAP


def _max_bits(v: SemValue) -> int:
    """Bit length of the longest weight denominator inside v, kept on each
    node, so a part shared by many values is measured once."""
    bits = v._bits
    if bits is None:
        bits = v._bits = _BITS[type(v)](v)
    return bits


_BITS = {
    SUnit: lambda v: 0,
    SInt: lambda v: 0,
    SPair: lambda v: max(_max_bits(v.fst), _max_bits(v.snd)),
    SVal: lambda v: max((max(w.denominator.bit_length(), _max_bits(x))
                         for w, x in v.entries), default=0),
    FBot: lambda v: 0,
    FSet: lambda v: max(map(_max_bits, v.gens), default=0),
    SFun: lambda v: max(map(_max_bits, v.parts), default=0),
    ConstFun: lambda v: _max_bits(v.value),
    Closure: lambda v: max(map(_max_bits, v.env.values()), default=0),
}


# Rendering -------------------------------------------------------------------


def render_value(v: SemValue) -> str:
    """Human-readable rendering of a domain element."""
    if isinstance(v, SUnit):
        return "tt" if v.top else "bot"
    if isinstance(v, SInt):
        return "bot" if v.value is None else digits(v.value)
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
