"""Denotational evaluator over finitely representable domain elements.

Types denote domains as follows. The unit type denotes the two-point lattice
(bottom and top); int denotes flat naturals with bottom; pairs are
componentwise; V sigma denotes finite-support subprobability valuations with
rational weights over the element domain; F sigma denotes a demonic
completion of sigma: either bottom (the computation may hang before
producing) or a finite set of generators read as "one of these, chosen by an
adversary" (the empty set, arising from abort, is the top element); U tau
is transparent; arrows denote functions, represented by closures. Abort,
sequencing and parallel-if live at every computation type and act on
arrows pointwise: abort is the constant function to the top of its result,
and the meet of two functions applies both and meets the results.

Recursion denotes the least fixed point of its body's map (Jones and
Plotkin, "A probabilistic powerdomain of evaluations", 1989), and is
evaluated by iterating from bottom. When an iterate repeats, the fixed
point has been reached and the result is exact. A valuation's total mass is
its mass on the whole space, an upper set, so two valuations of different
mass are not equal in the order: a valuation-typed iterate whose mass moved
is rejected by its mass, and only one of unchanged mass has the order
decided by sem_equal. A recursion at V A, with A first-order and a body
affine in the recursive variable (see _affine), is solved instead once two
iterates share their support S: the body's map on valuations over S is
w -> c + Mw, read off from its value at bottom and at the point mass of
each point of S, and its least fixed point is the exact solution of that
linear system, kept only if the body maps it to itself. Nonlinear bodies
keep iterating, since their least fixed points can be irrational (Etessami
and Yannakakis, "Recursive Markov chains, stochastic grammars, and
monotone systems of nonlinear equations", 2009). A recursion whose
variable does not occur in its body is that body's value, evaluated once.
rec_depth bounds the body evaluations of each recursion, the solve's
included (so at rec_depth 0 every recursion is bottom); a recursion that
neither stabilizes nor is solved within it returns the deepest iterate
computed and clears the exactness flag. Short of a failed solve, one run
at a given depth therefore gives everything a shallower run would, and
more.

The evaluator reads the core that elaboration produced and derives no type
of its own: a `;` whose head is bottom, an `ifz` whose scrutinee is, or a
`to` whose source is, denotes the bottom of the type elaboration kept on
that node, and a `to` whose source is empty denotes its top. Environments
map names to semantic values. Evaluation dispatches on a node's class
through one table, _EVAL, with a handler per class that evaluates each child
by calling the child's handler from the table.

Values are hash-consed (Filliatre and Conchon, "Type-safe modular
hash-consing", 2006), and a Table is the only way to build one: code that
builds values by hand calls its constructors (unit, nat, pair, val, fbot,
fset, fun, const, closure), and calling a value class raises TypeError.
Every value is built in the table of the call that owns it: evaluate
builds into the table it is given, else into one of its own that lives
exactly as long as the call, and apply_fun and every helper (make_val,
mix, make_fset, leq, meet, sem_equal, vdagger, qstar, bottom, top,
obs_gate) take their table as an argument. A table keys each node by its
class and its children's small integer ids and weights, so within a table
structurally equal values are one object and `==` on values is `is`:
make_val and make_fset merge points by id, sem_equal's fast path is `is`,
and leq is memoized per pair of ids. An id means nothing in another
table, so a value of another table is refused with DomainError wherever
its id would be read; across tables, values compare by skey. The
evaluator builds the values that are normal by construction directly: ret
a point mass, produce a one-generator set, and (+) the merge mix of its
two arms' entries; make_val and make_fset normalize the rest. A closure is
keyed by its variable type, its body and its environment's ids; the body
with its free names by name, as skey renders it: by an alpha-class id
(syntax.open_id) in the table's IdTable, which is fixed for the table's
life (see Table).

Each node computes three things lazily, at most once: skey, its canonical
string, which orders valuation entries and generators and which the harness
uses as a key; the bit length of its longest weight denominator, which
the recursion's weight cap reads; and, for a valuation, its total mass,
which the recursion's stability test reads first.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from typing import Callable, Optional

from . import solver, typecheck
# The exact constants are solver's, which the engine's bounds use too: a
# mass and a bound that are equal are then often one object.
from .solver import HALF, ONE, ZERO
from .syntax import (
    Abort, App, ArrowT, DistT, Do, Force, Ifz, IntT, Lambda, NChoice, NumLit,
    Obs, Pair, PChoice, Pifz, Pred, Proj1, Proj2, Produce, ProducerT, ProdT,
    Rec, Ret, Seq, Star, Succ, Term, Thunk, ThunkT, To, Type, UnitT, Var,
    IdTable, canon, digits, fraction_text, free_vars, occurs, open_id,
)

DEFAULT_REC_DEPTH = 64


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

    def __repr__(self):
        inner = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({inner})"


class SUnit(_Value):
    """Element of the two-point lattice: top (observed) or bottom."""
    __slots__ = ("top",)
    _fields = __slots__

    def _fill(self, top):
        self.top = top


class SInt(_Value):
    """Flat natural with bottom; value None encodes bottom."""
    __slots__ = ("value",)
    _fields = __slots__

    def _fill(self, value):
        self.value = value


class SPair(_Value):
    __slots__ = ("fst", "snd")
    _fields = __slots__

    def _fill(self, fst, snd):
        self.fst = fst
        self.snd = snd


class SVal(_Value):
    """Finite-support subprobability valuation: entries are (weight, point)
    with positive rational weights summing to at most one. Normalized form:
    points deduplicated and sorted by canonical key. _mass is the total
    weight, summed at most once (see _total_mass)."""
    __slots__ = ("entries", "_mass")
    _fields = ("entries",)

    def _fill(self, entries):
        self.entries = entries
        self._mass = None


class FBot(_Value):
    """Least element of a producer domain: the run may hang."""
    __slots__ = ()

    def _fill(self):
        pass


class FSet(_Value):
    """Finitely generated element of a producer domain: an adversary picks
    one of the generators. No generators means no possible outcome, the top
    element, which is what abort denotes."""
    __slots__ = ("gens",)
    _fields = __slots__

    def _fill(self, gens):
        self.gens = gens


class Closure(_Value):
    """A function value: a lambda body together with the environment it
    closed over, restricted to the body's free variables."""

    __slots__ = ("env", "var", "var_ty", "body")

    def _fill(self, env, var, var_ty, body):
        self.env = env
        self.var = var
        self.var_ty = var_ty
        self.body = body

    def __repr__(self):
        return f"Closure({self.var}:{self.var_ty})"


class ConstFun(_Value):
    """A function that ignores its argument; used for arrow-type bottoms."""
    __slots__ = ("value",)
    _fields = __slots__

    def _fill(self, value):
        self.value = value


class SFun(_Value):
    """Function value as a meet of parts: applying it applies every part
    and takes the meet of the results. Singletons are the common case."""
    __slots__ = ("parts",)
    _fields = __slots__

    def _fill(self, parts):
        self.parts = parts


SemValue = object

_PRODUCERS = (FBot, FSet)

_TABLES = count()
_alloc = object.__new__
_FOREIGN = "a value of another table"


class Table:
    """Intern table: one node per structurally distinct value, and the
    state of the evaluate or apply_fun call that builds into it. Ids are
    positions in the table and tokens are unique per table, so (token, id)
    names a node for good; the table holds no id() of any object. Keys are
    made of child ids, so a constructor refuses a child of another table.
    terms is the IdTable closure bodies are keyed in, given at construction
    and fixed for the table's life: the core's when evaluate makes the
    table for that core, else a new one, since two cores give different
    bodies one id. rec_depth,
    approx and fallbacks, set by each such call, are its depth, its
    inexactness and the number of its recursions whose solve failed (see
    _eval_rec)."""

    __slots__ = ("nodes", "leq_memo", "token", "terms", "rec_depth",
                 "approx", "fallbacks")

    def __init__(self, terms: Optional[IdTable] = None):
        self.nodes = {}
        self.leq_memo = {}
        self.token = next(_TABLES)
        self.terms = IdTable() if terms is None else terms

    def _new(self, key, cls, *fields):
        node = _alloc(cls)
        node._fill(*fields)
        node._id = len(self.nodes)
        node._tab = self.token
        node._skey = node._bits = None
        self.nodes[key] = node
        return node

    def _mine(self, values):
        """Refuse the values unless all of them are nodes of this table."""
        token = self.token
        for v in values:
            if v._tab is not token:
                raise DomainError(_FOREIGN)

    def unit(self, top):
        key = (SUnit, top)
        return self.nodes.get(key) or self._new(key, SUnit, top)

    def nat(self, n):
        key = (SInt, n)
        return self.nodes.get(key) or self._new(key, SInt, n)

    def pair(self, fst, snd):
        if fst._tab is not self.token or snd._tab is not self.token:
            raise DomainError(_FOREIGN)
        key = (SPair, fst._id, snd._id)
        return self.nodes.get(key) or self._new(key, SPair, fst, snd)

    def val(self, entries):
        """The valuation with these entries, which must already be normal,
        as make_val and mix return them."""
        token = self.token
        key = [SVal]
        for w, x in entries:
            if x._tab is not token:
                raise DomainError(_FOREIGN)
            key += (x._id, w.numerator, w.denominator)
        key = tuple(key)
        return self.nodes.get(key) or self._new(key, SVal, entries)

    def fbot(self):
        key = (FBot,)
        return self.nodes.get(key) or self._new(key, FBot)

    def fset(self, gens):
        self._mine(gens)
        key = (FSet, *[g._id for g in gens])
        return self.nodes.get(key) or self._new(key, FSet, gens)

    def fun(self, parts):
        self._mine(parts)
        key = (SFun, *[p._id for p in parts])
        return self.nodes.get(key) or self._new(key, SFun, parts)

    def const(self, value):
        if value._tab is not self.token:
            raise DomainError(_FOREIGN)
        key = (ConstFun, value._id)
        return self.nodes.get(key) or self._new(key, ConstFun, value)

    def closure(self, var, var_ty, body, names, values):
        """The closure of body over the environment that maps each of the
        sorted names, the free variables of the lambda, to its value. The
        body is keyed as skey renders it, with its free names by name: by
        its open_id in terms. The key does not depend on the binders above
        the lambda, so equal closures are one node wherever they were
        built."""
        self._mine(values)
        key = (Closure, var_ty, open_id(self.terms, body),
               names, tuple([v._id for v in values]))
        return self.nodes.get(key) or self._new(
            key, Closure, dict(zip(names, values)), var, var_ty, body)


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
        f"{fraction_text(w)}@{skey(x)}" for w, x in v.entries) + "}",
    FBot: lambda v: "f_",
    FSet: lambda v: "f{" + ",".join(skey(g) for g in v.gens) + "}",
    SFun: lambda v: "fn[" + ";".join(skey(p) for p in v.parts) + "]",
    ConstFun: lambda v: f"k({skey(v.value)})",
    Closure: _closure_key,
}


def _entry_key(entry) -> str:
    return skey(entry[1])


def make_val(pairs, tab: Table) -> SVal:
    """Build a normalized valuation from (weight, point) pairs: one entry
    per distinct point, zero weights dropped, entries in skey order."""
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
            raise DomainError(_FOREIGN)
        seen = acc.get(x._id)
        acc[x._id] = (w, x) if seen is None else (seen[0] + w, x)
    if len(acc) > 1:
        entries = tuple(sorted(acc.values(), key=_entry_key))
        total = sum([w for w, _ in entries], ZERO)
    else:
        entries = tuple(acc.values())
        total = entries[0][0] if entries else ZERO
    if total > 1:
        raise DomainError(f"valuation mass {fraction_text(total)} exceeds one")
    return tab.val(entries)


def mix(a: SVal, b: SVal, tab: Table) -> SVal:
    """The valuation a (+) b: make_val of a's and b's entries at half
    weight. Both entry tuples are already normal, so one merge in skey
    order builds it, with no sort and no mass check: a point of both sides
    adds its halves. Two distinct points with one skey, which make_val
    would keep in order of first appearance, send the pairs to make_val."""
    if a._tab is not tab.token or b._tab is not tab.token:
        raise DomainError(_FOREIGN)
    xs, ys = a.entries, b.entries
    m, n = len(xs), len(ys)
    out = []
    i = j = 0
    while i < m and j < n:
        w, x = xs[i]
        v, y = ys[j]
        if x is y:
            out.append(((w + v) * HALF, x))
            i += 1
            j += 1
            continue
        kx, ky = skey(x), skey(y)
        if kx < ky:
            out.append((w * HALF, x))
            i += 1
        elif ky < kx:
            out.append((v * HALF, y))
            j += 1
        else:
            return make_val([(w * HALF, x) for w, x in xs + ys], tab)
    out += [(w * HALF, x) for w, x in xs[i:]]
    out += [(v * HALF, y) for v, y in ys[j:]]
    return tab.val(tuple(out))


def _total_mass(v: SVal) -> Fraction:
    """Total weight of a valuation, kept on the node."""
    m = v._mass
    if m is None:
        m = v._mass = sum([w for w, _ in v.entries], ZERO)
    return m


def make_fset(gens, tab: Table) -> FSet:
    """Build a normalized generator set: deduplicate, drop strictly
    dominated generators where the order is decidable, sort."""
    token = tab.token
    uniq = {}
    for g in gens:
        if g._tab is not token:
            raise DomainError(_FOREIGN)
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


def bottom(ty: Type, tab: Table) -> SemValue:
    cls = type(ty)
    if cls is UnitT:
        return tab.unit(False)
    if cls is IntT:
        return tab.nat(None)
    if cls is ProdT:
        return tab.pair(bottom(ty.fst, tab), bottom(ty.snd, tab))
    if cls is DistT:
        return tab.val(())
    if cls is ThunkT:
        return bottom(ty.comp, tab)
    if cls is ProducerT:
        return tab.fbot()
    if cls is ArrowT:
        return tab.fun((tab.const(bottom(ty.res, tab)),))
    raise DomainError(f"no domain for {ty!r}")


def top(cty: Type, tab: Table) -> SemValue:
    """The top of a computation type: the empty generator set at F A, and at
    an arrow type a constant function to the top of its result."""
    if type(cty) is ArrowT:
        return tab.fun((tab.const(top(cty.res, tab)),))
    return tab.fset(())


_LEQ_SUPPORT_CAP = 12

# Recursion stops iterating, inexactly, at an iterate holding a weight whose
# denominator is longer than this many bits. A body that binds its own
# recursive call squares the mass each round, doubling the bits of every
# weight per iterate, so each further round costs twice the last. The cap
# bounds that work; skey and render_value print weights of any size.
_WEIGHT_BITS_CAP = 2048


def leq(a: SemValue, b: SemValue, tab: Table) -> bool:
    """Information order, decidable on the first-order fragment. Raises
    LeqUndefined at function values and oversized valuation supports.
    Answers are kept per pair of nodes in the table."""
    if a._tab is not tab.token or b._tab is not tab.token:
        raise DomainError(_FOREIGN)
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


def sem_equal(a: SemValue, b: SemValue, tab: Table) -> bool:
    """Semantic equality: the order in both directions where decidable,
    structural equality (one node of the table) otherwise."""
    if a is b:
        return True
    try:
        return leq(a, b, tab) and leq(b, a, tab)
    except LeqUndefined:
        return False


def meet(a: SemValue, b: SemValue, tab: Table) -> SemValue:
    """Binary meet where representable: producer elements and functions."""
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


def vdagger(f: Callable, v: SVal, tab: Table) -> SVal:
    """Lift a point function into valuations: weighted sum of f over the
    support."""
    pairs = []
    for w, x in v.entries:
        fx = f(x)
        if not isinstance(fx, SVal):
            raise DomainError("lifted function must return a valuation")
        pairs.extend((w if u is ONE else w * u, y) for u, y in fx.entries)
    return make_val(pairs, tab)


def qstar(f: Callable, q: SemValue, tab: Table) -> SemValue:
    """Lift a point function into producer elements: bottom is fixed, and a
    generator set maps to the meet of the images (empty set stays empty)."""
    if isinstance(q, FBot):
        return tab.fbot()
    if not isinstance(q, FSet):
        raise DomainError("qstar expects a producer element")
    if not q.gens:
        return tab.fset(())
    out = None
    for g in q.gens:
        fg = f(g)
        out = fg if out is None else meet(out, fg, tab)
    return out


def tmass(v: SVal) -> Fraction:
    """Mass a unit-valued valuation places on top. A sum of one weight is
    that weight, with no addition."""
    total = None
    for w, x in v.entries:
        if type(x) is not SUnit:
            raise DomainError("tmass expects a valuation over unit")
        if x.top:
            total = w if total is None else total + w
    return ZERO if total is None else total


def hstar(q: SemValue) -> Fraction:
    """Guaranteed termination mass of a producer-of-distributions element:
    the worst generator's mass on top. Bottom gives zero; the empty set,
    having no adversary move, gives one."""
    cls = type(q)
    if cls is FBot:
        return ZERO
    if cls is not FSet:
        raise DomainError("hstar expects a producer element")
    if not q.gens:
        return ONE
    return min(map(tmass, q.gens))


def obs_gate(bound: Fraction, q: SemValue, tab: Table) -> SUnit:
    """Denotation of the statistical tester at a bound in (0, 1): it
    converges exactly when the guaranteed mass exceeds the bound."""
    return tab.unit(hstar(q) > bound)


# Evaluation ------------------------------------------------------------------


@dataclass(frozen=True)
class EvalOutcome:
    value: SemValue
    ty: Type
    exact: bool


def evaluate(term: Term, rec_depth: int = DEFAULT_REC_DEPTH,
             tab: Optional[Table] = None) -> EvalOutcome:
    """Evaluate a closed term to a domain element, built in tab, else in a
    table of its own that keys closures in the core's IdTable. The outcome
    is exact unless some recursion neither stabilized nor was solved within
    rec_depth body evaluations. Its fields are filled in directly, past the
    frozen class's __init__."""
    core, ty = typecheck.elaborate(term)
    if tab is None:
        tab = Table(core.__dict__.get("_ids"))
    tab.rec_depth, tab.approx, tab.fallbacks = rec_depth, False, 0
    value = _EVAL[type(core)](core, {}, tab)
    out = _alloc(EvalOutcome)
    fields = out.__dict__
    fields["value"] = value
    fields["ty"] = ty
    fields["exact"] = not tab.approx
    return out


def apply_fun(fn: SemValue, arg: SemValue, tab: Table,
              rec_depth: int = DEFAULT_REC_DEPTH):
    """Apply a function value of tab outside of term evaluation."""
    tab._mine((fn, arg))
    tab.rec_depth, tab.approx, tab.fallbacks = rec_depth, False, 0
    return _apply(fn, arg, tab), not tab.approx


def _apply(fn: SemValue, arg: SemValue, ev: Table) -> SemValue:
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
    return top(term.cty, ev)


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
    left, right = term.left, term.right
    return mix(_EVAL[type(left)](left, env, ev),
               _EVAL[type(right)](right, env, ev), ev)


def _ret(term, env, ev):
    value = term.value
    return ev.val(((ONE, _EVAL[type(value)](value, env, ev)),))


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
    return ev.fset((_EVAL[type(value)](value, env, ev),))


def _to(term, env, ev):
    source = term.source
    q = _EVAL[type(source)](source, env, ev)
    if type(q) is FBot:
        return bottom(term._node_ty, ev)
    if not q.gens:
        return top(term._node_ty, ev)
    return qstar(_binder_body(term, env, ev), q, ev)


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


def _binder_body(term, env: dict, ev: Table) -> Callable:
    """The body of a binder (Do, To or Rec) as a point function of its bound
    variable."""
    body, var = term.body, term.var
    handler = _EVAL[type(body)]

    def run(x):
        inner = dict(env)
        inner[var] = x
        return handler(body, inner, ev)
    return run


def _eval_rec(term, env: dict, ev: Table) -> SemValue:
    """Kleene iteration from bottom, one body evaluation per round and at
    most ev.rec_depth evaluations in all. Once two successive iterates
    share their support S, an affine recursion (_solvable) is solved
    instead, when the evaluations left cover the solve's |S| + 1. A solve
    that fails is counted in ev.fallbacks, and iteration goes on with the
    evaluations left after it. A body in which the variable does not occur
    is its own fixed point: its one evaluation is the exact value."""
    body, var = term.body, term.var
    handler = _EVAL[type(body)]
    if ev.rec_depth > 0 and not occurs(var, body):
        return handler(body, env, ev)
    cur = bottom(term.var_ty, ev)
    first = solvable = None
    left = ev.rec_depth
    while left > 0:
        inner = dict(env)
        inner[var] = cur
        nxt = handler(body, inner, ev)
        left -= 1
        if _too_fine(nxt):
            break
        # Equal valuations have equal mass, so a round whose mass moved is
        # not stable, and the order need not be decided.
        if (type(nxt) is not SVal or _total_mass(nxt) == _total_mass(cur)) \
                and sem_equal(nxt, cur, ev):
            return nxt
        if first is None:
            first = nxt
        elif solvable is None and type(nxt) is SVal \
                and _same_support(cur, nxt):
            solvable = _solvable(term)
            if solvable and len(nxt.entries) < left:
                left -= len(nxt.entries) + 1
                fixed = _solve_affine(_binder_body(term, env, ev), first, nxt,
                                      ev)
                if fixed is not None:
                    return fixed
                ev.fallbacks += 1
        cur = nxt
    ev.approx = True
    return cur


def _same_support(a: SVal, b: SVal) -> bool:
    xs, ys = a.entries, b.entries
    return len(xs) == len(ys) and all(
        x is y for (_, x), (_, y) in zip(xs, ys))


def _solve_affine(at: Callable, const: SVal, support: SVal, ev: Table):
    """The least fixed point of an affine body's map w -> at(w) on the
    valuations over support's points S, where const = at(bottom), or None.
    The body's value at the point mass of each x in S gives column x of M
    in at(w) = const + Mw; every weight that cannot reach a positive
    constant is 0, and solver.solve_linear solves for the rest. Spends
    |S| + 1 body evaluations. None when a value leaves S, M has a negative
    entry, the system is singular, the solution is not a valuation, or the
    body does not map the solution to itself."""
    points = {x._id: x for _, x in support.entries}
    c = {x._id: w for w, x in const.entries}
    rows = {i: ({}, c.get(i, ZERO)) for i in points}
    for i, x in points.items():
        column = {y._id: w for w, y in at(ev.val(((ONE, x),))).entries}
        for j, w in c.items():
            column[j] = column.get(j, ZERO) - w
        for j, m in column.items():
            if m:
                if m < 0 or j not in rows:
                    return None
                rows[j][0][i] = m
    live = {j for j, (_, k) in rows.items() if k}
    while True:
        more = {j for j, (coeffs, _) in rows.items()
                if j not in live and not live.isdisjoint(coeffs)}
        if not more:
            break
        live |= more
    try:
        weights = solver.solve_linear(
            {j: ({i: m for i, m in coeffs.items() if i in live}, k)
             for j, (coeffs, k) in rows.items() if j in live})
        fixed = make_val([(w, points[j]) for j, w in weights.items()], ev)
    except (ZeroDivisionError, DomainError):
        return None
    return fixed if at(fixed) is fixed else None


def _solvable(term: Rec) -> bool:
    """Whether a rec is solved rather than iterated: its type is V A with A
    first-order, and its body is affine in its variable. Worked out once
    per node and kept on it."""
    facts = term.__dict__
    known = facts.get("_solvable")
    if known is None:
        ty = term.var_ty
        known = facts["_solvable"] = (
            type(ty) is DistT and _first_order(ty.elem)
            and _affine(term.body, term.var))
    return known


def _first_order(ty: Type) -> bool:
    cls = type(ty)
    if cls is ProdT:
        return _first_order(ty.fst) and _first_order(ty.snd)
    if cls is DistT:
        return _first_order(ty.elem)
    return cls is UnitT or cls is IntT


def _affine(term: Term, u: str) -> bool:
    """Whether u occurs in the valuation-typed term only where the term's
    value is affine in u's: as an arm of (+), as the source of a do whose
    body omits u or as the body of one whose source does, as a branch of an
    ifz whose scrutinee omits u, or as the rest of a `;` whose head does;
    never under a lambda, a thunk, a ret or an inner rec."""
    if not occurs(u, term):
        return True
    cls = type(term)
    if cls is Var:
        return True
    if cls is PChoice:
        return _affine(term.left, u) and _affine(term.right, u)
    if cls is Do:
        if not occurs(u, term.source):
            return _affine(term.body, u)
        return ((term.var == u or not occurs(u, term.body))
                and _affine(term.source, u))
    if cls is Ifz:
        return (not occurs(u, term.scrut)
                and _affine(term.if_zero, u) and _affine(term.if_nonzero, u))
    if cls is Seq:
        return not occurs(u, term.first) and _affine(term.rest, u)
    return False


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
        inner = ", ".join(f"{fraction_text(w)} @ {render_value(x)}"
                          for w, x in v.entries)
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
