"""Abstract syntax for a call-by-push-value calculus with probabilistic
choice, demonic choice, parallel-if, and statistical termination testers.

Value types classify data, computation types classify machine behavior.
Every binder carries a type annotation, so type synthesis never infers.
An evaluation context is a stack of frames rooted at one of three initial
shapes; a frame is an eliminator with * in its hole. All numeric payloads
are arbitrary-precision ints or Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

# ---------------------------------------------------------------------------
# Types

@dataclass(frozen=True)
class UnitT:
    def __str__(self) -> str:
        return "unit"


@dataclass(frozen=True)
class IntT:
    def __str__(self) -> str:
        return "int"


@dataclass(frozen=True)
class ProdT:
    fst: "ValueType"
    snd: "ValueType"

    def __str__(self) -> str:
        return f"({self.fst} * {self.snd})"


@dataclass(frozen=True)
class DistT:
    """Subprobability distributions over values of the element type."""

    elem: "ValueType"

    def __str__(self) -> str:
        return f"V {self.elem}"


@dataclass(frozen=True)
class ThunkT:
    """Suspended computations, embedded as values."""

    comp: "CompType"

    def __str__(self) -> str:
        return f"U {self.comp}"


@dataclass(frozen=True)
class ProducerT:
    """Computations that set out to produce a value of the element type."""

    elem: "ValueType"

    def __str__(self) -> str:
        return f"F {self.elem}"


@dataclass(frozen=True)
class ArrowT:
    arg: "ValueType"
    res: "CompType"

    def __str__(self) -> str:
        return f"({self.arg} -> {self.res})"


# Unions are written with |, not typing.Union: typing caches Union[...] by
# its members, which would keep the classes of every import of this module
# alive for the life of the process.
ValueType = UnitT | IntT | ProdT | DistT | ThunkT
CompType = ProducerT | ArrowT
Type = ValueType | CompType

UNIT = UnitT()
INT = IntT()
VUNIT = DistT(UNIT)
FVUNIT = ProducerT(VUNIT)


VALUE_TYPES = frozenset((UnitT, IntT, ProdT, DistT, ThunkT))
COMP_TYPES = frozenset((ProducerT, ArrowT))


def is_value_type(ty: Type) -> bool:
    return type(ty) in VALUE_TYPES


def is_comp_type(ty: Type) -> bool:
    return type(ty) in COMP_TYPES


# ---------------------------------------------------------------------------
# Terms
#
# The span field records source positions when a term came from the parser;
# it never participates in equality or hashing.

_SPAN = dict(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class Var:
    name: str
    ty: ValueType
    span: Optional[tuple] = field(**_SPAN)


@dataclass(frozen=True)
class Star:
    span: Optional[tuple] = field(**_SPAN)


@dataclass(frozen=True)
class NumLit:
    value: int
    span: Optional[tuple] = field(**_SPAN)


@dataclass(frozen=True)
class Abort:
    """The demonically empty computation. Core terms only carry producer
    types here; arrow-typed aborts are surface sugar that eta-expands."""

    cty: CompType
    span: Optional[tuple] = field(**_SPAN)


@dataclass(frozen=True)
class Lambda:
    var: str
    var_ty: ValueType
    body: "Term"
    span: Optional[tuple] = field(**_SPAN)


@dataclass(frozen=True)
class App:
    fn: "Term"
    arg: "Term"
    span: Optional[tuple] = field(**_SPAN)


@dataclass(frozen=True)
class Rec:
    """Recursive definition at a value type."""

    var: str
    var_ty: ValueType
    body: "Term"
    span: Optional[tuple] = field(**_SPAN)


@dataclass(frozen=True)
class Succ:
    arg: "Term"
    span: Optional[tuple] = field(**_SPAN)


@dataclass(frozen=True)
class Pred:
    arg: "Term"
    span: Optional[tuple] = field(**_SPAN)


@dataclass(frozen=True)
class Thunk:
    comp: "Term"
    span: Optional[tuple] = field(**_SPAN)


@dataclass(frozen=True)
class Force:
    thunk: "Term"
    span: Optional[tuple] = field(**_SPAN)


@dataclass(frozen=True)
class Seq:
    first: "Term"
    rest: "Term"
    span: Optional[tuple] = field(**_SPAN)


@dataclass(frozen=True)
class Ifz:
    scrut: "Term"
    if_zero: "Term"
    if_nonzero: "Term"
    span: Optional[tuple] = field(**_SPAN)


@dataclass(frozen=True)
class Proj1:
    pair: "Term"
    span: Optional[tuple] = field(**_SPAN)


@dataclass(frozen=True)
class Proj2:
    pair: "Term"
    span: Optional[tuple] = field(**_SPAN)


@dataclass(frozen=True)
class Pair:
    fst: "Term"
    snd: "Term"
    span: Optional[tuple] = field(**_SPAN)


@dataclass(frozen=True)
class PChoice:
    """Fair probabilistic choice between two distribution-typed terms."""

    left: "Term"
    right: "Term"
    span: Optional[tuple] = field(**_SPAN)


@dataclass(frozen=True)
class Ret:
    value: "Term"
    span: Optional[tuple] = field(**_SPAN)


@dataclass(frozen=True)
class Do:
    """Monadic bind for the distribution layer."""

    var: str
    var_ty: ValueType
    source: "Term"
    body: "Term"
    span: Optional[tuple] = field(**_SPAN)


@dataclass(frozen=True)
class NChoice:
    """Demonic choice between two producer-typed terms."""

    left: "Term"
    right: "Term"
    span: Optional[tuple] = field(**_SPAN)


@dataclass(frozen=True)
class Produce:
    value: "Term"
    span: Optional[tuple] = field(**_SPAN)


@dataclass(frozen=True)
class To:
    """Sequencing of a producer into a computation body."""

    source: "Term"
    var: str
    var_ty: ValueType
    body: "Term"
    span: Optional[tuple] = field(**_SPAN)


@dataclass(frozen=True)
class Pifz:
    """Parallel zero-test: may commit to the branches' agreement before the
    scrutinee converges."""

    scrut: "Term"
    if_zero: "Term"
    if_nonzero: "Term"
    span: Optional[tuple] = field(**_SPAN)


@dataclass(frozen=True)
class Obs:
    """Statistical termination tester: converges iff the argument's
    termination probability strictly exceeds the bound."""

    bound: Fraction
    arg: "Term"
    span: Optional[tuple] = field(**_SPAN)

    def __post_init__(self):
        b = self.bound
        if not isinstance(b, Fraction) or not (0 < b < 1):
            raise ValueError(f"tester bound must be a rational in (0,1), got {b!r}")


Term = (
    Var | Star | NumLit | Abort | Lambda | App | Rec | Succ | Pred | Thunk |
    Force | Seq | Ifz | Proj1 | Proj2 | Pair | PChoice | Ret | Do | NChoice |
    Produce | To | Pifz | Obs
)

# 10^600: each chunk has fewer digits than the smallest integer string limit
# Python allows (640), so it converts whatever the process's limit is.
_CHUNK = 10 ** 600


def digits(n: int) -> str:
    """str(n) for an integer of any size: past Python's integer string limit
    (sys.get_int_max_str_digits), converted 600 digits at a time.
    sys.set_int_max_str_digits would lift the limit for the whole process."""
    try:
        return str(n)
    except ValueError:
        pass
    if n < 0:
        return "-" + digits(-n)
    chunks = []
    while n >= _CHUNK:
        n, low = divmod(n, _CHUNK)
        chunks.append(f"{low:0600d}")
    chunks.append(str(n))
    return "".join(reversed(chunks))

# Binding structure: for each class, (binder field, fields bound by it).
_BINDERS = {
    Lambda: ("var", ("body",)),
    Rec: ("var", ("body",)),
    Do: ("var", ("body",)),
    To: ("var", ("body",)),
}

_CHILD_FIELDS = {
    Var: (), Star: (), NumLit: (), Abort: (),
    Lambda: ("body",),
    App: ("fn", "arg"),
    Rec: ("body",),
    Succ: ("arg",), Pred: ("arg",),
    Thunk: ("comp",), Force: ("thunk",),
    Seq: ("first", "rest"),
    Ifz: ("scrut", "if_zero", "if_nonzero"),
    Proj1: ("pair",), Proj2: ("pair",),
    Pair: ("fst", "snd"),
    PChoice: ("left", "right"),
    Ret: ("value",),
    Do: ("source", "body"),
    NChoice: ("left", "right"),
    Produce: ("value",),
    To: ("source", "body"),
    Pifz: ("scrut", "if_zero", "if_nonzero"),
    Obs: ("arg",),
}


# Derived facts (free variables, canonical renderings) are computed once per
# compound node and kept in its instance dict. They are not dataclass
# fields, so equality, hashing and repr ignore them, and they live exactly
# as long as the node. Leaves (Var, Star, NumLit, Abort) keep nothing.
_NO_VARS = frozenset()


def free_vars(term: Term) -> frozenset:
    """Names occurring free in the term."""
    if isinstance(term, Var):
        return frozenset((term.name,))
    fields = _CHILD_FIELDS[type(term)]
    if not fields:
        return _NO_VARS
    facts = term.__dict__
    out = facts.get("_fv")
    if out is None:
        binder = _BINDERS.get(type(term))
        out = _NO_VARS
        for f in fields:
            sub = free_vars(getattr(term, f))
            if binder is not None and f in binder[1]:
                sub = sub - {getattr(term, binder[0])}
            out |= sub
        facts["_fv"] = out
    return out


def fresh(base: str, avoid) -> str:
    """Deterministic fresh-name supply: the base itself if unused, else the
    first base<k> not in the avoid set."""
    if base not in avoid:
        return base
    k = 1
    while f"{base}{k}" in avoid:
        k += 1
    return f"{base}{k}"


# Each class's fields other than span, in declaration order.
_FIELDS = {cls: tuple(f for f in cls.__dataclass_fields__ if f != "span")
           for cls in _CHILD_FIELDS}
_new = object.__new__


def rebuild(term: Term, changes: dict, newname: str = None) -> Term:
    """A copy of a compound node with the given child fields replaced and,
    when newname is given, its binder renamed. The copy is filled in
    directly rather than through the dataclass __init__: every field comes
    from a node that was already built and checked, and the copy has no
    span and no kept facts."""
    cls = type(term)
    old = term.__dict__
    node = _new(cls)
    new = node.__dict__
    for f in _FIELDS[cls]:
        new[f] = changes[f] if f in changes else old[f]
    if newname is not None:
        new[_BINDERS[cls][0]] = newname
    new["span"] = None
    return node


def substitute(term: Term, name: str, replacement: Term) -> Term:
    """Capture-avoiding substitution of one term for a free name. Only the
    paths down to the name's occurrences are rebuilt: every subtree in which
    it is not free, and the replacement at each occurrence, is shared."""
    return _subst(term, {name: replacement})


def _subst(term: Term, mapping: dict) -> Term:
    if isinstance(term, Var):
        return mapping.get(term.name, term)
    if mapping.keys().isdisjoint(free_vars(term)):
        return term
    binder = _BINDERS.get(type(term))
    if binder is None:
        changes = {}
        for f in _CHILD_FIELDS[type(term)]:
            changes[f] = _subst(getattr(term, f), mapping)
        return rebuild(term, changes)

    bound_fields = binder[1]
    bname = term.var
    inner = {k: v for k, v in mapping.items() if k != bname and any(
        k in free_vars(getattr(term, f)) for f in bound_fields)}

    changes = {}
    for f in _CHILD_FIELDS[type(term)]:
        if f not in bound_fields:
            changes[f] = _subst(getattr(term, f), mapping)

    if inner:
        clash = set()
        for v in inner.values():
            clash |= free_vars(v)
        if bname in clash:
            # The binder would capture a free name of a replacement: rename it.
            avoid = set(clash) | set(inner)
            for f in bound_fields:
                avoid |= free_vars(getattr(term, f))
            newname = fresh(bname, avoid)
            rename = {bname: Var(newname, term.var_ty)}
            for f in bound_fields:
                changes[f] = _subst(_subst(getattr(term, f), rename), inner)
            return rebuild(term, changes, newname)
        for f in bound_fields:
            changes[f] = _subst(getattr(term, f), inner)
    return rebuild(term, changes)


def alpha_equal(a: Term, b: Term) -> bool:
    """Structural equality up to renaming of bound variables: equal
    canonical keys. Binder and free-variable type annotations must match; a
    bound occurrence is identified by its binder alone."""
    return canon(a) == canon(b)


def canon(term: Term) -> str:
    """Deterministic alpha-invariant rendering, used as a hash key for
    configurations. Bound names are replaced by the level of their binder.
    A compound node keeps its renderings: the one outside every binder, and
    one per binder depth at which it was rendered with none of its free
    names bound by the enclosing render, since such a rendering depends on
    the node and the depth alone. A subterm shared by many terms (an
    unfolded rec, a substituted value) therefore renders once per depth."""
    kept = term.__dict__.get("_canon")
    if kept is not None:
        return kept
    parts = []
    _canon(term, {}, 0, parts)
    return "".join(parts)


def _canon(term: Term, env: dict, depth: int, out: list) -> None:
    if isinstance(term, Var):
        idx = env.get(term.name)
        if idx is None:
            out.append(f"(v!{term.name}:{term.ty})")
        else:
            out.append(f"(v#{idx})")
        return
    if isinstance(term, NumLit):
        out.append(f"(n{term.value})")
        return
    if isinstance(term, Star):
        out.append("(*)")
        return
    if isinstance(term, Abort):
        out.append(f"(ab:{term.cty})")
        return
    facts = term.__dict__
    if not env:
        # Outside every binder the rendering depends on the node alone.
        kept_at, slot = facts, "_canon"
    elif env.keys().isdisjoint(free_vars(term)):
        kept_at = facts.get("_canon_at")
        if kept_at is None:
            kept_at = facts["_canon_at"] = {}
        slot = depth
    else:
        kept_at = None
    if kept_at is not None:
        kept = kept_at.get(slot)
        if kept is not None:
            out.append(kept)
            return
        whole, out = out, []
    out.append("(")
    out.append(type(term).__name__)
    if isinstance(term, Obs):
        out.append(f"[{term.bound}]")
    binder = _BINDERS.get(type(term))
    if binder is not None:
        out.append(f"[:{term.var_ty}]")
        inner = {**env, term.var: depth}
    for f in _CHILD_FIELDS[type(term)]:
        if binder is not None and f in binder[1]:
            _canon(getattr(term, f), inner, depth + 1, out)
        else:
            _canon(getattr(term, f), env, depth, out)
    out.append(")")
    if kept_at is not None:
        kept = kept_at[slot] = "".join(out)
        whole.append(kept)


# ---------------------------------------------------------------------------
# Evaluation contexts
#
# A context is an initial shape plus a stack of frames, innermost frame last.
# A frame is the eliminator node the machine descended from, with * in the
# child it descended into; HOLE_FIELD names that child for each eliminator.
# A frame's key is therefore its canon, kept on the node like any term's.

HOLE_FIELD = {
    App: "fn", To: "source", Force: "thunk", Succ: "arg", Pred: "arg",
    Ifz: "scrut", Seq: "first", Proj1: "pair", Proj2: "pair", Do: "source",
}

HOLE = "hole"
PRODUCE_HOLE = "produce"
PRODUCE_RET_HOLE = "produce-ret"


class EvalContext:
    """Initial shape plus frames, innermost last. Plugged, a well-typed
    configuration has type F V unit.

    Contexts are persistent: push returns a new context whose top is the
    frame and whose below is this one, so contexts share every frame
    below their top, and frames reads them back as a tuple. key_prefix is
    the context's part of a configuration key, (initial, *frame canons);
    an empty context has it from the start, and the engine fills it in for
    a context the first time it keys a configuration there (see
    opsem.Configuration.key). Equality, hashing and repr are over
    (initial, frames)."""

    __slots__ = ("initial", "below", "top", "key_prefix")

    def __init__(self, initial: str = HOLE, frames: tuple = ()):
        below = None
        if frames:
            below = EvalContext(initial)
            for frame in frames[:-1]:
                below = below.push(frame)
        self.initial = initial
        self.below = below
        self.top = frames[-1] if frames else None
        self.key_prefix = None if frames else (initial,)

    def push(self, frame: Term) -> "EvalContext":
        ctx = _new(EvalContext)
        ctx.initial = self.initial
        ctx.below = self
        ctx.top = frame
        ctx.key_prefix = None
        return ctx

    @property
    def frames(self) -> tuple:
        out = []
        ctx = self
        while ctx.below is not None:
            out.append(ctx.top)
            ctx = ctx.below
        out.reverse()
        return tuple(out)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, EvalContext):
            return NotImplemented
        return self.initial == other.initial and self.frames == other.frames

    def __hash__(self):
        return hash((self.initial, self.frames))

    def __repr__(self):
        return f"EvalContext(initial={self.initial!r}, frames={self.frames!r})"


EMPTY_CTX = EvalContext(HOLE, ())


def plug(ctx: EvalContext, term: Term) -> Term:
    """Fill each frame's hole with the term built so far (innermost first),
    then wrap the result in the initial shape."""
    for frame in reversed(ctx.frames):
        term = rebuild(frame, {HOLE_FIELD[type(frame)]: term})
    if ctx.initial == HOLE:
        return term
    if ctx.initial == PRODUCE_HOLE:
        return Produce(term)
    if ctx.initial == PRODUCE_RET_HOLE:
        return Produce(Ret(term))
    raise ValueError(f"unknown initial context shape {ctx.initial!r}")


def canon_frame(frame: Term) -> str:
    """A frame's key: its canon, which the node keeps, so a frame shared by
    every configuration pushed above it renders once."""
    return canon(frame)


# ---------------------------------------------------------------------------
# Derived forms
#
# All expand eagerly to core terms. Expansions that need a type use the
# explicit annotation supplied at the use site.


def omega(ty: Type) -> Term:
    """The canonical diverging term at any type."""
    if is_value_type(ty):
        v = "x"
        return Rec(v, ty, Var(v, ty))
    if is_comp_type(ty):
        return Force(omega(ThunkT(ty)))
    raise TypeError(f"not a type: {ty!r}")


FUNIT = ProducerT(UNIT)


def eq0_then(probe: Term, rest: Term, rest_ty: CompType = None) -> Term:
    """Run an int producer; continue iff it produced 0, else hang. rest_ty
    names the continuation's type so the hang branch can match it; it
    defaults to the tester-argument type F V unit."""
    rest_ty = rest_ty if rest_ty is not None else FVUNIT
    x = fresh("x", free_vars(rest))
    return To(probe, x, INT, Ifz(Var(x, INT), rest, omega(rest_ty)))


def eq1_then(probe: Term, rest: Term, rest_ty: CompType = None) -> Term:
    """Run an int producer; continue iff it produced 1, else hang."""
    rest_ty = rest_ty if rest_ty is not None else FVUNIT
    x = fresh("x", free_vars(rest))
    return To(probe, x, INT, Ifz(Pred(Var(x, INT)), rest, omega(rest_ty)))


def and_then(first: Term, rest: Term) -> Term:
    """Run a unit producer for its convergence behavior, discard the result,
    then run the rest."""
    x = fresh("x", free_vars(rest))
    return To(first, x, UNIT, rest)


def pred_n(term: Term, n: int) -> Term:
    for _ in range(n):
        term = Pred(term)
    return term


def pif_le(n: int, scrut: Term, if_le: Term, if_gt: Term) -> Term:
    """Parallel threshold test: first branch when the scrutinee is at most
    n, second when it exceeds n. Subtraction is truncated, so zero cannot
    be told apart from values below the threshold."""
    if n < 0:
        raise ValueError("pif threshold must be a natural number")
    return Pifz(pred_n(scrut, n), if_le, if_gt)


def pswitch(scrut: Term, branches, res_cty: CompType) -> Term:
    """Parallel dispatch on the literals 1..n: thresholds are tested low to
    high, so branch i runs for scrutinee i, and anything above n falls
    through to abort. Scrutinee 0 is conflated with 1 by the truncated
    test; dispatch sources are expected to emit tags from 1 up. Zero
    branches expand to abort alone."""
    acc: Term = Abort(res_cty)
    for i, branch in reversed(list(enumerate(branches, start=1))):
        acc = pif_le(i, scrut, branch, acc)
    return acc


def por(left: Term, right: Term) -> Term:
    """Parallel disjunction of two unit-typed terms."""
    probe = Pifz(Seq(left, NumLit(0)), Produce(Ret(Star())), Produce(Ret(right)))
    return Obs(Fraction(1, 2), probe)


def case_tag(guard: Term, tag: int) -> Term:
    """Produce the tag iff the unit-typed guard hangs; fail if it converges."""
    return Pifz(Seq(guard, NumLit(0)), Abort(ProducerT(INT)), Produce(NumLit(tag)))


def pcase(branches, res_cty: CompType) -> Term:
    """Demonic parallel case: run the branch of every guard that hangs.
    Takes (guard, body) pairs, at least one."""
    branches = list(branches)
    if not branches:
        raise ValueError("pcase needs at least one branch")
    chain: Term = case_tag(branches[0][0], 1)
    for i, (guard, _) in enumerate(branches[1:], start=2):
        chain = NChoice(chain, case_tag(guard, i))
    y = "y"
    avoid = set()
    for _, body in branches:
        avoid |= free_vars(body)
    y = fresh(y, avoid)
    return To(chain, y, INT, pswitch(Var(y, INT), [b for _, b in branches], res_cty))


def psum(terms) -> Term:
    """Uniform probabilistic choice over exactly 2**n terms, splitting the
    list in half recursively."""
    terms = list(terms)
    n = len(terms)
    if n == 0 or (n & (n - 1)) != 0:
        raise ValueError("uniform sum needs a power-of-two term count")
    if n == 1:
        return terms[0]
    return PChoice(psum(terms[: n // 2]), psum(terms[n // 2:]))

