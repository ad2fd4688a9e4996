"""Abstract syntax for a call-by-push-value calculus with probabilistic
choice, demonic choice, parallel-if, and statistical termination testers.

Value types classify data, computation types classify machine behavior.
Every binder carries a type annotation, so type synthesis never infers.
An evaluation context is a stack of frames rooted at one of three initial
shapes; a frame is an eliminator node, standing for that node with * in its
hole. All numeric payloads are arbitrary-precision ints or Fractions.

Every node of a checked core carries a small integer id for its
alpha-equivalence class in an IdTable that the core owns (see IdTable).
"""

from __future__ import annotations

import weakref
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


def type_text(ty: Type) -> str:
    """str(ty), kept on the type object. A type's text names it uniquely,
    and a string caches its hash, so keys hold the text instead of the type,
    whose generated __hash__ recurses in Python."""
    facts = ty.__dict__
    text = facts.get("_text")
    if text is None:
        text = facts["_text"] = str(ty)
    return text


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


# ---------------------------------------------------------------------------
# Alpha-class ids
#
# Terms are hash-consed by alpha-equivalence class (Filliatre and Conchon,
# "Type-safe modular hash-consing", 2006) over de Bruijn indices (Chargueraud,
# "The locally nameless representation", 2012). A compound node's key is its
# class, its binder's annotation or its tester's bound, and its children's
# ids. A bound variable needs no key: its id is -1 - its de Bruijn index, the
# same in every table. A free variable's key is its name and type, a
# numeral's its value. A compound node keeps its table as _ids, its key as
# _key and its id as _cid, outside the dataclass fields, so equality,
# hashing and repr ignore them. Other leaves keep nothing, since the
# elaborator shares them between cores, except the new abort node each
# abort elaborates to.
#
# A node in which a variable bound above it occurs has an id relative to the
# binders above it in the tree it was built in. The elaborator gives every
# node of a core its id as it builds the node, and rebuild gives a copy the
# original's key with the changed children's ids in place. A substitution
# that inserts closed terms, as every step of the machine does, moves no
# index, so its result's ids come from its children's in O(arity). A node
# built any other way (by hand, or by a substitution of an open term) has no
# id until class_id walks it.

HOLE = "hole"
PRODUCE_HOLE = "produce"
PRODUCE_RET_HOLE = "produce-ret"

# Keys every table holds from the start, at ids 0 to 3: the three initial
# context shapes and the star.
SHAPE_IDS = {HOLE: 0, PRODUCE_HOLE: 1, PRODUCE_RET_HOLE: 2}
STAR_ID = 3
_PRESET = {**{(shape,): i for shape, i in SHAPE_IDS.items()}, (Star,): STAR_ID}


class IdTable:
    """One small integer per alpha-equivalence class of the terms and
    contexts keyed in it, in the order they were first keyed. A checked
    core owns its table: each node of the core holds it, so the table lives
    exactly as long as some node of the core, or some key made in it, and
    ids from two tables are never compared."""

    __slots__ = ("index", "__weakref__")

    def __init__(self):
        self.index = dict(_PRESET)

    def __len__(self):
        return len(self.index)

    def intern(self, key: tuple) -> int:
        index = self.index
        return index.setdefault(key, len(index))


# Position of each child's id in its parent's key: after the class, and
# after the annotation of a binder or the two ints of a tester's bound.
_KEY_AT = {cls: {f: k + (2 if cls in _BINDERS else 3 if cls is Obs else 1)
                 for k, f in enumerate(fields)}
           for cls, fields in _CHILD_FIELDS.items()}


def _child_id(ids: IdTable, child: Term) -> Optional[int]:
    """A child's id in ids when no walk is needed to find it: a node that
    has one there, or a leaf other than a variable."""
    facts = child.__dict__
    if facts.get("_ids") is ids:
        return facts["_cid"]
    cls = type(child)
    if cls is Star:
        return STAR_ID
    if cls is NumLit:
        return ids.intern((NumLit, child.value))
    if cls is Abort:
        return ids.intern((Abort, type_text(child.cty)))
    return None


def rebuild(term: Term, changes: dict, newname: str = None,
            keep_ids: bool = True) -> Term:
    """A copy of a compound node with the given child fields replaced and,
    when newname is given, its binder renamed. The copy is filled in
    directly rather than through the dataclass __init__: every field comes
    from a node that was already built and checked, and the copy has no
    span and no kept facts but its id. That id is the original's key with
    each changed child's id in place, when the original has an id, every
    changed child's is known without a walk (_child_id), and keep_ids
    holds."""
    cls = type(term)
    old = term.__dict__
    node = _new(cls)
    new = node.__dict__
    for f in _FIELDS[cls]:
        new[f] = changes[f] if f in changes else old[f]
    if newname is not None:
        new[_BINDERS[cls][0]] = newname
    new["span"] = None
    ids = old.get("_ids")
    if ids is not None and keep_ids:
        key = list(old["_key"])
        at = _KEY_AT[cls]
        for f, child in changes.items():
            facts = child.__dict__
            if facts.get("_ids") is ids:
                key[at[f]] = facts["_cid"]
            elif child is not old[f]:
                i = _child_id(ids, child)
                if i is None:
                    return node
                key[at[f]] = i
        key = tuple(key)
        index = ids.index
        new["_ids"] = ids
        new["_key"] = key
        new["_cid"] = index.setdefault(key, len(index))
    return node


def substitute(term: Term, name: str, replacement: Term) -> Term:
    """Capture-avoiding substitution of one term for a free name. Only the
    paths down to the name's occurrences are rebuilt: every subtree in which
    it is not free, and the replacement at each occurrence, is shared. When
    the replacement is closed, nothing can capture it, and the rebuilt nodes
    take ids (see rebuild), since a closed term moves no index."""
    return _subst(term, {name: replacement}, not free_vars(replacement))


def instantiate(binder: Term, value: Term) -> Term:
    """The body of a binder node with a closed value for its bound name:
    substitute(binder.body, binder.var, value) without the walk that finds
    the value closed. The machine's rec, beta, to-produce and do-ret rules
    insert only closed values, since every configuration plugs to a closed
    term and no frame sits under a binder."""
    return _subst(binder.body, {binder.var: value}, True)


def _subst(term: Term, mapping: dict, closed: bool) -> Term:
    if isinstance(term, Var):
        return mapping.get(term.name, term)
    if mapping.keys().isdisjoint(free_vars(term)):
        return term
    binder = _BINDERS.get(type(term))
    if binder is None:
        changes = {}
        for f in _CHILD_FIELDS[type(term)]:
            changes[f] = _subst(getattr(term, f), mapping, closed)
        return rebuild(term, changes, None, closed)

    bound_fields = binder[1]
    bname = term.var
    inner = {k: v for k, v in mapping.items() if k != bname and any(
        k in free_vars(getattr(term, f)) for f in bound_fields)}

    changes = {}
    for f in _CHILD_FIELDS[type(term)]:
        if f not in bound_fields:
            changes[f] = _subst(getattr(term, f), mapping, closed)

    if inner and not closed:
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
                changes[f] = _subst(_subst(getattr(term, f), rename, False),
                                    inner, False)
            return rebuild(term, changes, newname, False)
    if inner:
        for f in bound_fields:
            changes[f] = _subst(getattr(term, f), inner, closed)
    return rebuild(term, changes, None, closed)


def class_id(ids: IdTable, term: Term) -> int:
    """The id in ids of a closed term's class. A node that has an id there
    keeps it; any other is walked (_walk)."""
    facts = term.__dict__
    if facts.get("_ids") is ids:
        return facts["_cid"]
    return _walk(ids, term, {}, 0, False)[0]


def _walk(ids: IdTable, term: Term, env: dict, depth: int,
          restamp: bool) -> tuple:
    """(id, free) of a term at binder depth depth, where env maps the names
    bound above it by the walk to their binders' depths (a name mapped to
    None, like one not in env, is free and keyed by its name), and free
    tells whether a name free at the walk's root occurs in it. A node with
    an id in ids is taken at its word when it is closed, and outside every
    binder of the walk when env is empty, where a closed root has only
    closed nodes. A node met without an id keeps the one found, when no
    name free at the root occurs in it; with restamp, every node met keeps
    the id found, in place of any it had."""
    cls = type(term)
    if cls is Var:
        level = env.get(term.name)
        if level is None:
            return ids.intern((Var, term.name, type_text(term.ty))), True
        return level - depth, False
    fields = _CHILD_FIELDS[cls]
    if not fields:
        return _child_id(ids, term), False
    facts = term.__dict__
    if not restamp and facts.get("_ids") is ids and (
            not env or not free_vars(term)):
        return facts["_cid"], False
    key = [cls]
    binder = _BINDERS.get(cls)
    if binder is not None:
        key.append(type_text(term.var_ty))
        inner = {**env, term.var: depth}
    elif cls is Obs:
        key += (term.bound.numerator, term.bound.denominator)
    free = False
    for f in fields:
        if binder is not None and f in binder[1]:
            i, sub = _walk(ids, facts[f], inner, depth + 1, restamp)
        else:
            i, sub = _walk(ids, facts[f], env, depth, restamp)
        key.append(i)
        free = free or sub
    key = tuple(key)
    i = ids.intern(key)
    if restamp or not (free or "_ids" in facts):
        facts["_ids"] = ids
        facts["_key"] = key
        facts["_cid"] = i
    return i, free


def open_id(ids: IdTable, term: Term) -> int:
    """The id in ids of a term's class with its free names keyed by name
    and type, as canon renders them. Unlike a node's _cid, which counts the
    binders between a free name's occurrence and its binder above the term,
    it does not depend on where the term sits. A node of ids keeps it as
    _oid."""
    facts = term.__dict__
    mine = facts.get("_ids") is ids
    if mine:
        i = facts.get("_oid")
        if i is not None:
            return i
    # The free names map to no binder depth, so the walk keys them by name,
    # and it takes a node's id at its word only where the node is closed.
    i = _walk(ids, term, dict.fromkeys(free_vars(term)), 0, False)[0]
    if mine:
        facts["_oid"] = i
    return i


_loose = None


def loose_table() -> IdTable:
    """The table in which terms that belong to no core are keyed. The module
    holds it weakly: it lives while some node or key made in it does."""
    global _loose
    ids = _loose() if _loose is not None else None
    if ids is None:
        ids = IdTable()
        _loose = weakref.ref(ids)
    return ids


def alpha_equal(a: Term, b: Term) -> bool:
    """Structural equality up to renaming of bound variables: equal
    canonical renderings. Binder and free-variable type annotations must
    match; a bound occurrence is identified by its binder alone."""
    return canon(a) == canon(b)


def canon(term: Term) -> str:
    """Deterministic alpha-invariant rendering. Bound names are replaced by
    the level of their binder. It orders the entries of semantic values
    (densem.skey renders a closure's body with it) and feeds the parser's
    digest; configurations, and the closures an evaluation of a core
    builds, are keyed by ids instead. A compound node keeps its rendering
    outside every binder."""
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
            out.append(f"(v!{term.name}:{type_text(term.ty)})")
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
        out.append(f"(ab:{type_text(term.cty)})")
        return
    facts = term.__dict__
    if not env:
        # Outside every binder the rendering depends on the node alone.
        kept = facts.get("_canon")
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
        out.append(f"[:{type_text(term.var_ty)}]")
        inner = {**env, term.var: depth}
    for f in _CHILD_FIELDS[type(term)]:
        if binder is not None and f in binder[1]:
            _canon(getattr(term, f), inner, depth + 1, out)
        else:
            _canon(getattr(term, f), env, depth, out)
    out.append(")")
    if not env:
        kept = facts["_canon"] = "".join(out)
        whole.append(kept)


# ---------------------------------------------------------------------------
# Evaluation contexts
#
# A context is an initial shape plus a stack of frames, innermost frame last.
# A frame is the eliminator node the machine descended from, the node itself:
# HOLE_FIELD names the child it descended into, the hole, and every reader of
# a frame ignores what that child holds. A frame stands for the node with *
# in its hole, so its id is the node's own key with STAR_ID at the hole, kept
# on the node, and discovery copies nothing.

HOLE_FIELD = {
    App: "fn", To: "source", Force: "thunk", Succ: "arg", Pred: "arg",
    Ifz: "scrut", Seq: "first", Proj1: "pair", Proj2: "pair", Do: "source",
}


def starred(frame: Term) -> Term:
    """The frame as it stands for: a copy with * in its hole, and no id."""
    return rebuild(frame, {HOLE_FIELD[type(frame)]: Star()}, None, False)


def frame_id(ids: IdTable, frame: Term) -> int:
    """The id in ids of the frame with * in its hole. A node of ids reads it
    off its own key, with STAR_ID at the hole, and keeps it as _fid; a node
    whose hole holds * is keyed as itself, like the ifz frame of a pifz
    split; any other frame is keyed through a starred copy."""
    facts = frame.__dict__
    if facts.get("_ids") is ids:
        i = facts.get("_fid")
        if i is None:
            cls = type(frame)
            key = list(facts["_key"])
            key[_KEY_AT[cls][HOLE_FIELD[cls]]] = STAR_ID
            i = facts["_fid"] = ids.intern(tuple(key))
        return i
    if type(facts[HOLE_FIELD[type(frame)]]) is Star:
        return class_id(ids, frame)
    return class_id(ids, starred(frame))


class EvalContext:
    """Initial shape plus frames, innermost last. Plugged, a well-typed
    configuration has type F V unit.

    Contexts are persistent: push returns a new context whose top is the
    frame and whose below is this one, so contexts share every frame
    below their top, and frames reads them back as a tuple. cid is the
    context's id in the table ids: an empty context has its shape's id in
    every table from the start, and context_id interns any other from (id
    below, frame id) the first time it is keyed in a table. Equality,
    hashing and repr are over (initial, frames with * in their holes)."""

    __slots__ = ("initial", "below", "top", "ids", "cid")

    def __init__(self, initial: str = HOLE, frames: tuple = ()):
        below = None
        if frames:
            below = EvalContext(initial)
            for frame in frames[:-1]:
                below = below.push(frame)
        self.initial = initial
        self.below = below
        self.top = frames[-1] if frames else None
        self.ids = None
        self.cid = None if frames else SHAPE_IDS.get(initial)

    def push(self, frame: Term) -> "EvalContext":
        ctx = _new(EvalContext)
        ctx.initial = self.initial
        ctx.below = self
        ctx.top = frame
        ctx.ids = ctx.cid = None
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

    def _starred(self) -> tuple:
        return tuple(map(starred, self.frames))

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, EvalContext):
            return NotImplemented
        return self.initial == other.initial and \
            self._starred() == other._starred()

    def __hash__(self):
        return hash((self.initial, self._starred()))

    def __repr__(self):
        return (f"EvalContext(initial={self.initial!r}, "
                f"frames={self._starred()!r})")


EMPTY_CTX = EvalContext(HOLE, ())


def context_id(ids: IdTable, ctx: EvalContext) -> int:
    """The context's id in ids, interned frame by frame, bottom first, from
    the nearest context below that has its id there. Each context on the
    way keeps its id, so a context thousands of frames deep is walked in a
    loop, once."""
    pending = []
    while ctx.ids is not ids and ctx.below is not None:
        pending.append(ctx)
        ctx = ctx.below
    i = ctx.cid
    if i is None:  # an empty context of a shape outside the three
        i = ids.intern((ctx.initial,))
    for c in reversed(pending):
        i = ids.intern((i, frame_id(ids, c.top)))
        c.ids = ids
        c.cid = i
    return i


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
    """A frame's rendering: canon of the frame with * in its hole."""
    return canon(starred(frame))


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

