"""Abstract syntax for a call-by-push-value calculus with probabilistic
choice, demonic choice, parallel-if, and statistical termination testers.

Value types classify data, computation types classify machine behavior.
Every binder carries a type annotation, so type synthesis never infers.
An evaluation context is a stack of frames rooted at one of three initial
shapes; a frame is an eliminator node, standing for that node with * in its
hole. All numeric payloads are arbitrary-precision ints or Fractions.

Types are hash-consed, one object per type, and compared by identity. Terms
are plain dataclasses, hashed and compared by their fields. No code
reassigns a field once a node is built: facts derived from a node, such as
its free names or its alpha-class id, are kept in its instance dict outside
the fields. Every node of a checked core carries a small integer id for its
alpha-equivalence class in an IdTable that the core owns (see IdTable).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

# ---------------------------------------------------------------------------
# Types

# One table for the process, since a type must be one object wherever it is
# built. It keeps every type made; programs build few. A caller that builds
# many types it has mostly seen (the elaborator) may read one off the table
# under the key _Type.__new__ files it by, (class, *parts), and call the
# constructor only on a miss: the table then holds nothing the constructor
# did not build.
_TYPES = {}


class _Type:
    """A type, hash-consed (Filliatre and Conchon, 2006): the constructor
    returns the one object for (class, *parts), so == and hash are identity
    and a key can hold the type itself. Each class names its parts in
    _parts and spells its text in _format; a type keeps its text, built
    once from its parts' texts."""

    _parts = ()

    def __new__(cls, *parts):
        key = (cls, *parts)
        ty = _TYPES.get(key)
        if ty is None:
            ty = object.__new__(cls)
            ty.__dict__.update(zip(cls._parts, parts, strict=True))
            ty.text = cls._format.format(*parts)
            ty = _TYPES.setdefault(key, ty)
        return ty

    def __str__(self) -> str:
        return self.text

    def __repr__(self) -> str:
        parts = ", ".join(f"{name}={getattr(self, name)!r}"
                          for name in self._parts)
        return f"{type(self).__name__}({parts})"


class UnitT(_Type):
    _format = "unit"


class IntT(_Type):
    _format = "int"


class ProdT(_Type):
    _parts = ("fst", "snd")
    _format = "({} * {})"


class DistT(_Type):
    """Subprobability distributions over values of the element type."""

    _parts = ("elem",)
    _format = "V {}"


class ThunkT(_Type):
    """Suspended computations, embedded as values."""

    _parts = ("comp",)
    _format = "U {}"


class ProducerT(_Type):
    """Computations that set out to produce a value of the element type."""

    _parts = ("elem",)
    _format = "F {}"


class ArrowT(_Type):
    _parts = ("arg", "res")
    _format = "({} -> {})"


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


@dataclass(unsafe_hash=True)
class Var:
    name: str
    span: Optional[tuple] = field(**_SPAN)


@dataclass(unsafe_hash=True)
class Star:
    span: Optional[tuple] = field(**_SPAN)


@dataclass(unsafe_hash=True)
class NumLit:
    value: int
    span: Optional[tuple] = field(**_SPAN)


@dataclass(unsafe_hash=True)
class Abort:
    """The demonically empty computation, at any computation type."""

    cty: CompType
    span: Optional[tuple] = field(**_SPAN)


@dataclass(unsafe_hash=True)
class Lambda:
    var: str
    var_ty: ValueType
    body: "Term"
    span: Optional[tuple] = field(**_SPAN)


@dataclass(unsafe_hash=True)
class App:
    fn: "Term"
    arg: "Term"
    span: Optional[tuple] = field(**_SPAN)


@dataclass(unsafe_hash=True)
class Rec:
    """Recursive definition at a value type."""

    var: str
    var_ty: ValueType
    body: "Term"
    span: Optional[tuple] = field(**_SPAN)


@dataclass(unsafe_hash=True)
class Succ:
    arg: "Term"
    span: Optional[tuple] = field(**_SPAN)


@dataclass(unsafe_hash=True)
class Pred:
    arg: "Term"
    span: Optional[tuple] = field(**_SPAN)


@dataclass(unsafe_hash=True)
class Thunk:
    comp: "Term"
    span: Optional[tuple] = field(**_SPAN)


@dataclass(unsafe_hash=True)
class Force:
    thunk: "Term"
    span: Optional[tuple] = field(**_SPAN)


@dataclass(unsafe_hash=True)
class Seq:
    first: "Term"
    rest: "Term"
    span: Optional[tuple] = field(**_SPAN)


@dataclass(unsafe_hash=True)
class Ifz:
    scrut: "Term"
    if_zero: "Term"
    if_nonzero: "Term"
    span: Optional[tuple] = field(**_SPAN)


@dataclass(unsafe_hash=True)
class Proj1:
    pair: "Term"
    span: Optional[tuple] = field(**_SPAN)


@dataclass(unsafe_hash=True)
class Proj2:
    pair: "Term"
    span: Optional[tuple] = field(**_SPAN)


@dataclass(unsafe_hash=True)
class Pair:
    fst: "Term"
    snd: "Term"
    span: Optional[tuple] = field(**_SPAN)


@dataclass(unsafe_hash=True)
class PChoice:
    """Fair probabilistic choice between two distribution-typed terms."""

    left: "Term"
    right: "Term"
    span: Optional[tuple] = field(**_SPAN)


@dataclass(unsafe_hash=True)
class Ret:
    value: "Term"
    span: Optional[tuple] = field(**_SPAN)


@dataclass(unsafe_hash=True)
class Do:
    """Monadic bind for the distribution layer."""

    var: str
    var_ty: ValueType
    source: "Term"
    body: "Term"
    span: Optional[tuple] = field(**_SPAN)


@dataclass(unsafe_hash=True)
class NChoice:
    """Demonic choice between two producer-typed terms."""

    left: "Term"
    right: "Term"
    span: Optional[tuple] = field(**_SPAN)


@dataclass(unsafe_hash=True)
class Produce:
    value: "Term"
    span: Optional[tuple] = field(**_SPAN)


@dataclass(unsafe_hash=True)
class To:
    """Sequencing of a producer into a computation body."""

    source: "Term"
    var: str
    var_ty: ValueType
    body: "Term"
    span: Optional[tuple] = field(**_SPAN)


@dataclass(unsafe_hash=True)
class Pifz:
    """Parallel zero-test: may commit to the branches' agreement before the
    scrutinee converges."""

    scrut: "Term"
    if_zero: "Term"
    if_nonzero: "Term"
    span: Optional[tuple] = field(**_SPAN)


@dataclass(unsafe_hash=True)
class Obs:
    """Statistical termination tester: converges iff the argument's
    termination probability strictly exceeds the bound."""

    bound: Fraction
    arg: "Term"
    span: Optional[tuple] = field(**_SPAN)

    def __post_init__(self):
        b = self.bound
        if not isinstance(b, Fraction) or not (0 < b < 1):
            got = fraction_text(b) if isinstance(b, Fraction) else repr(b)
            raise ValueError(f"tester bound must be a rational in (0,1), got {got}")


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


def fraction_text(x: Fraction) -> str:
    """str(x) for a rational of any size: numerator and denominator
    through digits."""
    if x.denominator == 1:
        return digits(x.numerator)
    return f"{digits(x.numerator)}/{digits(x.denominator)}"


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

# Binding structure: a binder binds its var in its body and nowhere else, and
# no other class has a body.
_BINDERS = frozenset((Lambda, Rec, Do, To))
assert _BINDERS == {cls for cls, fields in _CHILD_FIELDS.items()
                    if "body" in fields}


# A compound node's free names are computed once and kept in its instance
# dict. They are not a dataclass field, so equality, hashing and repr ignore
# them, and they live exactly as long as the node. Leaves (Var, Star,
# NumLit, Abort) keep nothing. A node's set is built from its children's
# without a set per variable child, and is a child's own set when that one
# already holds every name.
_NO_VARS = frozenset()


def free_vars(term: Term) -> frozenset:
    """Names occurring free in the term."""
    cls = type(term)
    if cls is Var:
        return frozenset((term.name,))
    fields = _CHILD_FIELDS[cls]
    if not fields:
        return _NO_VARS
    facts = term.__dict__
    out = facts.get("_fv")
    if out is None:
        out = _NO_VARS
        for f in fields:
            child = facts[f]
            if type(child) is Var:
                name = child.name
                if name not in out and (f != "body" or name != term.var):
                    out = out.union((name,))
                continue
            sub = free_vars(child)
            if f == "body" and term.var in sub:
                sub = sub.difference((term.var,))
            if not sub <= out:
                out = sub if out <= sub else out | sub
        facts["_fv"] = out
    return out


def occurs(name: str, term: Term) -> bool:
    """Whether name occurs free in the term: free_vars without the set a
    variable leaf would build."""
    if type(term) is Var:
        return term.name == name
    return name in free_vars(term)


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
# same in every table. A free variable's key is its name, a numeral's its
# value. A compound node keeps its table as _ids, its key as _key and its id
# as _cid, outside the dataclass fields, so equality, hashing and repr
# ignore them. Other leaves keep nothing, since a core holds its input's own
# Var, Star and NumLit objects, which other cores may share; the one leaf a
# core builds anew is the abort node each abort elaborates to.
#
# A node in which a variable bound above it occurs has an id relative to the
# binders above it in the tree it was built in. The elaborator gives every
# node of a core its id as it builds the node, and rebuild gives a copy the
# original's key with the changed children's ids in place. Substitution
# inserts only closed values, which move no index, so its result's ids come
# from its children's in O(arity). A node built any other way (by hand) has
# no id: class_id and open_id walk it each time they are asked, and leave it
# as it was. There is no table for terms outside a core: each run of the
# machine keys its configurations in one table, its root's (see opsem).

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
        return ids.intern((Abort, child.cty))
    return None


def rebuild(term: Term, changes: dict) -> Term:
    """A copy of a compound node with the given child fields replaced. The
    copy is filled in directly rather than through the dataclass __init__,
    the only node built that way, since every field comes from a node that
    was already built and checked; it has no span and no kept facts but its
    id. That id is the original's key with each changed child's id in
    place, when the original has an id and every changed child's is known
    without a walk (_child_id)."""
    cls = type(term)
    old = term.__dict__
    node = _new(cls)
    new = node.__dict__
    for f in _FIELDS[cls]:
        new[f] = changes[f] if f in changes else old[f]
    new["span"] = None
    ids = old.get("_ids")
    if ids is not None:
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


def substitute(term: Term, name: str, value: Term) -> Term:
    """Substitution of a closed value for a free name. Only the paths down
    to the name's occurrences are rebuilt: every subtree in which it is not
    free, and the value at each occurrence, is shared. Nothing can capture
    a closed value, and it moves no index, so the rebuilt nodes take ids
    (see rebuild). A value with a free name raises ValueError."""
    free = free_vars(value)
    if free:
        raise ValueError("substitute takes a closed value; this one has "
                         f"free names {sorted(free)}")
    return _subst(term, name, value)


def instantiate(binder: Term, value: Term) -> Term:
    """The body of a binder node with a closed value for its bound name:
    substitute(binder.body, binder.var, value) without the walk that finds
    the value closed. The machine's rec, beta, to-produce and do-ret rules
    insert only closed values, since every configuration plugs to a closed
    term and no frame sits under a binder."""
    return _subst(binder.body, binder.var, value)


def _subst(term: Term, name: str, value: Term) -> Term:
    if isinstance(term, Var):
        return value if term.name == name else term
    if name not in free_vars(term):
        return term
    changes = {}
    for f in _CHILD_FIELDS[type(term)]:
        # A binder of the name shadows it in its body.
        if f != "body" or term.var != name:
            changes[f] = _subst(getattr(term, f), name, value)
    return rebuild(term, changes)


def class_id(ids: IdTable, term: Term) -> int:
    """The id in ids of a closed term's class. A node that has an id there
    reads it; any other is walked (_walk)."""
    facts = term.__dict__
    if facts.get("_ids") is ids:
        return facts["_cid"]
    return _walk(ids, term, {}, 0)


def _walk(ids: IdTable, term: Term, env: dict, depth: int) -> int:
    """The id of a term at binder depth depth, where env maps the names
    bound above it by the walk to their binders' depths (a name mapped to
    None, like one not in env, is free and keyed by its name). A node with
    an id in ids is taken at its word when it is closed, and outside every
    binder of the walk when env is empty, where a closed root has only
    closed nodes. The walk keeps nothing on the nodes it meets."""
    cls = type(term)
    if cls is Var:
        level = env.get(term.name)
        if level is None:
            return ids.intern((Var, term.name))
        return level - depth
    fields = _CHILD_FIELDS[cls]
    if not fields:
        return _child_id(ids, term)
    facts = term.__dict__
    if facts.get("_ids") is ids and (not env or not free_vars(term)):
        return facts["_cid"]
    key = [cls]
    if cls in _BINDERS:
        key.append(term.var_ty)
    elif cls is Obs:
        key += (term.bound.numerator, term.bound.denominator)
    for f in fields:
        if f == "body":
            key.append(_walk(ids, facts[f], {**env, term.var: depth},
                             depth + 1))
        else:
            key.append(_walk(ids, facts[f], env, depth))
    return ids.intern(tuple(key))


def open_id(ids: IdTable, term: Term) -> int:
    """The id in ids of a term's class with its free names keyed by name,
    as canon renders them. Unlike a node's _cid, which counts the binders
    between a free name's occurrence and its binder above the term, it does
    not depend on where the term sits. A node of ids keeps it as _oid."""
    facts = term.__dict__
    mine = facts.get("_ids") is ids
    if mine:
        i = facts.get("_oid")
        if i is not None:
            return i
    # The free names map to no binder depth, so the walk keys them by name,
    # and it takes a node's id at its word only where the node is closed.
    i = _walk(ids, term, dict.fromkeys(free_vars(term)), 0)
    if mine:
        facts["_oid"] = i
    return i


def alpha_equal(a: Term, b: Term) -> bool:
    """Structural equality up to renaming of bound variables: equal
    canonical renderings. Binder annotations must match; a bound occurrence
    is identified by its binder alone, and a free one by its name."""
    return canon(a) == canon(b)


def canon(term: Term) -> str:
    """Deterministic alpha-invariant rendering. Bound names are replaced by
    the level of their binder, and a free name is rendered by its name
    alone. It orders the entries of semantic values (densem.skey renders a
    closure's body with it) and feeds the parser's digest; configurations,
    and the closures an evaluation of a core builds, are keyed by ids
    instead. It keeps nothing on the nodes."""
    parts = []
    _canon(term, {}, 0, parts)
    return "".join(parts)


def _canon(term: Term, env: dict, depth: int, out: list) -> None:
    if isinstance(term, Var):
        idx = env.get(term.name)
        if idx is None:
            out.append(f"(v!{term.name})")
        else:
            out.append(f"(v#{idx})")
        return
    if isinstance(term, NumLit):
        out.append(f"(n{digits(term.value)})")
        return
    if isinstance(term, Star):
        out.append("(*)")
        return
    if isinstance(term, Abort):
        out.append(f"(ab:{term.cty.text})")
        return
    out.append("(")
    out.append(type(term).__name__)
    if isinstance(term, Obs):
        out.append(f"[{fraction_text(term.bound)}]")
    if type(term) in _BINDERS:
        out.append(f"[:{term.var_ty.text}]")
    for f in _CHILD_FIELDS[type(term)]:
        if f == "body":
            _canon(term.body, {**env, term.var: depth}, depth + 1, out)
        else:
            _canon(getattr(term, f), env, depth, out)
    out.append(")")


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
    """The frame as it stands for: a copy with * in its hole."""
    return rebuild(frame, {HOLE_FIELD[type(frame)]: Star()})


def frame_id(ids: IdTable, frame: Term) -> int:
    """The id in ids of the frame with * in its hole. A node of ids reads it
    off its own key, with STAR_ID at the hole, and keeps it as _fid; any
    other frame, like the ifz frame of a pifz split, is keyed through a
    starred copy."""
    facts = frame.__dict__
    if facts.get("_ids") is ids:
        i = facts.get("_fid")
        if i is None:
            cls = type(frame)
            key = list(facts["_key"])
            key[_KEY_AT[cls][HOLE_FIELD[cls]]] = STAR_ID
            i = facts["_fid"] = ids.intern(tuple(key))
        return i
    return class_id(ids, starred(frame))


class EvalContext:
    """Initial shape plus frames, innermost last. Plugged, a well-typed
    configuration has type F V unit.

    Contexts are persistent: push returns a new context whose top is the
    frame and whose below is this one, so contexts share every frame
    below their top, and frames reads them back as a tuple. cid is the
    context's id in the table ids: an empty context has its shape's id in
    every table from the start, and context_id interns any other from (id
    below, frame id) the first time it is keyed in a table. That id is a
    context's identity: contexts whose frames differ only in bound names
    share it, and == is object identity."""

    __slots__ = ("initial", "below", "top", "ids", "cid")

    def __init__(self, initial: str = HOLE, frames: tuple = ()):
        if initial not in SHAPE_IDS:
            raise ValueError(f"unknown initial context shape {initial!r}")
        below = None
        if frames:
            below = EvalContext(initial)
            for frame in frames[:-1]:
                below = below.push(frame)
        self.initial = initial
        self.below = below
        self.top = frames[-1] if frames else None
        self.ids = None
        self.cid = None if frames else SHAPE_IDS[initial]

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
    return Produce(Ret(term))


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
        return Rec(v, ty, Var(v))
    if is_comp_type(ty):
        return Force(omega(ThunkT(ty)))
    raise TypeError(f"not a type: {ty!r}")


def eq0_then(probe: Term, rest: Term) -> Term:
    """Run an int producer; continue iff it produced 0, else hang. The
    continuation has the tester-argument type F V unit, which the hang
    branch matches."""
    x = fresh("x", free_vars(rest))
    return To(probe, x, INT, Ifz(Var(x), rest, omega(FVUNIT)))


def eq1_then(probe: Term, rest: Term) -> Term:
    """Run an int producer; continue iff it produced 1, else hang."""
    x = fresh("x", free_vars(rest))
    return To(probe, x, INT, Ifz(Pred(Var(x)), rest, omega(FVUNIT)))


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
    return To(chain, y, INT, pswitch(Var(y), [b for _, b in branches], res_cty))


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

