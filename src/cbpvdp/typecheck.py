"""Syntax-directed type synthesis and elaboration of extended notations.

Synthesis is deterministic: annotations at binders pin every type. Names
resolve here and nowhere else: a variable holds only its name, and each
occurrence has the type written on its binder. The core keeps sequencing,
parallel-if and abort as written, at any computation type: an arrow type
denotes an algebra pointwise, and the machine's stack holds the arguments.
Each core To, Seq and Ifz node keeps its own type, from which the
evaluator builds the value of a body or branch that a bottom (or, for To,
empty) source, head or scrutinee never enters.

Elaboration dispatches on a node's class through one table, _ELAB, with a
handler per class. A handler elaborates each child by calling the child's
handler from the table, so a tree costs one table lookup and one Python
frame per node. Binders update one scope dict of bound names in place and
restore it on exit. Core nodes are fresh nodes, built through their
constructors, each with its input node's span, so that the core of a
parsed text keeps the parser's spans and is what surface.parse returns;
the leaves are the input's own objects, except that each abort becomes a
new node, so that it keeps its id. Each elaboration makes one
syntax.IdTable, and a handler gives the node it builds its id there, from
its children's ids, which the handlers return; a bound variable's id is
its de Bruijn index, which the depths of the scope's binders give. A
handler that derives a type (ret, produce, thunk, lambda and pair) reads
it from syntax._TYPES under its constructor's key, and calls the
constructor only for a type the process has not built yet, so each type is
still built by its constructor alone, once per process. The path of an
error is built once, by elaborate, from the handler frames the error
passed through: each holds its node as its local term, and a child's field
is the first of its parent's fields that holds that very node.
"""

from __future__ import annotations

import traceback

from .syntax import (
    COMP_TYPES, FVUNIT, INT, UNIT, VALUE_TYPES,
    Abort, App, ArrowT, DistT, Do, Force, Ifz, Lambda, NChoice, NumLit,
    Obs, Pair, PChoice, Pifz, Pred, Proj1, Proj2, Produce, ProducerT, ProdT,
    Rec, Ret, Seq, Star, Succ, Term, Thunk, ThunkT, To, Type, Var,
    STAR_ID, _CHILD_FIELDS, _TYPES, IdTable,
)


class TypeCheckError(Exception):
    """Type error carrying the offending subterm's source span and its path
    (field names from the root)."""

    def __init__(self, message: str, span=None, path: tuple = ()):
        self.message = message
        self.span = span
        self.path = path
        super().__init__(str(self))

    def __str__(self) -> str:
        loc = ""
        if self.span is not None:
            loc = f" at line {self.span[0]}, column {self.span[1]}"
        where = ""
        if self.path:
            where = f" (under .{'.'.join(self.path)})"
        return f"{self.message}{loc}{where}"


def _err(msg: str, term: Term, path: tuple = ()):
    raise TypeCheckError(msg, span=getattr(term, "span", None), path=path)


class _NotATerm(Exception):
    """An object that no handler takes. It is not a TypeCheckError, so
    elaborate reports it with no path."""


class _Scope(dict):
    """The elaborator's scope: each bound name maps to (type, depth of its
    binder), and a name whose binders have all been left maps to None.
    depth counts the binders above the node being elaborated, and ids is
    the table of the core being built."""

    __slots__ = ("ids", "depth")


def elaborate(term: Term) -> tuple:
    """Return (core term, type) of a closed term. The core keeps its type on
    its root node, so elaborating that core again returns it at once. Each
    compound node of a new core has its id in one new IdTable."""
    ty = getattr(term, "_core_ty", None)
    if ty is not None:
        return term, ty
    scope = _Scope()
    scope.ids = IdTable()
    scope.depth = 0
    try:
        core, ty, _ = _ELAB[type(term)](term, scope)
    except _NotATerm as e:
        raise TypeCheckError(f"not a term: {e.args[0]!r}") from None
    except TypeCheckError as e:
        e.path = _path_to(e.__traceback__) + e.path
        e.args = (str(e),)
        raise
    if core is not term:
        core.__dict__["_core_ty"] = ty
    return core, ty


def _path_to(tb) -> tuple:
    """The fields from the root to the node whose handler raised, read off
    the handler frames of a traceback: consecutive ones are a parent and
    its child. A node in two fields of its parent is taken at the first."""
    path = []
    parent = None
    for frame, _ in traceback.walk_tb(tb):
        if frame.f_code in _HANDLER_CODES:
            child = frame.f_locals["term"]
            if parent is not None:
                path.append(next(f for f in _CHILD_FIELDS[type(parent)]
                                 if getattr(parent, f) is child))
            parent = child
    return tuple(path)


def synth(term: Term) -> Type:
    """Synthesize the unique type of a closed term, or raise TypeCheckError."""
    return elaborate(term)[1]


def check(term: Term, ty: Type) -> Term:
    """Check a closed term against an expected type; return its core form."""
    core, actual = elaborate(term)
    if actual is not ty:
        _err(f"expected type {ty}, found {actual}", term)
    return core


def _stamp(node: Term, key: tuple, ids: IdTable) -> int:
    """Give a new core node its key and its id."""
    index = ids.index
    node._ids = ids
    node._key = key
    node._cid = i = index.setdefault(key, len(index))
    return i


# Handlers, one per node class: handler(term, scope) -> (core, type, id),
# where id is the core's id in scope.ids. A handler never rebinds term:
# elaborate reads it from the frames of a failed elaboration to build the
# error's path. An error about the handler's own child names that child's
# field itself.


def _var(term, scope):
    bound = scope.get(term.name)
    if bound is None:
        _err(f"unbound variable {term.name}", term)
    ty, level = bound
    return term, ty, level - scope.depth


def _star(term, scope):
    return term, UNIT, STAR_ID


def _numlit(term, scope):
    index = scope.ids.index
    return term, INT, index.setdefault((NumLit, term.value), len(index))


def _abort(term, scope):
    cty = term.cty
    if type(cty) not in COMP_TYPES:
        _err(f"abort needs a computation type, found {cty}", term)
    # A new node, unlike the other leaves, so it can keep its id.
    node = Abort(cty, term.span)
    return node, cty, _stamp(node, (Abort, cty), scope.ids)


def _lambda(term, scope):
    var, var_ty = term.var, term.var_ty
    if type(var_ty) not in VALUE_TYPES:
        _err(f"a bound variable must have a value type, found {var_ty}", term)
    outer = scope.get(var)
    scope[var] = (var_ty, scope.depth)
    scope.depth += 1
    body = term.body
    body, body_ty, body_id = _ELAB[type(body)](body, scope)
    scope[var] = outer
    scope.depth -= 1
    if type(body_ty) not in COMP_TYPES:
        _err(f"function body must be a computation, found {body_ty}", term)
    node = Lambda(var, var_ty, body, term.span)
    ty = _TYPES.get((ArrowT, var_ty, body_ty)) or ArrowT(var_ty, body_ty)
    return node, ty, _stamp(node, (Lambda, var_ty, body_id), scope.ids)


def _app(term, scope):
    fn = term.fn
    fn, fn_ty, fn_id = _ELAB[type(fn)](fn, scope)
    if type(fn_ty) is not ArrowT:
        _err(f"application head must have arrow type, found {fn_ty}", term.fn,
             ("fn",))
    arg = term.arg
    arg, arg_ty, arg_id = _ELAB[type(arg)](arg, scope)
    if arg_ty is not fn_ty.arg:
        _err(f"argument type {arg_ty} does not match parameter type "
             f"{fn_ty.arg}", term.arg, ("arg",))
    node = App(fn, arg, term.span)
    return node, fn_ty.res, _stamp(node, (App, fn_id, arg_id), scope.ids)


def _rec(term, scope):
    var, var_ty = term.var, term.var_ty
    if type(var_ty) not in VALUE_TYPES:
        _err(f"a recursion variable must have a value type, found {var_ty}",
             term)
    outer = scope.get(var)
    scope[var] = (var_ty, scope.depth)
    scope.depth += 1
    body = term.body
    body, body_ty, body_id = _ELAB[type(body)](body, scope)
    scope[var] = outer
    scope.depth -= 1
    if body_ty is not var_ty:
        _err(f"recursion body has type {body_ty}, expected {var_ty}", term)
    node = Rec(var, var_ty, body, term.span)
    return node, var_ty, _stamp(node, (Rec, var_ty, body_id), scope.ids)


def _arith(term, scope):
    # Succ and Pred.
    arg = term.arg
    arg, arg_ty, arg_id = _ELAB[type(arg)](arg, scope)
    if arg_ty is not INT:
        _err(f"arithmetic argument must be int, found {arg_ty}", term.arg,
             ("arg",))
    cls = type(term)
    node = cls(arg, term.span)
    return node, INT, _stamp(node, (cls, arg_id), scope.ids)


def _thunk(term, scope):
    comp = term.comp
    comp, comp_ty, comp_id = _ELAB[type(comp)](comp, scope)
    if type(comp_ty) not in COMP_TYPES:
        _err(f"thunk expects a computation, found {comp_ty}", term.comp,
             ("comp",))
    node = Thunk(comp, term.span)
    ty = _TYPES.get((ThunkT, comp_ty)) or ThunkT(comp_ty)
    return node, ty, _stamp(node, (Thunk, comp_id), scope.ids)


def _force(term, scope):
    thunk = term.thunk
    thunk, thunk_ty, thunk_id = _ELAB[type(thunk)](thunk, scope)
    if type(thunk_ty) is not ThunkT:
        _err(f"force expects a thunk, found {thunk_ty}", term.thunk,
             ("thunk",))
    node = Force(thunk, term.span)
    return node, thunk_ty.comp, _stamp(node, (Force, thunk_id), scope.ids)


def _seq(term, scope):
    first = term.first
    first, first_ty, first_id = _ELAB[type(first)](first, scope)
    if first_ty is not UNIT:
        _err(f"sequencing head must be unit, found {first_ty}", term.first,
             ("first",))
    rest = term.rest
    rest, rest_ty, rest_id = _ELAB[type(rest)](rest, scope)
    # The node keeps its type as _node_ty, outside the dataclass fields; not
    # as _core_ty, since the node may be open.
    node = Seq(first, rest, term.span)
    node._node_ty = rest_ty
    return node, rest_ty, _stamp(node, (Seq, first_id, rest_id), scope.ids)


def _ifz(term, scope):
    scrut = term.scrut
    scrut, scrut_ty, scrut_id = _ELAB[type(scrut)](scrut, scope)
    if scrut_ty is not INT:
        _err(f"ifz scrutinee must be int, found {scrut_ty}", term.scrut,
             ("scrut",))
    z = term.if_zero
    z, z_ty, z_id = _ELAB[type(z)](z, scope)
    nz = term.if_nonzero
    nz, nz_ty, nz_id = _ELAB[type(nz)](nz, scope)
    if z_ty is not nz_ty:
        _err(f"ifz branches disagree: {z_ty} vs {nz_ty}", term)
    # The node keeps its type, as a Seq does.
    node = Ifz(scrut, z, nz, term.span)
    node._node_ty = z_ty
    return node, z_ty, _stamp(node, (Ifz, scrut_id, z_id, nz_id), scope.ids)


def _proj(term, scope):
    # Proj1 and Proj2.
    pair = term.pair
    pair, pair_ty, pair_id = _ELAB[type(pair)](pair, scope)
    if type(pair_ty) is not ProdT:
        _err(f"projection expects a pair, found {pair_ty}", term.pair,
             ("pair",))
    cls = type(term)
    node = cls(pair, term.span)
    return (node, pair_ty.fst if cls is Proj1 else pair_ty.snd,
            _stamp(node, (cls, pair_id), scope.ids))


def _pair(term, scope):
    fst = term.fst
    fst, fst_ty, fst_id = _ELAB[type(fst)](fst, scope)
    snd = term.snd
    snd, snd_ty, snd_id = _ELAB[type(snd)](snd, scope)
    node = Pair(fst, snd, term.span)
    ty = _TYPES.get((ProdT, fst_ty, snd_ty)) or ProdT(fst_ty, snd_ty)
    return node, ty, _stamp(node, (Pair, fst_id, snd_id), scope.ids)


# The arm type and its wording, per choice form.
_CHOICE_ARMS = {PChoice: (DistT, "probabilistic choice needs "
                                 "distribution-typed arms"),
                NChoice: (ProducerT, "demonic choice needs producer-typed "
                                     "arms")}


def _choice(term, scope):
    # PChoice and NChoice.
    cls = type(term)
    left = term.left
    left, left_ty, left_id = _ELAB[type(left)](left, scope)
    arm, wording = _CHOICE_ARMS[cls]
    if type(left_ty) is not arm:
        _err(f"{wording}, found {left_ty}", term.left, ("left",))
    right = term.right
    right, right_ty, right_id = _ELAB[type(right)](right, scope)
    if right_ty is not left_ty:
        _err(f"choice arms disagree: {left_ty} vs {right_ty}", term)
    node = cls(left, right, term.span)
    return node, left_ty, _stamp(node, (cls, left_id, right_id), scope.ids)


def _ret(term, scope):
    value = term.value
    value, value_ty, value_id = _ELAB[type(value)](value, scope)
    node = Ret(value, term.span)
    ty = _TYPES.get((DistT, value_ty)) or DistT(value_ty)
    return node, ty, _stamp(node, (Ret, value_id), scope.ids)


def _do(term, scope):
    var, var_ty = term.var, term.var_ty
    if type(var_ty) not in VALUE_TYPES:
        _err(f"a bound variable must have a value type, found {var_ty}", term)
    source = term.source
    source, source_ty, source_id = _ELAB[type(source)](source, scope)
    if type(source_ty) is not DistT or source_ty.elem is not var_ty:
        _err(f"bind source has type {source_ty}, expected {DistT(var_ty)}",
             term.source, ("source",))
    outer = scope.get(var)
    scope[var] = (var_ty, scope.depth)
    scope.depth += 1
    body = term.body
    body, body_ty, body_id = _ELAB[type(body)](body, scope)
    scope[var] = outer
    scope.depth -= 1
    if type(body_ty) is not DistT:
        _err(f"bind body must be distribution-typed, found {body_ty}",
             term.body, ("body",))
    node = Do(var, var_ty, source, body, term.span)
    return node, body_ty, _stamp(
        node, (Do, var_ty, source_id, body_id), scope.ids)


def _produce(term, scope):
    value = term.value
    value, value_ty, value_id = _ELAB[type(value)](value, scope)
    if type(value_ty) not in VALUE_TYPES:
        _err(f"a produced value must have a value type, found {value_ty}",
             term)
    node = Produce(value, term.span)
    ty = _TYPES.get((ProducerT, value_ty)) or ProducerT(value_ty)
    return node, ty, _stamp(node, (Produce, value_id), scope.ids)


def _to(term, scope):
    var, var_ty = term.var, term.var_ty
    if type(var_ty) not in VALUE_TYPES:
        _err(f"a bound variable must have a value type, found {var_ty}", term)
    source = term.source
    source, source_ty, source_id = _ELAB[type(source)](source, scope)
    if type(source_ty) is not ProducerT or source_ty.elem is not var_ty:
        _err(f"sequencing source has type {source_ty}, expected "
             f"{ProducerT(var_ty)}", term.source, ("source",))
    outer = scope.get(var)
    scope[var] = (var_ty, scope.depth)
    scope.depth += 1
    body = term.body
    body, body_ty, body_id = _ELAB[type(body)](body, scope)
    scope[var] = outer
    scope.depth -= 1
    if type(body_ty) not in COMP_TYPES:
        _err(f"sequencing body must be a computation, found {body_ty}",
             term.body, ("body",))
    # The node keeps its type, as a Seq does.
    node = To(source, var, var_ty, body, term.span)
    node._node_ty = body_ty
    return node, body_ty, _stamp(
        node, (To, var_ty, source_id, body_id), scope.ids)


def _pifz(term, scope):
    scrut = term.scrut
    scrut, scrut_ty, scrut_id = _ELAB[type(scrut)](scrut, scope)
    if scrut_ty is not INT:
        _err(f"pifz scrutinee must be int, found {scrut_ty}", term.scrut,
             ("scrut",))
    z = term.if_zero
    z, z_ty, z_id = _ELAB[type(z)](z, scope)
    if type(z_ty) not in COMP_TYPES:
        _err(f"pifz branches must be computations, found {z_ty}",
             term.if_zero, ("if_zero",))
    nz = term.if_nonzero
    nz, nz_ty, nz_id = _ELAB[type(nz)](nz, scope)
    if z_ty is not nz_ty:
        _err(f"pifz branches disagree: {z_ty} vs {nz_ty}", term)
    node = Pifz(scrut, z, nz, term.span)
    return node, z_ty, _stamp(node, (Pifz, scrut_id, z_id, nz_id), scope.ids)


def _obs(term, scope):
    arg = term.arg
    arg, arg_ty, arg_id = _ELAB[type(arg)](arg, scope)
    if arg_ty is not FVUNIT:
        _err(f"tester argument must have type {FVUNIT}, found {arg_ty}",
             term.arg, ("arg",))
    bound = term.bound
    node = Obs(bound, arg, term.span)
    return node, UNIT, _stamp(
        node, (Obs, bound.numerator, bound.denominator, arg_id), scope.ids)


class _Handlers(dict):
    """Handlers keyed by node class. Any other class maps to one that
    raises _NotATerm."""

    def __missing__(self, cls):
        return _not_a_term


def _not_a_term(term, scope):
    raise _NotATerm(term)


# Every handler calls its children's handlers straight from this table, so
# elaboration takes one Python frame per tree level and overflows on terms
# as deep as the recursion limit; explicit stacks would lift that limit. No
# handler rebinds its parameter term, which _path_to reads from its frame.
_ELAB = _Handlers({
    Var: _var, Star: _star, NumLit: _numlit, Abort: _abort,
    Lambda: _lambda, App: _app, Rec: _rec,
    Succ: _arith, Pred: _arith,
    Thunk: _thunk, Force: _force,
    Seq: _seq, Ifz: _ifz,
    Proj1: _proj, Proj2: _proj,
    Pair: _pair,
    PChoice: _choice, NChoice: _choice,
    Ret: _ret, Do: _do, Produce: _produce, To: _to, Pifz: _pifz, Obs: _obs,
})
_HANDLER_CODES = frozenset(handler.__code__ for handler in _ELAB.values())
