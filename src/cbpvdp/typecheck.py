"""Syntax-directed type synthesis and elaboration of extended notations.

Synthesis is deterministic: annotations at binders pin every type. The
elaborator rewrites arrow-typed sequencing, parallel-if, and abort into
eta-expanded core forms, so the step engine and the domain evaluator only
ever see sequencing and parallel-if at producer types. Each core Seq and Ifz
node keeps its own type, from which the evaluator builds the bottom of a
branch that a bottom head or scrutinee never enters.

Elaboration dispatches on a node's class through one table, _ELAB, with a
handler per class. A handler elaborates each child by calling the child's
handler from the table, so a tree costs one table lookup and one Python
frame per node. Binders update one scope dict of bound names in place and
restore it on exit. Core nodes are fresh nodes, filled in directly the way
syntax.rebuild fills a copy; leaves are shared. The path of an error is
built once, by elaborate, from the handler frames the error passed
through: each holds its node as its local term, and a child's field is the
first of its parent's fields that holds that very node.
"""

from __future__ import annotations

import traceback

from .syntax import (
    COMP_TYPES, FVUNIT, INT, UNIT, VALUE_TYPES,
    Abort, App, ArrowT, DistT, Do, Force, Ifz, IntT, Lambda, NChoice, NumLit,
    Obs, Pair, PChoice, Pifz, Pred, Proj1, Proj2, Produce, ProducerT, ProdT,
    Rec, Ret, Seq, Star, Succ, Term, Thunk, ThunkT, To, Type, UnitT, Var,
    _CHILD_FIELDS, free_vars, fresh,
)

_new = object.__new__


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


def elaborate(term: Term) -> tuple:
    """Return (core term, type) of a closed term. The core keeps its type on
    its root node, so elaborating that core again returns it at once."""
    ty = getattr(term, "_core_ty", None)
    if ty is not None:
        return term, ty
    try:
        core, ty = _ELAB[type(term)](term, {})
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
    if actual != ty:
        _err(f"expected type {ty}, found {actual}", term)
    return core


def _eta_to(source: Term, var: str, var_ty, body: Term, body_ty, scope) -> tuple:
    if type(body_ty) is ProducerT:
        node = _new(To)
        d = node.__dict__
        d["source"], d["var"], d["var_ty"], d["body"], d["span"] = (
            source, var, var_ty, body, None)
        return node, body_ty
    arg_ty, res_ty = body_ty.arg, body_ty.res
    y = fresh("y", free_vars(source) | free_vars(body) | {var} | set(scope))
    inner, inner_ty = _eta_to(source, var, var_ty, App(body, Var(y, arg_ty)),
                              res_ty, scope)
    return Lambda(y, arg_ty, inner), ArrowT(arg_ty, inner_ty)


def _eta_pifz(scrut: Term, if_zero: Term, if_nonzero: Term, ty, scope) -> tuple:
    if type(ty) is ProducerT:
        node = _new(Pifz)
        d = node.__dict__
        d["scrut"], d["if_zero"], d["if_nonzero"], d["span"] = (
            scrut, if_zero, if_nonzero, None)
        return node, ty
    arg_ty, res_ty = ty.arg, ty.res
    x = fresh("x", free_vars(scrut) | free_vars(if_zero) |
              free_vars(if_nonzero) | set(scope))
    v = Var(x, arg_ty)
    inner, inner_ty = _eta_pifz(scrut, App(if_zero, v), App(if_nonzero, v),
                                res_ty, scope)
    return Lambda(x, arg_ty, inner), ArrowT(arg_ty, inner_ty)


def _eta_abort(cty, scope) -> tuple:
    if type(cty) is ProducerT:
        return Abort(cty), cty
    x = fresh("x", set(scope))
    inner, inner_ty = _eta_abort(cty.res, set(scope) | {x})
    return Lambda(x, cty.arg, inner), ArrowT(cty.arg, inner_ty)


def _unbind(scope: dict, var: str, outer) -> None:
    """Leave a binder of var: give var back the type it had outside, or
    drop it when it had none."""
    if outer is None:
        del scope[var]
    else:
        scope[var] = outer


# Handlers, one per node class: handler(term, scope) -> (core, type). The
# scope maps each bound name to its type. A handler never rebinds term:
# elaborate reads it from the frames of a failed elaboration to build the
# error's path. An error about the handler's own child names that child's
# field itself.


def _var(term, scope):
    bound = scope.get(term.name)
    if bound is None:
        _err(f"unbound variable {term.name}", term)
    if bound is not term.ty and bound != term.ty:
        _err(f"variable {term.name} is bound at {bound}, annotated {term.ty}",
             term)
    return term, bound


def _star(term, scope):
    return term, UNIT


def _numlit(term, scope):
    return term, INT


def _abort(term, scope):
    if type(term.cty) not in COMP_TYPES:
        _err(f"abort needs a computation type, found {term.cty}", term)
    return _eta_abort(term.cty, scope)


def _lambda(term, scope):
    var, var_ty = term.var, term.var_ty
    if type(var_ty) not in VALUE_TYPES:
        _err(f"a bound variable must have a value type, found {var_ty}", term)
    outer = scope.get(var)
    scope[var] = var_ty
    body = term.body
    body, body_ty = _ELAB[type(body)](body, scope)
    _unbind(scope, var, outer)
    if type(body_ty) not in COMP_TYPES:
        _err(f"function body must be a computation, found {body_ty}", term)
    node = _new(Lambda)
    d = node.__dict__
    d["var"], d["var_ty"], d["body"], d["span"] = var, var_ty, body, None
    return node, ArrowT(var_ty, body_ty)


def _app(term, scope):
    fn = term.fn
    fn, fn_ty = _ELAB[type(fn)](fn, scope)
    if type(fn_ty) is not ArrowT:
        _err(f"application head must have arrow type, found {fn_ty}", term.fn,
             ("fn",))
    arg = term.arg
    arg, arg_ty = _ELAB[type(arg)](arg, scope)
    if arg_ty is not fn_ty.arg and arg_ty != fn_ty.arg:
        _err(f"argument type {arg_ty} does not match parameter type "
             f"{fn_ty.arg}", term.arg, ("arg",))
    node = _new(App)
    d = node.__dict__
    d["fn"], d["arg"], d["span"] = fn, arg, None
    return node, fn_ty.res


def _rec(term, scope):
    var, var_ty = term.var, term.var_ty
    if type(var_ty) not in VALUE_TYPES:
        _err(f"a recursion variable must have a value type, found {var_ty}",
             term)
    outer = scope.get(var)
    scope[var] = var_ty
    body = term.body
    body, body_ty = _ELAB[type(body)](body, scope)
    _unbind(scope, var, outer)
    if body_ty is not var_ty and body_ty != var_ty:
        _err(f"recursion body has type {body_ty}, expected {var_ty}", term)
    node = _new(Rec)
    d = node.__dict__
    d["var"], d["var_ty"], d["body"], d["span"] = var, var_ty, body, None
    return node, var_ty


def _arith(term, scope):
    # Succ and Pred.
    arg = term.arg
    arg, arg_ty = _ELAB[type(arg)](arg, scope)
    if type(arg_ty) is not IntT:
        _err(f"arithmetic argument must be int, found {arg_ty}", term.arg,
             ("arg",))
    node = _new(type(term))
    d = node.__dict__
    d["arg"], d["span"] = arg, None
    return node, INT


def _thunk(term, scope):
    comp = term.comp
    comp, comp_ty = _ELAB[type(comp)](comp, scope)
    if type(comp_ty) not in COMP_TYPES:
        _err(f"thunk expects a computation, found {comp_ty}", term.comp,
             ("comp",))
    node = _new(Thunk)
    d = node.__dict__
    d["comp"], d["span"] = comp, None
    return node, ThunkT(comp_ty)


def _force(term, scope):
    thunk = term.thunk
    thunk, thunk_ty = _ELAB[type(thunk)](thunk, scope)
    if type(thunk_ty) is not ThunkT:
        _err(f"force expects a thunk, found {thunk_ty}", term.thunk,
             ("thunk",))
    node = _new(Force)
    d = node.__dict__
    d["thunk"], d["span"] = thunk, None
    return node, thunk_ty.comp


def _seq(term, scope):
    first = term.first
    first, first_ty = _ELAB[type(first)](first, scope)
    if type(first_ty) is not UnitT:
        _err(f"sequencing head must be unit, found {first_ty}", term.first,
             ("first",))
    rest = term.rest
    rest, rest_ty = _ELAB[type(rest)](rest, scope)
    # The node keeps its type as _node_ty, outside the dataclass fields; not
    # as _core_ty, since the node may be open.
    node = _new(Seq)
    d = node.__dict__
    d["first"], d["rest"], d["span"], d["_node_ty"] = first, rest, None, rest_ty
    return node, rest_ty


def _ifz(term, scope):
    scrut = term.scrut
    scrut, scrut_ty = _ELAB[type(scrut)](scrut, scope)
    if type(scrut_ty) is not IntT:
        _err(f"ifz scrutinee must be int, found {scrut_ty}", term.scrut,
             ("scrut",))
    z = term.if_zero
    z, z_ty = _ELAB[type(z)](z, scope)
    nz = term.if_nonzero
    nz, nz_ty = _ELAB[type(nz)](nz, scope)
    if z_ty is not nz_ty and z_ty != nz_ty:
        _err(f"ifz branches disagree: {z_ty} vs {nz_ty}", term)
    # The node keeps its type, as a Seq does.
    node = _new(Ifz)
    d = node.__dict__
    d["scrut"], d["if_zero"], d["if_nonzero"], d["span"], d["_node_ty"] = (
        scrut, z, nz, None, z_ty)
    return node, z_ty


def _proj(term, scope):
    # Proj1 and Proj2.
    pair = term.pair
    pair, pair_ty = _ELAB[type(pair)](pair, scope)
    if type(pair_ty) is not ProdT:
        _err(f"projection expects a pair, found {pair_ty}", term.pair,
             ("pair",))
    cls = type(term)
    node = _new(cls)
    d = node.__dict__
    d["pair"], d["span"] = pair, None
    return node, pair_ty.fst if cls is Proj1 else pair_ty.snd


def _pair(term, scope):
    fst = term.fst
    fst, fst_ty = _ELAB[type(fst)](fst, scope)
    snd = term.snd
    snd, snd_ty = _ELAB[type(snd)](snd, scope)
    node = _new(Pair)
    d = node.__dict__
    d["fst"], d["snd"], d["span"] = fst, snd, None
    return node, ProdT(fst_ty, snd_ty)


# The arm type and its wording, per choice form.
_CHOICE_ARMS = {PChoice: (DistT, "probabilistic choice needs "
                                 "distribution-typed arms"),
                NChoice: (ProducerT, "demonic choice needs producer-typed "
                                     "arms")}


def _choice(term, scope):
    # PChoice and NChoice.
    cls = type(term)
    left = term.left
    left, left_ty = _ELAB[type(left)](left, scope)
    arm, wording = _CHOICE_ARMS[cls]
    if type(left_ty) is not arm:
        _err(f"{wording}, found {left_ty}", term.left, ("left",))
    right = term.right
    right, right_ty = _ELAB[type(right)](right, scope)
    if right_ty is not left_ty and right_ty != left_ty:
        _err(f"choice arms disagree: {left_ty} vs {right_ty}", term)
    node = _new(cls)
    d = node.__dict__
    d["left"], d["right"], d["span"] = left, right, None
    return node, left_ty


def _ret(term, scope):
    value = term.value
    value, value_ty = _ELAB[type(value)](value, scope)
    node = _new(Ret)
    d = node.__dict__
    d["value"], d["span"] = value, None
    return node, DistT(value_ty)


def _do(term, scope):
    var, var_ty = term.var, term.var_ty
    if type(var_ty) not in VALUE_TYPES:
        _err(f"a bound variable must have a value type, found {var_ty}", term)
    source = term.source
    source, source_ty = _ELAB[type(source)](source, scope)
    if type(source_ty) is not DistT or (source_ty.elem is not var_ty and
                                        source_ty.elem != var_ty):
        _err(f"bind source has type {source_ty}, expected {DistT(var_ty)}",
             term.source, ("source",))
    outer = scope.get(var)
    scope[var] = var_ty
    body = term.body
    body, body_ty = _ELAB[type(body)](body, scope)
    _unbind(scope, var, outer)
    if type(body_ty) is not DistT:
        _err(f"bind body must be distribution-typed, found {body_ty}",
             term.body, ("body",))
    node = _new(Do)
    d = node.__dict__
    d["var"], d["var_ty"], d["source"], d["body"], d["span"] = (
        var, var_ty, source, body, None)
    return node, body_ty


def _produce(term, scope):
    value = term.value
    value, value_ty = _ELAB[type(value)](value, scope)
    if type(value_ty) not in VALUE_TYPES:
        _err(f"a produced value must have a value type, found {value_ty}",
             term)
    node = _new(Produce)
    d = node.__dict__
    d["value"], d["span"] = value, None
    return node, ProducerT(value_ty)


def _to(term, scope):
    var, var_ty = term.var, term.var_ty
    if type(var_ty) not in VALUE_TYPES:
        _err(f"a bound variable must have a value type, found {var_ty}", term)
    source = term.source
    source, source_ty = _ELAB[type(source)](source, scope)
    if type(source_ty) is not ProducerT or (source_ty.elem is not var_ty and
                                            source_ty.elem != var_ty):
        _err(f"sequencing source has type {source_ty}, expected "
             f"{ProducerT(var_ty)}", term.source, ("source",))
    outer = scope.get(var)
    scope[var] = var_ty
    body = term.body
    body, body_ty = _ELAB[type(body)](body, scope)
    if type(body_ty) not in COMP_TYPES:
        _err(f"sequencing body must be a computation, found {body_ty}",
             term.body, ("body",))
    # An arrow-typed body eta-expands; fresh names avoid the scope with the
    # bound variable in it.
    out = _eta_to(source, var, var_ty, body, body_ty, scope)
    _unbind(scope, var, outer)
    return out


def _pifz(term, scope):
    scrut = term.scrut
    scrut, scrut_ty = _ELAB[type(scrut)](scrut, scope)
    if type(scrut_ty) is not IntT:
        _err(f"pifz scrutinee must be int, found {scrut_ty}", term.scrut,
             ("scrut",))
    z = term.if_zero
    z, z_ty = _ELAB[type(z)](z, scope)
    if type(z_ty) not in COMP_TYPES:
        _err(f"pifz branches must be computations, found {z_ty}",
             term.if_zero, ("if_zero",))
    nz = term.if_nonzero
    nz, nz_ty = _ELAB[type(nz)](nz, scope)
    if z_ty is not nz_ty and z_ty != nz_ty:
        _err(f"pifz branches disagree: {z_ty} vs {nz_ty}", term)
    return _eta_pifz(scrut, z, nz, z_ty, scope)


def _obs(term, scope):
    arg = term.arg
    arg, arg_ty = _ELAB[type(arg)](arg, scope)
    if arg_ty is not FVUNIT and arg_ty != FVUNIT:
        _err(f"tester argument must have type {FVUNIT}, found {arg_ty}",
             term.arg, ("arg",))
    node = _new(Obs)
    d = node.__dict__
    d["bound"], d["arg"], d["span"] = term.bound, arg, None
    return node, UNIT


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
