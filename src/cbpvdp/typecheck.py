"""Syntax-directed type synthesis and elaboration of extended notations.

Synthesis is deterministic: annotations at binders pin every type. The
elaborator rewrites arrow-typed sequencing, parallel-if, and abort into
eta-expanded core forms, so the step engine and the domain evaluator only
ever see sequencing and parallel-if at producer types. Each core Seq and Ifz
node keeps its own type, from which the evaluator builds the bottom of a
branch that a bottom head or scrutinee never enters.
"""

from __future__ import annotations

from .syntax import (
    INT, UNIT, FVUNIT,
    Abort, App, ArrowT, DistT, Do, Force, Ifz, Lambda, NChoice, NumLit, Obs,
    Pair, PChoice, Pifz, Pred, Proj1, Proj2, Produce, ProducerT, ProdT, Rec,
    Ret, Seq, Star, Succ, Term, Thunk, ThunkT, To, Type, Var,
    free_vars, fresh, is_comp_type, is_value_type,
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


def _err(msg: str, term: Term, path: tuple):
    raise TypeCheckError(msg, span=getattr(term, "span", None), path=path)


def elaborate(term: Term) -> tuple:
    """Return (core term, type) of a closed term. The core keeps its type on
    its root node, so elaborating that core again returns it at once."""
    ty = getattr(term, "_core_ty", None)
    if ty is not None:
        return term, ty
    core, ty = _elab(term, {}, ())
    if core is not term:
        core.__dict__["_core_ty"] = ty
    return core, ty


def synth(term: Term) -> Type:
    """Synthesize the unique type of a closed term, or raise TypeCheckError."""
    return elaborate(term)[1]


def check(term: Term, ty: Type) -> Term:
    """Check a closed term against an expected type; return its core form."""
    core, actual = elaborate(term)
    if actual != ty:
        _err(f"expected type {ty}, found {actual}", term, ())
    return core


def _typed(node: Term, ty: Type) -> tuple:
    """The node with its type kept on it as _node_ty, outside the dataclass
    fields. Not _core_ty: the node may be open."""
    node.__dict__["_node_ty"] = ty
    return node, ty


def _expect_value_type(ty, term, path, what):
    if not is_value_type(ty):
        _err(f"{what} must have a value type, found {ty}", term, path)


def _eta_to(source: Term, var: str, var_ty, body: Term, body_ty, env) -> tuple:
    if isinstance(body_ty, ProducerT):
        return To(source, var, var_ty, body), body_ty
    arg_ty, res_ty = body_ty.arg, body_ty.res
    y = fresh("y", free_vars(source) | free_vars(body) | {var} | set(env))
    inner, inner_ty = _eta_to(source, var, var_ty, App(body, Var(y, arg_ty)), res_ty, env)
    return Lambda(y, arg_ty, inner), ArrowT(arg_ty, inner_ty)


def _eta_pifz(scrut: Term, if_zero: Term, if_nonzero: Term, ty, env) -> tuple:
    if isinstance(ty, ProducerT):
        return Pifz(scrut, if_zero, if_nonzero), ty
    arg_ty, res_ty = ty.arg, ty.res
    x = fresh("x", free_vars(scrut) | free_vars(if_zero) | free_vars(if_nonzero) | set(env))
    v = Var(x, arg_ty)
    inner, inner_ty = _eta_pifz(scrut, App(if_zero, v), App(if_nonzero, v), res_ty, env)
    return Lambda(x, arg_ty, inner), ArrowT(arg_ty, inner_ty)


def _eta_abort(cty, env) -> tuple:
    if isinstance(cty, ProducerT):
        return Abort(cty), cty
    x = fresh("x", set(env))
    inner, inner_ty = _eta_abort(cty.res, set(env) | {x})
    return Lambda(x, cty.arg, inner), ArrowT(cty.arg, inner_ty)


def _elab(term: Term, env: dict, path: tuple) -> tuple:
    if isinstance(term, Var):
        bound = env.get(term.name)
        if bound is None:
            _err(f"unbound variable {term.name}", term, path)
        if bound != term.ty:
            _err(f"variable {term.name} is bound at {bound}, annotated {term.ty}",
                 term, path)
        return term, bound

    if isinstance(term, Star):
        return term, UNIT

    if isinstance(term, NumLit):
        return term, INT

    if isinstance(term, Abort):
        if not is_comp_type(term.cty):
            _err(f"abort needs a computation type, found {term.cty}", term, path)
        return _eta_abort(term.cty, env)

    if isinstance(term, Lambda):
        _expect_value_type(term.var_ty, term, path, "a bound variable")
        inner = dict(env)
        inner[term.var] = term.var_ty
        body, body_ty = _elab(term.body, inner, path + ("body",))
        if not is_comp_type(body_ty):
            _err(f"function body must be a computation, found {body_ty}", term, path)
        return Lambda(term.var, term.var_ty, body), ArrowT(term.var_ty, body_ty)

    if isinstance(term, App):
        fn, fn_ty = _elab(term.fn, env, path + ("fn",))
        if not isinstance(fn_ty, ArrowT):
            _err(f"application head must have arrow type, found {fn_ty}", term.fn,
                 path + ("fn",))
        arg, arg_ty = _elab(term.arg, env, path + ("arg",))
        if arg_ty != fn_ty.arg:
            _err(f"argument type {arg_ty} does not match parameter type {fn_ty.arg}",
                 term.arg, path + ("arg",))
        return App(fn, arg), fn_ty.res

    if isinstance(term, Rec):
        _expect_value_type(term.var_ty, term, path, "a recursion variable")
        inner = dict(env)
        inner[term.var] = term.var_ty
        body, body_ty = _elab(term.body, inner, path + ("body",))
        if body_ty != term.var_ty:
            _err(f"recursion body has type {body_ty}, expected {term.var_ty}",
                 term, path)
        return Rec(term.var, term.var_ty, body), term.var_ty

    if isinstance(term, (Succ, Pred)):
        arg, arg_ty = _elab(term.arg, env, path + ("arg",))
        if arg_ty != INT:
            _err(f"arithmetic argument must be int, found {arg_ty}", term.arg,
                 path + ("arg",))
        return type(term)(arg), INT

    if isinstance(term, Thunk):
        comp, comp_ty = _elab(term.comp, env, path + ("comp",))
        if not is_comp_type(comp_ty):
            _err(f"thunk expects a computation, found {comp_ty}", term.comp,
                 path + ("comp",))
        return Thunk(comp), ThunkT(comp_ty)

    if isinstance(term, Force):
        thunk, thunk_ty = _elab(term.thunk, env, path + ("thunk",))
        if not isinstance(thunk_ty, ThunkT):
            _err(f"force expects a thunk, found {thunk_ty}", term.thunk,
                 path + ("thunk",))
        return Force(thunk), thunk_ty.comp

    if isinstance(term, Seq):
        first, first_ty = _elab(term.first, env, path + ("first",))
        if first_ty != UNIT:
            _err(f"sequencing head must be unit, found {first_ty}", term.first,
                 path + ("first",))
        rest, rest_ty = _elab(term.rest, env, path + ("rest",))
        return _typed(Seq(first, rest), rest_ty)

    if isinstance(term, Ifz):
        scrut, scrut_ty = _elab(term.scrut, env, path + ("scrut",))
        if scrut_ty != INT:
            _err(f"ifz scrutinee must be int, found {scrut_ty}", term.scrut,
                 path + ("scrut",))
        z, z_ty = _elab(term.if_zero, env, path + ("if_zero",))
        nz, nz_ty = _elab(term.if_nonzero, env, path + ("if_nonzero",))
        if z_ty != nz_ty:
            _err(f"ifz branches disagree: {z_ty} vs {nz_ty}", term, path)
        return _typed(Ifz(scrut, z, nz), z_ty)

    if isinstance(term, Proj1):
        pair, pair_ty = _elab(term.pair, env, path + ("pair",))
        if not isinstance(pair_ty, ProdT):
            _err(f"projection expects a pair, found {pair_ty}", term.pair,
                 path + ("pair",))
        return Proj1(pair), pair_ty.fst

    if isinstance(term, Proj2):
        pair, pair_ty = _elab(term.pair, env, path + ("pair",))
        if not isinstance(pair_ty, ProdT):
            _err(f"projection expects a pair, found {pair_ty}", term.pair,
                 path + ("pair",))
        return Proj2(pair), pair_ty.snd

    if isinstance(term, Pair):
        fst, fst_ty = _elab(term.fst, env, path + ("fst",))
        snd, snd_ty = _elab(term.snd, env, path + ("snd",))
        return Pair(fst, snd), ProdT(fst_ty, snd_ty)

    if isinstance(term, PChoice):
        left, left_ty = _elab(term.left, env, path + ("left",))
        if not isinstance(left_ty, DistT):
            _err(f"probabilistic choice needs distribution-typed arms, found {left_ty}",
                 term.left, path + ("left",))
        right, right_ty = _elab(term.right, env, path + ("right",))
        if right_ty != left_ty:
            _err(f"choice arms disagree: {left_ty} vs {right_ty}", term, path)
        return PChoice(left, right), left_ty

    if isinstance(term, Ret):
        value, value_ty = _elab(term.value, env, path + ("value",))
        return Ret(value), DistT(value_ty)

    if isinstance(term, Do):
        _expect_value_type(term.var_ty, term, path, "a bound variable")
        source, source_ty = _elab(term.source, env, path + ("source",))
        if source_ty != DistT(term.var_ty):
            _err(f"bind source has type {source_ty}, expected {DistT(term.var_ty)}",
                 term.source, path + ("source",))
        inner = dict(env)
        inner[term.var] = term.var_ty
        body, body_ty = _elab(term.body, inner, path + ("body",))
        if not isinstance(body_ty, DistT):
            _err(f"bind body must be distribution-typed, found {body_ty}",
                 term.body, path + ("body",))
        return Do(term.var, term.var_ty, source, body), body_ty

    if isinstance(term, NChoice):
        left, left_ty = _elab(term.left, env, path + ("left",))
        if not isinstance(left_ty, ProducerT):
            _err(f"demonic choice needs producer-typed arms, found {left_ty}",
                 term.left, path + ("left",))
        right, right_ty = _elab(term.right, env, path + ("right",))
        if right_ty != left_ty:
            _err(f"choice arms disagree: {left_ty} vs {right_ty}", term, path)
        return NChoice(left, right), left_ty

    if isinstance(term, Produce):
        value, value_ty = _elab(term.value, env, path + ("value",))
        _expect_value_type(value_ty, term, path, "a produced value")
        return Produce(value), ProducerT(value_ty)

    if isinstance(term, To):
        _expect_value_type(term.var_ty, term, path, "a bound variable")
        source, source_ty = _elab(term.source, env, path + ("source",))
        if source_ty != ProducerT(term.var_ty):
            _err(f"sequencing source has type {source_ty}, expected {ProducerT(term.var_ty)}",
                 term.source, path + ("source",))
        inner = dict(env)
        inner[term.var] = term.var_ty
        body, body_ty = _elab(term.body, inner, path + ("body",))
        if not is_comp_type(body_ty):
            _err(f"sequencing body must be a computation, found {body_ty}",
                 term.body, path + ("body",))
        return _eta_to(source, term.var, term.var_ty, body, body_ty, inner)

    if isinstance(term, Pifz):
        scrut, scrut_ty = _elab(term.scrut, env, path + ("scrut",))
        if scrut_ty != INT:
            _err(f"pifz scrutinee must be int, found {scrut_ty}", term.scrut,
                 path + ("scrut",))
        z, z_ty = _elab(term.if_zero, env, path + ("if_zero",))
        if not is_comp_type(z_ty):
            _err(f"pifz branches must be computations, found {z_ty}",
                 term.if_zero, path + ("if_zero",))
        nz, nz_ty = _elab(term.if_nonzero, env, path + ("if_nonzero",))
        if z_ty != nz_ty:
            _err(f"pifz branches disagree: {z_ty} vs {nz_ty}", term, path)
        return _eta_pifz(scrut, z, nz, z_ty, env)

    if isinstance(term, Obs):
        arg, arg_ty = _elab(term.arg, env, path + ("arg",))
        if arg_ty != FVUNIT:
            _err(f"tester argument must have type {FVUNIT}, found {arg_ty}",
                 term.arg, path + ("arg",))
        return Obs(term.bound, arg), UNIT

    raise TypeCheckError(f"not a term: {term!r}")
