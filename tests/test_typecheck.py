"""Type synthesis, elaboration of extended notations, and the typing of
configurations as plugged terms."""

from fractions import Fraction

import pytest

from cbpvdp import surface
from cbpvdp.syntax import (
    FVUNIT, INT, UNIT, VUNIT,
    Abort, App, ArrowT, DistT, Do, EvalContext, Ifz, Lambda, NChoice, NumLit,
    Obs, Pair, Pifz, Produce, ProducerT, ProdT, Rec, Ret, Star, Succ, Thunk,
    To, Var,
    HOLE, PRODUCE_HOLE, PRODUCE_RET_HOLE, plug,
)
from cbpvdp.typecheck import TypeCheckError, check, elaborate, synth


def s(text):
    return surface.parse(text)


def test_basic_types():
    assert synth(s("*")) == UNIT
    assert synth(s("42")) == INT
    assert synth(s("(*, 3)")) == ProdT(UNIT, INT)
    assert synth(s("ret *")) == VUNIT
    assert synth(s("produce (ret *)")) == FVUNIT
    assert synth(s("thunk (produce *)")).comp == ProducerT(UNIT)
    assert synth(s("\\x : int. produce x")) == ArrowT(INT, ProducerT(INT))


def test_binder_scoping():
    assert synth(s("(\\x : int. produce x) 3")) == ProducerT(INT)
    with pytest.raises(TypeCheckError, match="unbound"):
        synth(s("produce x"))


def test_annotation_mismatch_rejected():
    bad = Lambda("x", INT, Produce(Var("x", UNIT)))
    with pytest.raises(TypeCheckError, match="annotated"):
        synth(bad)


def test_arith_and_branches():
    assert synth(s("succ (pred 3)")) == INT
    assert synth(s("ifz 0 * *")) == UNIT
    with pytest.raises(TypeCheckError, match="disagree"):
        synth(s("ifz 0 * 3"))
    with pytest.raises(TypeCheckError, match="must be int"):
        synth(s("ifz * * *"))


def test_choice_typing():
    assert synth(s("ret * (+) ret *")) == VUNIT
    with pytest.raises(TypeCheckError):
        synth(s("* (+) *"))
    assert synth(s("produce * /\\ produce *")) == ProducerT(UNIT)
    with pytest.raises(TypeCheckError):
        synth(s("ret * /\\ ret *"))


def test_do_typing():
    assert synth(s("do x : unit <- ret * in ret x")) == VUNIT
    with pytest.raises(TypeCheckError, match="distribution"):
        synth(s("do x : unit <- ret * in produce x"))


def test_obs_typing():
    assert synth(s("obs[1/4] (produce (ret *))")) == UNIT
    with pytest.raises(TypeCheckError, match="tester argument"):
        synth(s("obs[1/4] (produce *)"))


def test_seq_head_must_be_unit():
    with pytest.raises(TypeCheckError, match="unit"):
        synth(s("3 ; produce *"))


def test_to_at_producer_stays_put():
    core, ty = elaborate(s("produce * to x : unit in produce x"))
    assert isinstance(core, To)
    assert ty == ProducerT(UNIT)


def test_to_at_arrow_eta_expands():
    term = s("produce * to x : unit in \\y : int. produce y")
    core, ty = elaborate(term)
    assert ty == ArrowT(INT, ProducerT(INT))
    # the elaborated form is an abstraction whose body sequences at a
    # producer type
    assert isinstance(core, Lambda)
    assert isinstance(core.body, To)
    assert isinstance(core.body.body, App)
    assert synth(core) == ty


def test_pifz_at_arrow_eta_expands():
    term = s("pifz 0 (\\y : int. produce y) (\\y : int. produce (succ y))")
    core, ty = elaborate(term)
    assert ty == ArrowT(INT, ProducerT(INT))
    assert isinstance(core, Lambda)
    assert isinstance(core.body, Pifz)
    assert synth(core) == ty


def test_abort_at_arrow_eta_expands():
    core, ty = elaborate(Abort(ArrowT(INT, ProducerT(UNIT))))
    assert ty == ArrowT(INT, ProducerT(UNIT))
    assert isinstance(core, Lambda)
    assert isinstance(core.body, Abort)
    assert core.body.cty == ProducerT(UNIT)


def test_nested_arrow_elaboration():
    term = s("produce * to x : unit in \\y : int. \\z : int. produce y")
    core, ty = elaborate(term)
    assert ty == ArrowT(INT, ArrowT(INT, ProducerT(INT)))
    assert synth(core) == ty
    # elaboration pushes the sequencing under both lambdas
    assert isinstance(core, Lambda)
    assert isinstance(core.body, Lambda)
    assert isinstance(core.body.body, To)


def test_rec_typing():
    assert synth(s("rec x : V int. ret 0 (+) x")) == DistT(INT)
    with pytest.raises(TypeCheckError, match="expected"):
        synth(s("rec x : V int. ret *"))


def check_config(ctx, focus):
    return check(plug(ctx, focus), FVUNIT)


def test_check_context_empty_shapes():
    check_config(EvalContext(HOLE, ()), s("produce (ret *)"))
    check_config(EvalContext(PRODUCE_HOLE, ()), Ret(Star()))
    check_config(EvalContext(PRODUCE_RET_HOLE, ()), Star())
    with pytest.raises(TypeCheckError, match="expected type F V unit"):
        check_config(EvalContext(PRODUCE_HOLE, ()), NumLit(3))
    with pytest.raises(TypeCheckError, match="expected type F V unit"):
        check_config(EvalContext(PRODUCE_RET_HOLE, ()), NumLit(3))


def test_check_context_frames():
    ctx = EvalContext(HOLE, ()).push(
        To(Star(), "x", VUNIT, Produce(Var("x", VUNIT))))
    check_config(ctx, s("produce (ret *)"))
    ctx2 = ctx.push(App(Star(), NumLit(2)))
    check_config(ctx2, s("\\n : int. produce (ret *)"))
    with pytest.raises(TypeCheckError, match="arrow type"):
        check_config(ctx2, s("produce (ret *)"))


def test_check_context_rejects_result_mismatch():
    # A sequencing frame yields a computation, but the produce shape needs
    # a value of type V unit in its hole.
    ctx = EvalContext(PRODUCE_HOLE, ()).push(
        To(Star(), "x", VUNIT, Produce(Var("x", VUNIT))))
    with pytest.raises(TypeCheckError, match="produced value"):
        check_config(ctx, s("produce (ret *)"))


def test_check_context_rejects_bad_embedded_term():
    ctx = EvalContext(HOLE, ()).push(To(Star(), "x", VUNIT, Produce(Star())))
    with pytest.raises(TypeCheckError, match="expected type F V unit"):
        check_config(ctx, s("produce (ret *)"))


def test_check_against_expected():
    assert check(s("produce (ret *)"), FVUNIT)
    with pytest.raises(TypeCheckError, match="expected type"):
        check(s("produce *"), FVUNIT)


def test_error_carries_span():
    try:
        synth(s("produce y"))
    except TypeCheckError as e:
        assert e.span is not None
    else:
        raise AssertionError("expected a type error")


def test_elaborating_a_core_again_returns_it():
    core, ty = elaborate(s("produce (ret * (+) ret *) to x : V unit in produce x"))
    again, again_ty = elaborate(core)
    assert again is core and again_ty == ty == FVUNIT
    assert check(core, FVUNIT) is core
    assert synth(core) == FVUNIT
    with pytest.raises(TypeCheckError, match="expected type"):
        check(core, VUNIT)


def test_elaborating_an_open_core_subterm_still_checks_scope():
    # An ifz node of a core keeps its type too, but not as a closed core's.
    core, _ = elaborate(s("\\x : int. ifz x (produce x) (produce 0)"))
    assert core.body._node_ty == ProducerT(INT)
    with pytest.raises(TypeCheckError, match="unbound variable x"):
        elaborate(core.body)


# Every error branch of the elaborator, pinned by its message, its path from
# the root and its span. Terms the parser cannot express are built directly,
# with a span of their own.
FUNIT = ProducerT(UNIT)
_BAD_INT = Succ(Star())
_BAD_PRODUCE = Produce(_BAD_INT)
_Y = Var("y", DistT(INT))
ELAB_ERRORS = {
    "unbound": (
        s("\\x : int. produce y"),
        "unbound variable y at line 1, column 19 (under .body.value)",
        ("body", "value"), (1, 19)),
    "annotated": (
        Lambda("x", INT, Produce(Var("x", UNIT, span=(1, 9)))),
        "variable x is bound at int, annotated unit at line 1, column 9 "
        "(under .body.value)",
        ("body", "value"), (1, 9)),
    "abort-value-type": (
        Thunk(Abort(INT, span=(1, 7))),
        "abort needs a computation type, found int at line 1, column 7 "
        "(under .comp)",
        ("comp",), (1, 7)),
    "lambda-var": (
        Lambda("x", FUNIT, Produce(Star()), span=(1, 1)),
        "a bound variable must have a value type, found F unit at line 1, "
        "column 1",
        (), (1, 1)),
    "lambda-body": (
        s("\\x : int. x"),
        "function body must be a computation, found int at line 1, column 1",
        (), (1, 1)),
    "app-head": (
        s("(produce *) 3"),
        "application head must have arrow type, found F unit at line 1, "
        "column 2 (under .fn)",
        ("fn",), (1, 2)),
    "app-arg": (
        s("(\\x : int. produce x) *"),
        "argument type unit does not match parameter type int at line 1, "
        "column 23 (under .arg)",
        ("arg",), (1, 23)),
    "rec-var": (
        Rec("f", FUNIT, Var("f", FUNIT), span=(1, 1)),
        "a recursion variable must have a value type, found F unit at line "
        "1, column 1",
        (), (1, 1)),
    "rec-body": (
        s("rec x : V int. ret *"),
        "recursion body has type V unit, expected V int at line 1, column 1",
        (), (1, 1)),
    "succ": (
        s("succ *"),
        "arithmetic argument must be int, found unit at line 1, column 6 "
        "(under .arg)",
        ("arg",), (1, 6)),
    "pred": (
        s("pred *"),
        "arithmetic argument must be int, found unit at line 1, column 6 "
        "(under .arg)",
        ("arg",), (1, 6)),
    "thunk": (
        s("thunk 3"),
        "thunk expects a computation, found int at line 1, column 7 "
        "(under .comp)",
        ("comp",), (1, 7)),
    "force": (
        s("force 3"),
        "force expects a thunk, found int at line 1, column 7 (under .thunk)",
        ("thunk",), (1, 7)),
    "seq": (
        s("3 ; produce *"),
        "sequencing head must be unit, found int at line 1, column 1 "
        "(under .first)",
        ("first",), (1, 1)),
    "ifz-scrut": (
        s("ifz * * *"),
        "ifz scrutinee must be int, found unit at line 1, column 5 "
        "(under .scrut)",
        ("scrut",), (1, 5)),
    "ifz-branches": (
        s("ifz 0 * 3"),
        "ifz branches disagree: unit vs int at line 1, column 1",
        (), (1, 1)),
    "proj1": (
        s("pi1 3"),
        "projection expects a pair, found int at line 1, column 5 "
        "(under .pair)",
        ("pair",), (1, 5)),
    "proj2": (
        s("pi2 3"),
        "projection expects a pair, found int at line 1, column 5 "
        "(under .pair)",
        ("pair",), (1, 5)),
    "pchoice-arm": (
        s("* (+) *"),
        "probabilistic choice needs distribution-typed arms, found unit at "
        "line 1, column 1 (under .left)",
        ("left",), (1, 1)),
    "pchoice-arms": (
        s("ret * (+) ret 3"),
        "choice arms disagree: V unit vs V int at line 1, column 7",
        (), (1, 7)),
    "do-var": (
        Do("x", FUNIT, Ret(Star()), Ret(Star()), span=(1, 1)),
        "a bound variable must have a value type, found F unit at line 1, "
        "column 1",
        (), (1, 1)),
    "do-source": (
        s("do x : int <- ret * in ret x"),
        "bind source has type V unit, expected V int at line 1, column 15 "
        "(under .source)",
        ("source",), (1, 15)),
    "do-body": (
        s("do x : unit <- ret * in produce x"),
        "bind body must be distribution-typed, found F unit at line 1, "
        "column 25 (under .body)",
        ("body",), (1, 25)),
    "nchoice-arm": (
        s("ret * /\\ ret *"),
        "demonic choice needs producer-typed arms, found V unit at line 1, "
        "column 1 (under .left)",
        ("left",), (1, 1)),
    "nchoice-arms": (
        s("produce * /\\ produce 3"),
        "choice arms disagree: F unit vs F int at line 1, column 11",
        (), (1, 11)),
    "produce": (
        s("produce (\\x : int. produce x)"),
        "a produced value must have a value type, found (int -> F int) at "
        "line 1, column 1",
        (), (1, 1)),
    "to-var": (
        To(Produce(Star()), "x", FUNIT, Produce(Star()), span=(1, 1)),
        "a bound variable must have a value type, found F unit at line 1, "
        "column 1",
        (), (1, 1)),
    "to-source": (
        s("produce * to x : int in produce x"),
        "sequencing source has type F unit, expected F int at line 1, "
        "column 1 (under .source)",
        ("source",), (1, 1)),
    "to-body": (
        s("produce * to x : unit in x"),
        "sequencing body must be a computation, found unit at line 1, "
        "column 26 (under .body)",
        ("body",), (1, 26)),
    "pifz-scrut": (
        s("pifz * (produce *) (produce *)"),
        "pifz scrutinee must be int, found unit at line 1, column 6 "
        "(under .scrut)",
        ("scrut",), (1, 6)),
    "pifz-branch": (
        s("pifz 0 * *"),
        "pifz branches must be computations, found unit at line 1, column 8 "
        "(under .if_zero)",
        ("if_zero",), (1, 8)),
    "pifz-branches": (
        s("pifz 0 (produce *) (produce 3)"),
        "pifz branches disagree: F unit vs F int at line 1, column 1",
        (), (1, 1)),
    "obs": (
        s("obs[1/4] (produce *)"),
        "tester argument must have type F V unit, found F unit at line 1, "
        "column 11 (under .arg)",
        ("arg",), (1, 11)),
    "deep": (
        s("\\x : int. (\\y : int. produce (succ *)) x"),
        "arithmetic argument must be int, found unit at line 1, column 36 "
        "(under .body.fn.body.value.arg)",
        ("body", "fn", "body", "value", "arg"), (1, 36)),
    # One node object in two fields of one parent: the path names the
    # field elaborated first.
    "shared-pair": (
        Pair(_BAD_INT, _BAD_INT),
        "arithmetic argument must be int, found unit (under .fst.arg)",
        ("fst", "arg"), None),
    "shared-ifz": (
        Ifz(NumLit(0), _BAD_PRODUCE, _BAD_PRODUCE),
        "arithmetic argument must be int, found unit "
        "(under .if_zero.value.arg)",
        ("if_zero", "value", "arg"), None),
    "shared-nchoice": (
        NChoice(_BAD_PRODUCE, _BAD_PRODUCE),
        "arithmetic argument must be int, found unit (under .left.value.arg)",
        ("left", "value", "arg"), None),
    # The one shared node whose two fields are checked in different scopes:
    # the source is checked outside the do's binding of y, the body inside,
    # where the error arises. The path still names the first field.
    "shared-do": (
        Lambda("y", DistT(INT), Produce(Do("y", INT, _Y, _Y))),
        "variable y is bound at int, annotated V int "
        "(under .body.value.source)",
        ("body", "value", "source"), None),
    "not-a-term": (42, "not a term: 42", (), None),
    "nested-not-a-term": (Thunk(42), "not a term: 42", (), None),
}


@pytest.mark.parametrize("case", sorted(ELAB_ERRORS))
def test_every_elaboration_error_is_pinned(case):
    term, message, path, span = ELAB_ERRORS[case]
    with pytest.raises(TypeCheckError) as exc:
        elaborate(term)
    err = exc.value
    assert (str(err), err.path, err.span) == (message, path, span)
    assert err.args == (message,)


# An error below each child field of each form reports the whole path.
@pytest.mark.parametrize("text,path,span", [
    ("(succ *, 3)", ("fst", "arg"), (1, 7)),
    ("(3, succ *)", ("snd", "arg"), (1, 10)),
    ("ret (succ *)", ("value", "arg"), (1, 11)),
    ("produce (succ *)", ("value", "arg"), (1, 15)),
    ("ifz 0 (succ *) 3", ("if_zero", "arg"), (1, 13)),
    ("ifz 0 3 (succ *)", ("if_nonzero", "arg"), (1, 15)),
    ("pifz 0 (produce 3) (produce (succ *))",
     ("if_nonzero", "value", "arg"), (1, 35)),
    ("* ; produce (succ *)", ("rest", "value", "arg"), (1, 19)),
    ("ret 3 (+) ret (succ *)", ("right", "value", "arg"), (1, 21)),
    ("produce 3 /\\ produce (succ *)", ("right", "value", "arg"), (1, 28)),
    ("do x : int <- ret (succ *) in ret x",
     ("source", "value", "arg"), (1, 25)),
    ("do x : int <- ret 3 in ret (succ *)", ("body", "value", "arg"),
     (1, 34)),
    ("produce (succ *) to x : int in produce x",
     ("source", "value", "arg"), (1, 15)),
    ("produce 3 to x : int in produce (succ *)", ("body", "value", "arg"),
     (1, 39)),
    ("rec u : V int. ret (succ *)", ("body", "value", "arg"), (1, 26)),
    ("obs[1/2] (produce (ret (succ *)))", ("arg", "value", "value", "arg"),
     (1, 30)),
    ("force (thunk (produce (succ *)))", ("thunk", "comp", "value", "arg"),
     (1, 29)),
    ("pi2 (*, succ *)", ("pair", "snd", "arg"), (1, 14)),
    ("(\\x : int. produce x) (succ *)", ("arg", "arg"), (1, 29)),
    # pswitch shares its scrutinee among its threshold tests; pcase puts
    # each guard under a case tag.
    ("pswitch[F V unit] (succ *) {produce (ret *) | produce (ret *)}",
     ("scrut", "arg", "arg"), (1, 25)),
    ("pcase[F V unit] {(succ *) -> produce (ret *) | * -> produce (ret *)}",
     ("source", "left", "scrut", "first", "arg"), (1, 24)),
])
def test_errors_below_every_field_carry_their_path(text, path, span):
    with pytest.raises(TypeCheckError) as exc:
        elaborate(s(text))
    assert (exc.value.path, exc.value.span) == (path, span)


def test_every_node_class_has_an_elaborator_and_an_evaluator_handler():
    from cbpvdp import densem, typecheck
    from cbpvdp.syntax import _CHILD_FIELDS

    assert set(typecheck._ELAB) == set(_CHILD_FIELDS)
    assert set(densem._EVAL) == set(_CHILD_FIELDS)
