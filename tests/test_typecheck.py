"""Type synthesis, elaboration of extended notations, and the typing of
configurations as plugged terms."""

from fractions import Fraction

import pytest

from cbpvdp import surface
from cbpvdp.syntax import (
    FVUNIT, INT, UNIT, VUNIT,
    Abort, App, ArrowT, DistT, EvalContext, Lambda, NumLit, Obs, Pifz,
    Produce, ProducerT, ProdT, Ret, Star, To, Var,
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
