"""Type synthesis, elaboration of extended notations, and the typing of
configurations as plugged terms."""

import hashlib
import pathlib
from fractions import Fraction

import pytest

from cbpvdp import densem, opsem, surface
from cbpvdp.harness import GenPolicy, TermGen
from cbpvdp.syntax import (
    FVUNIT, INT, UNIT, VUNIT,
    Abort, App, ArrowT, DistT, Do, EvalContext, Ifz, Lambda, NChoice, NumLit,
    Obs, Pair, Pifz, Produce, ProducerT, ProdT, Proj1, Rec, Ret, Seq, Star,
    Succ, Thunk, ThunkT, To, Var,
    HOLE, PRODUCE_HOLE, PRODUCE_RET_HOLE, _CHILD_FIELDS, IdTable, plug,
)
from cbpvdp.typecheck import TypeCheckError, check, elaborate, synth


def s(text):
    return surface.parse(text)


def tree(text):
    """The parser's unchecked tree of a text, which parse would return
    checked when it checks."""
    return surface.Parser(text).parse_term()


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


def test_to_at_arrow_stays_put():
    term = s("produce * to x : unit in \\y : int. produce y")
    core, ty = elaborate(term)
    assert ty is ArrowT(INT, ProducerT(INT))
    # the core sequences at the arrow type, as written, and keeps its type
    assert type(core) is To and type(core.body) is Lambda
    assert core._node_ty is ty
    assert surface.print_term(core) == surface.print_term(term)
    assert synth(core) is ty


def test_pifz_at_arrow_stays_put():
    term = s("pifz 0 (\\y : int. produce y) (\\y : int. produce (succ y))")
    core, ty = elaborate(term)
    assert ty is ArrowT(INT, ProducerT(INT))
    assert type(core) is Pifz
    assert type(core.if_zero) is Lambda and type(core.if_nonzero) is Lambda
    assert surface.print_term(core) == surface.print_term(term)
    assert synth(core) is ty


def test_abort_at_arrow_stays_put():
    term = Abort(ArrowT(INT, ProducerT(UNIT)))
    core, ty = elaborate(term)
    assert ty is ArrowT(INT, ProducerT(UNIT))
    # a new node, so it can keep its id
    assert type(core) is Abort and core is not term
    assert core.cty is ty
    assert core._ids.index[(Abort, ty)] == core._cid


def test_nested_arrow_elaboration():
    term = s("produce * to x : unit in \\y : int. \\z : int. produce y")
    core, ty = elaborate(term)
    assert ty is ArrowT(INT, ArrowT(INT, ProducerT(INT)))
    assert synth(core) is ty
    # the sequencing stays above both lambdas
    assert type(core) is To and core._node_ty is ty
    assert type(core.body) is Lambda
    assert type(core.body.body) is Lambda
    assert surface.print_term(core) == surface.print_term(term)


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
        To(Star(), "x", VUNIT, Produce(Var("x"))))
    check_config(ctx, s("produce (ret *)"))
    ctx2 = ctx.push(App(Star(), NumLit(2)))
    check_config(ctx2, s("\\n : int. produce (ret *)"))
    with pytest.raises(TypeCheckError, match="arrow type"):
        check_config(ctx2, s("produce (ret *)"))


def test_check_context_rejects_result_mismatch():
    # A sequencing frame yields a computation, but the produce shape needs
    # a value of type V unit in its hole.
    ctx = EvalContext(PRODUCE_HOLE, ()).push(
        To(Star(), "x", VUNIT, Produce(Var("x"))))
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
_PI1_Y = Ret(Proj1(Var("y")))
ELAB_ERRORS = {
    "unbound": (
        s("\\x : int. produce y"),
        "unbound variable y at line 1, column 19 (under .body.value)",
        ("body", "value"), (1, 19)),
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
        Rec("f", FUNIT, Var("f"), span=(1, 1)),
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
        Lambda("y", ProdT(INT, UNIT), Produce(Do("y", INT, _PI1_Y, _PI1_Y))),
        "projection expects a pair, found int "
        "(under .body.value.source.value.pair)",
        ("body", "value", "source", "value", "pair"), None),
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


def _seqs(core):
    stack, out = [core], []
    while stack:
        node = stack.pop()
        if type(node) is Seq:
            out.append(node)
        stack.extend(getattr(node, f) for f in _CHILD_FIELDS[type(node)])
    return out


def test_an_open_node_id_does_not_fix_its_type():
    # A bound variable's id is its de Bruijn index whatever its type, so the
    # two Seq nodes share a key and an id but not a type: ids fix the types
    # of closed nodes only, and each Seq keeps its own.
    core, _ = elaborate(s("(thunk (\\x : int. produce (* ; x)), "
                          "thunk (\\x : unit. produce (* ; x)))"))
    at_int = core.fst.comp.body.value
    at_unit = core.snd.comp.body.value
    assert type(at_int) is Seq and type(at_unit) is Seq
    assert at_int._cid == at_unit._cid
    assert at_int._node_ty is INT and at_unit._node_ty is UNIT
    # With bottom heads, each Seq denotes the bottom of its own type.
    core, _ = elaborate(s(
        "(\\x : int. produce ((rec u : unit. u) ; x)) 5 to a : int in "
        "(\\x : unit. produce ((rec u : unit. u) ; x)) * to b : unit in "
        "produce (a, b)"))
    first, second = _seqs(core)
    assert first._cid == second._cid
    assert {first._node_ty, second._node_ty} == {INT, UNIT}
    tab = densem.Table()
    (pair,) = densem.evaluate(core, tab=tab).value.gens
    assert pair.fst is densem.bottom(INT, tab)
    assert pair.snd is densem.bottom(UNIT, tab)
    assert densem.skey(pair.fst) != densem.skey(pair.snd)


def test_every_node_class_has_an_elaborator_and_an_evaluator_handler():
    from cbpvdp import densem, typecheck
    from cbpvdp.syntax import _CHILD_FIELDS

    assert set(typecheck._ELAB) == set(_CHILD_FIELDS)
    assert set(densem._EVAL) == set(_CHILD_FIELDS)


# The elaborator's whole output, pinned: the printed core and its type, the
# id of every compound node in preorder, and the type each Seq and Ifz keeps.
# Generated programs and the corpus have one pin; the arrow-typed to, pifz
# and abort of eta_sequencing.cbpv and ETA_TEXTS another, so a change to how
# those forms elaborate moves only the second.
ETA_TEXTS = (
    "\\a : int. (produce a to x : int in \\y : int. produce (x, (y, a)))",
    "\\a : int. pifz a (\\y : int. produce (y, a)) "
    "(\\y : int. produce (a, y))",
    "\\a : int. abort[int -> F V unit]",
    "\\a : int. \\b : int. (produce a to x : int in \\y : int. \\z : int. "
    "pifz b (\\w : int. produce (x, (y, (w, z)))) "
    "abort[int -> F (int * (int * (int * int)))])",
)
CORPUS = pathlib.Path(__file__).resolve().parent.parent / "corpus"
ELABORATION_DIGEST = (
    "c46c756422ed898c7a74b436d33f60239652030f3fb14d932e07447d152b0f11")
ETA_DIGEST = (
    "6a085533c194e813bf92d304391969340ef8e769ce6a578d07f87c16a056067c")


def _elaboration_record(core, ty) -> str:
    ids, kept = [], []
    stack = [core]
    while stack:
        node = stack.pop()
        fields = _CHILD_FIELDS[type(node)]
        if not fields:
            continue
        ids.append(node._cid)
        if type(node) in (Seq, Ifz):
            kept.append(str(node._node_ty))
        stack.extend(getattr(node, f) for f in reversed(fields))
    return repr((surface.print_term(core), str(ty), ids, kept))


def _digest(texts) -> str:
    digest = hashlib.sha256()
    for text in texts:
        digest.update(_elaboration_record(*elaborate(s(text))).encode())
    return digest.hexdigest()


def _generated_texts():
    gen = TermGen(GenPolicy(max_depth=7, seed=101))
    return [surface.print_term(gen.term(FVUNIT)) for _ in range(200)]


def test_elaboration_output_is_pinned():
    texts = _generated_texts()
    texts += [p.read_text() for p in sorted(CORPUS.glob("*.cbpv"))
              if p.name != "eta_sequencing.cbpv"]
    assert _digest(texts) == ELABORATION_DIGEST


def test_elaboration_of_arrow_typed_forms_is_pinned():
    texts = [(CORPUS / "eta_sequencing.cbpv").read_text(), *ETA_TEXTS]
    assert _digest(texts) == ETA_DIGEST


def _orphan_ids(core) -> set:
    """The ids of core's table, other than the preset ones, that no node of
    core holds as its _cid and no numeral of core has."""
    ids = core._ids
    held = set()
    stack = [core]
    while stack:
        node = stack.pop()
        if type(node) is NumLit:
            held.add(ids.index[(NumLit, node.value)])
        elif node.__dict__.get("_ids") is ids:
            held.add(node._cid)
        stack.extend(getattr(node, f) for f in _CHILD_FIELDS[type(node)])
    return set(ids.index.values()) - set(IdTable().index.values()) - held


@pytest.mark.parametrize("texts", [ETA_TEXTS, "generated"])
def test_every_id_of_a_core_is_held(texts):
    # A handler interns only the key of the node it builds, so the table of
    # a core holds no id that the core does not use.
    if texts == "generated":
        texts = _generated_texts()
    for text in texts:
        core, _ = elaborate(s(text))
        assert _orphan_ids(core) == set(), text


def _leaf_pairs(term, core):
    """Each leaf of a term with the leaf at the same place in its core,
    which has the term's shape."""
    stack = [(term, core)]
    while stack:
        node, kept = stack.pop()
        assert type(kept) is type(node)
        fields = _CHILD_FIELDS[type(node)]
        if not fields:
            yield node, kept
        stack.extend((getattr(node, f), getattr(kept, f)) for f in fields)


def test_a_core_holds_the_programs_own_leaves():
    # Every Var, Star and NumLit of a parsed program is in its core as the
    # very object; only an abort becomes a new node, which keeps its id.
    texts = _generated_texts()
    texts += [p.read_text() for p in sorted(CORPUS.glob("*.cbpv"))]
    seen = set()
    for text in texts:
        term = tree(text)
        for leaf, kept in _leaf_pairs(term, elaborate(term)[0]):
            seen.add(type(leaf))
            if type(leaf) is Abort:
                assert kept is not leaf and kept == leaf, text
            else:
                assert kept is leaf, text
    assert seen == {Var, Star, NumLit, Abort}


def test_a_binder_costs_one_frame():
    # Each binder elaborates its body from its own handler's frame, so a
    # chain of 900 binders stays under the default recursion limit of
    # 1,000.
    lam, to = Produce(Star()), Produce(Ret(Star()))
    for _ in range(900):
        lam = Lambda("x", INT, lam)
        to = To(Produce(Star()), "x", UNIT, to)
    assert type(elaborate(lam)[1]) is ArrowT
    assert check(to, FVUNIT)


def _is_built(ty):
    """Whether the type and each of its parts is the very object that its
    constructor returns for its parts."""
    parts = [getattr(ty, name) for name in ty._parts]
    return type(ty)(*parts) is ty and all(map(_is_built, parts))


def _core_types(core):
    """Every type a core holds: its own, and each node's binder, kept and
    abort types."""
    out, stack = [core._core_ty], [core]
    while stack:
        node = stack.pop()
        out += [ty for name in ("var_ty", "_node_ty", "cty")
                if (ty := node.__dict__.get(name)) is not None]
        stack.extend(getattr(node, f) for f in _CHILD_FIELDS[type(node)])
    return out


# Derives three pairs, three nested rets, a produce, a lambda, a thunk, a
# ret and a produce; the root's type is built nowhere else.
FRESH_TYPES = ("produce (ret (thunk (\\x : int. produce (ret (ret (ret "
               "((x, *), (*, x))))))))")
FRESH_TEXT = "F V U (int -> F V V V ((int * unit) * (unit * int)))"


def test_derived_types_are_the_objects_their_constructors_return():
    from cbpvdp.syntax import _TYPES

    assert FRESH_TEXT not in {ty.text for ty in _TYPES.values()}
    term = tree(FRESH_TYPES)
    known = len(_TYPES)
    first, ty = elaborate(term)
    # The first elaboration builds the new types through their
    # constructors (the root's at least; other tests may have built some
    # inner ones); the second reads every one of them off the table.
    assert len(_TYPES) > known
    term = tree(FRESH_TYPES)
    known = len(_TYPES)
    second, again = elaborate(term)
    assert len(_TYPES) == known and again is ty
    elem = DistT(DistT(DistT(ProdT(ProdT(INT, UNIT), ProdT(UNIT, INT)))))
    assert ty is ProducerT(DistT(ThunkT(ArrowT(INT, ProducerT(elem)))))
    assert ty.text == FRESH_TEXT
    for core in (first, second):
        types = _core_types(core)
        assert types == [ty, INT]
        assert all(map(_is_built, types))


# Arrow-typed forms stay in the core as written. Applied, each gives the
# bounds and the evaluator mass of its eta expansion written by hand, which
# uses those forms at producer types only; each case pins that mass.
HALF = "produce (ret * (+) (rec u : V unit. u))"
THREE = "produce (ret * (+) (ret * (+) (rec u : V unit. u)))"
NATIVE_FORMS = {
    "to": (
        "(produce 0 /\\ produce 1) to x : int in \\y : int. "
        f"ifz x {THREE} (ifz y (produce (ret *)) {HALF})",
        "\\w : int. ((produce 0 /\\ produce 1) to x : int in "
        f"(\\y : int. ifz x {THREE} (ifz y (produce (ret *)) {HALF})) w)",
        "3", Fraction(1, 2)),
    "to-two-arguments": (
        "produce 1 to x : int in \\y : int. \\z : int. "
        f"ifz z (produce (ret *)) (pifz y {THREE} abort[F V unit])",
        "\\v : int. \\w : int. (produce 1 to x : int in "
        "(\\y : int. \\z : int. "
        f"ifz z (produce (ret *)) (pifz y {THREE} abort[F V unit])) v w)",
        "0 2", Fraction(3, 4)),
    "to-bottom-source": (
        "force (rec t : U F int. t) to x : int in \\y : int. produce (ret *)",
        "\\w : int. (force (rec t : U F int. t) to x : int in "
        "(\\y : int. produce (ret *)) w)",
        "1", Fraction(0)),
    "to-empty-source": (
        "abort[F int] to x : int in \\y : int. \\z : int. "
        "produce (rec u : V unit. u)",
        "\\v : int. \\w : int. (abort[F int] to x : int in "
        "(\\y : int. \\z : int. produce (rec u : V unit. u)) v w)",
        "1 2", Fraction(1)),
    "pifz": (
        f"pifz (rec n : int. n) (\\y : int. {HALF}) "
        "(\\y : int. ifz y abort[F V unit] (produce (ret *)))",
        f"\\w : int. pifz (rec n : int. n) ((\\y : int. {HALF}) w) "
        "((\\y : int. ifz y abort[F V unit] (produce (ret *))) w)",
        "4", Fraction(1, 2)),
    "pifz-two-arguments": (
        f"pifz 0 (\\y : int. \\z : int. ifz z {THREE} (produce (ret *))) "
        "abort[int -> int -> F V unit]",
        "\\v : int. \\w : int. pifz 0 "
        f"((\\y : int. \\z : int. ifz z {THREE} (produce (ret *))) v w) "
        "((\\y : int. \\z : int. abort[F V unit]) v w)",
        "1 0", Fraction(3, 4)),
    "abort": (
        "abort[int -> int -> F V unit]",
        "\\a : int. \\b : int. abort[F V unit]",
        "1 2", Fraction(1)),
    "pcase": (
        "pcase[int -> F V unit] {(rec u : unit. u) -> \\y : int. "
        f"ifz y (produce (ret *)) {THREE} | * -> \\y : int. abort[F V unit]}}",
        "\\w : int. pcase[F V unit] {(rec u : unit. u) -> (\\y : int. "
        f"ifz y (produce (ret *)) {THREE}) w | "
        "* -> (\\y : int. abort[F V unit]) w}",
        "5", Fraction(3, 4)),
    "pswitch": (
        f"pswitch[int -> F V unit] (rec n : int. n) {{\\y : int. {HALF} | "
        "\\y : int. ifz y abort[F V unit] (produce (ret *))}",
        "\\w : int. pswitch[F V unit] (rec n : int. n) "
        f"{{(\\y : int. {HALF}) w | "
        "(\\y : int. ifz y abort[F V unit] (produce (ret *))) w}",
        "7", Fraction(1, 2)),
    "pswitch-two-arguments": (
        "pswitch[int -> int -> F V unit] 2 "
        f"{{\\y : int. \\z : int. {HALF} | "
        f"\\y : int. \\z : int. ifz z (produce (ret *)) {THREE}}}",
        "\\v : int. \\w : int. pswitch[F V unit] 2 "
        f"{{(\\y : int. \\z : int. {HALF}) v w | "
        f"(\\y : int. \\z : int. ifz z (produce (ret *)) {THREE}) v w}}",
        "0 1", Fraction(3, 4)),
}


def _answers(text):
    term = s(text)
    bounds = opsem.pr_limit(term, epsilon=Fraction(0), max_budget=50_000)
    out = densem.evaluate(term)
    return (bounds.lower, bounds.upper), (densem.hstar(out.value), out.exact)


@pytest.mark.parametrize("case", sorted(NATIVE_FORMS))
def test_arrow_typed_forms_agree_with_their_eta_expansions(case):
    native, eta, args, mass = NATIVE_FORMS[case]
    core, ty = elaborate(s(native))
    assert type(ty) is ArrowT
    assert surface.print_term(core) == surface.print_term(s(native))
    assert elaborate(s(eta))[1] is ty
    answers = _answers(f"({native}) {args}")
    assert answers == _answers(f"({eta}) {args}")
    assert answers == ((mass, mass), (mass, True))


def test_an_arrow_typed_to_is_evaluated_where_it_stands():
    # The evaluator evaluates the source of an arrow-typed to once, where
    # the to stands, and not once per application as under an eta
    # expansion. So a to that is never applied still runs its source: here
    # a recursion that does not stabilize makes the value inexact, though
    # the value is that of the eta expansion, whose source never runs. The
    # recursion binds its own call, so it is iterated, not solved.
    source = "produce (rec v : V unit. ret * (+) (do y : unit <- v in v))"
    native = f"{source} to x : V unit in \\y : int. produce x"
    eta = f"\\y : int. ({source} to x : V unit in (\\y : int. produce x) y)"
    unused = ("produce (thunk ({})) to t : U (int -> F V unit) in "
              "produce (ret *)")
    assert _answers(unused.format(native)) == ((1, 1), (1, False))
    assert _answers(unused.format(eta)) == ((1, 1), (1, True))
    value = densem.evaluate(s(unused.format(native))).value
    assert densem.render_value(value) == "must{dist{1 @ tt}}"
