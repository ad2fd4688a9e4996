"""Surface syntax: tokens, precedence, sugar, printing, round trips."""

import dataclasses
import hashlib
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cbpvdp.surface import (
    _AND_THEN, _CONTINUES, _INFIX, _STARTS_PRIMARY, KEYWORDS,
    PIF_MAX_THRESHOLD, ParseError, Parser, parse, parse_type_text,
    print_term, tokenize,
)
from cbpvdp.syntax import (
    FVUNIT, INT, UNIT, VUNIT,
    Abort, App, ArrowT, DistT, Do, Force, Ifz, IntT, Lambda, NChoice, NumLit,
    Obs, Pair, PChoice, Pifz, Pred, Proj1, Proj2, Produce, ProducerT, ProdT,
    Rec, Ret, Seq, Star, Succ, Thunk, ThunkT, To, UnitT, Var,
    _CHILD_FIELDS, and_then, canon, case_tag, eq0_then, eq1_then, omega,
    pcase, pif_le, por, pswitch, psum,
)
from cbpvdp.harness import GenPolicy, TermGen
from cbpvdp.typecheck import TypeCheckError, elaborate


def roundtrip(text):
    # Parsed variables carry no annotations; the checked core, which gives
    # them their binders' types, is compared field by field.
    t = parse(text)
    assert elaborate(parse(print_term(t)))[0] == elaborate(t)[0]
    return t


# Tokens ----------------------------------------------------------------------

TOKEN_TABLE = [
    ("λx ∗ ⊕ ⊓ ⊗ → ←",
     [("\\", "\\", (1, 1)), ("name", "x", (1, 2)), ("*", "*", (1, 4)),
      ("(+)", "(+)", (1, 6)), ("/\\", "/\\", (1, 8)),
      ("/\\", "/\\", (1, 10)), ("->", "->", (1, 12)),
      ("<-", "<-", (1, 14)), ("eof", "eof", (1, 15))]),
    ("a eq0& b eq1& c",
     [("name", "a", (1, 1)), ("eq0&", "eq0&", (1, 3)),
      ("name", "b", (1, 8)), ("eq1&", "eq1&", (1, 10)),
      ("name", "c", (1, 15)), ("eof", "eof", (1, 16))]),
    ("eq0&eq1&",
     [("eq0&", "eq0&", (1, 1)), ("eq1&", "eq1&", (1, 5)),
      ("eof", "eof", (1, 9))]),
    ("foo&bar",
     [("name", "foo", (1, 1)), ("&", "&", (1, 4)), ("name", "bar", (1, 5)),
      ("eof", "eof", (1, 8))]),
    ("eq1 & x",
     [("name", "eq1", (1, 1)), ("&", "&", (1, 5)), ("name", "x", (1, 7)),
      ("eof", "eof", (1, 8))]),
    ("\tx\t\ty",
     [("name", "x", (1, 2)), ("name", "y", (1, 5)), ("eof", "eof", (1, 6))]),
    ("x\r\ny\r\n",
     [("name", "x", (1, 1)), ("name", "y", (2, 1)), ("eof", "eof", (3, 1))]),
    ("x\n\n\ny",
     [("name", "x", (1, 1)), ("name", "y", (4, 1)), ("eof", "eof", (4, 2))]),
    ("x # note\ny",
     [("name", "x", (1, 1)), ("name", "y", (2, 1)), ("eof", "eof", (2, 2))]),
    # A comment at the end of the input: eof sits after the comment.
    ("x # note",
     [("name", "x", (1, 1)), ("eof", "eof", (1, 9))]),
    ("# only a comment", [("eof", "eof", (1, 17))]),
    ("é x'_1 _a x²",
     [("name", "é", (1, 1)), ("name", "x'_1", (1, 3)),
      ("name", "_a", (1, 8)), ("name", "x²", (1, 11)),
      ("eof", "eof", (1, 13))]),
    ("12 ٣4",
     [("num", "12", (1, 1)), ("num", "٣4", (1, 4)), ("eof", "eof", (1, 6))]),
    ("(+) /\\ \\/ -> <- ( ) [ ] { } | ; : , . * & / \\",
     [("(+)", "(+)", (1, 1)), ("/\\", "/\\", (1, 5)),
      ("\\/", "\\/", (1, 8)), ("->", "->", (1, 11)), ("<-", "<-", (1, 14)),
      ("(", "(", (1, 17)), (")", ")", (1, 19)), ("[", "[", (1, 21)),
      ("]", "]", (1, 23)), ("{", "{", (1, 25)), ("}", "}", (1, 27)),
      ("|", "|", (1, 29)), (";", ";", (1, 31)), (":", ":", (1, 33)),
      (",", ",", (1, 35)), (".", ".", (1, 37)), ("*", "*", (1, 39)),
      ("&", "&", (1, 41)), ("/", "/", (1, 43)), ("\\", "\\", (1, 45)),
      ("eof", "eof", (1, 46))]),
    ("thunk rec in U pif pifz",
     [("thunk", "thunk", (1, 1)), ("rec", "rec", (1, 7)),
      ("in", "in", (1, 11)), ("U", "U", (1, 14)), ("pif", "pif", (1, 16)),
      ("pifz", "pifz", (1, 20)), ("eof", "eof", (1, 24))]),
]


@pytest.mark.parametrize("text,want", TOKEN_TABLE)
def test_tokenize_table(text, want):
    assert tokenize(text) == want


def test_unexpected_character_position():
    with pytest.raises(ParseError) as info:
        tokenize("(+ )")
    assert (info.value.message, info.value.line, info.value.col) == \
        ("unexpected character '+'", 1, 2)


# A reference scanner: one regex match per token, after skipped blanks and at
# most one comment, with a named group per kind of token. It is independent of
# surface.tokenize's split scanner and must agree with it on every input.
_REF_ALIAS = {
    "λ": "\\", "∗": "*", "⊕": "(+)", "⊓": "/\\", "⊗": "/\\",
    "→": "->", "←": "<-",
}
_REF_TOKEN = re.compile(r"""
    [ \t\r]*(?:\#[^\n]*)?
    (?:(?P<op>eq[01]&|\(\+\)|/\\|\\/|->|<-|[()\[\]{}|;:,.*&/\\])
      |(?P<word>[A-Za-z_][\w']*)
      |(?P<num>\d+)
      |(?P<nl>\n)
      |(?P<alias>[λ∗⊕⊓⊗→←])
      |(?P<uword>[^\W\d][\w']*)
      |(?P<eof>\Z))
""", re.VERBOSE)
_REF_BLANKS = re.compile(r"[ \t\r]*")


def reference_tokenize(text):
    out = []
    i = line_start = 0
    line = 1
    while True:
        m = _REF_TOKEN.match(text, i)
        if m is None:
            i = _REF_BLANKS.match(text, i).end()
            raise ParseError(f"unexpected character {text[i]!r}",
                             line, i - line_start + 1)
        group = m.lastgroup
        tok = m[group]
        i = m.end()
        span = (line, i - len(tok) - line_start + 1)
        if group == "op":
            out.append((tok, tok, span))
        elif group == "word":
            out.append((tok if tok in KEYWORDS else "name", tok, span))
        elif group == "num":
            out.append(("num", tok, span))
        elif group == "nl":
            line += 1
            line_start = i
        elif group == "alias":
            out.append((_REF_ALIAS[tok], _REF_ALIAS[tok], span))
        elif group == "uword":
            if not tok[0].isalpha():
                raise ParseError(f"unexpected character {tok[0]!r}", *span)
            out.append(("name", tok, span))
        else:
            out.append(("eof", "eof", span))
            return out


def _scan(tokenizer, text):
    """The token list, or the (message, line, col) of the ParseError."""
    try:
        return tokenizer(text)
    except ParseError as e:
        return (e.message, e.line, e.col)


@pytest.mark.parametrize("text,want", TOKEN_TABLE)
def test_reference_scanner_agrees_with_the_table(text, want):
    assert reference_tokenize(text) == want


_PIECES = (
    "(+)", "/\\", "\\/", "->", "<-", "eq0&", "eq1&", *"()[]{}|;:,.*&/\\",
    *"λ∗⊕⊓⊗→←", "+", "-", "<", "$", "\f",
    "thunk", "ret", "rec", "in", "to", "pif", "U", "F", "eq0", "eq1",
    "x", "x'", "_a", "y_1", "f''", "é", "xλ",
    "0", "12", "٣", "٣4", "²", "①",
    " ", "  ", "\t", "\r", "\n", "\r\n", "# c (+)", "#",
)


@settings(max_examples=600)
@given(st.lists(st.sampled_from(_PIECES), max_size=24).map("".join))
def test_tokenize_agrees_with_the_reference_scanner(text):
    assert _scan(tokenize, text) == _scan(reference_tokenize, text)


# Types -----------------------------------------------------------------------


def test_type_atoms():
    assert parse_type_text("unit") is UNIT
    assert parse_type_text("int") is INT
    assert parse_type_text("V unit") is VUNIT
    assert parse_type_text("F V unit") is FVUNIT
    assert parse_type_text("U F V unit") is ThunkT(FVUNIT)


def test_type_arrow_right_associative():
    ty = parse_type_text("int -> int -> F unit")
    assert ty == ArrowT(INT, ArrowT(INT, ProducerT(UNIT)))


def test_type_product_left_associative():
    ty = parse_type_text("unit * int * unit")
    assert ty == ProdT(ProdT(UNIT, INT), UNIT)


# Well-formed types drawn from the seven constructors.
_value_types = st.deferred(lambda: st.one_of(
    st.builds(UnitT), st.builds(IntT),
    st.builds(ProdT, _value_types, _value_types),
    st.builds(DistT, _value_types), st.builds(ThunkT, _comp_types)))
_comp_types = st.deferred(lambda: st.one_of(
    st.builds(ProducerT, _value_types),
    st.builds(ArrowT, _value_types, _comp_types)))


def _built_again(ty):
    return type(ty)(*[_built_again(getattr(ty, part)) for part in ty._parts])


@given(st.one_of(_value_types, _comp_types))
def test_a_type_is_one_object(ty):
    assert _built_again(ty) is ty
    assert parse_type_text(str(ty)) is ty


# Each type's text and repr, as printed when types were dataclasses.
TYPE_RENDERINGS = [
    (UNIT, "unit", "UnitT()"),
    (INT, "int", "IntT()"),
    (VUNIT, "V unit", "DistT(elem=UnitT())"),
    (FVUNIT, "F V unit", "ProducerT(elem=DistT(elem=UnitT()))"),
    (ProdT(ProdT(UNIT, INT), UNIT), "((unit * int) * unit)",
     "ProdT(fst=ProdT(fst=UnitT(), snd=IntT()), snd=UnitT())"),
    (ThunkT(ArrowT(INT, ProducerT(ProdT(INT, DistT(UNIT))))),
     "U (int -> F (int * V unit))",
     "ThunkT(comp=ArrowT(arg=IntT(), res=ProducerT(elem=ProdT(fst=IntT(), "
     "snd=DistT(elem=UnitT())))))"),
    (ArrowT(ProdT(UNIT, INT), ArrowT(ThunkT(FVUNIT), ProducerT(INT))),
     "((unit * int) -> (U F V unit -> F int))",
     "ArrowT(arg=ProdT(fst=UnitT(), snd=IntT()), res=ArrowT(arg=ThunkT("
     "comp=ProducerT(elem=DistT(elem=UnitT()))), res=ProducerT("
     "elem=IntT())))"),
    (DistT(ThunkT(ProducerT(UNIT))), "V U F unit",
     "DistT(elem=ThunkT(comp=ProducerT(elem=UnitT())))"),
]


@pytest.mark.parametrize("ty, text, rendered", TYPE_RENDERINGS)
def test_type_text_and_repr_are_pinned(ty, text, rendered):
    assert str(ty) == text
    assert repr(ty) == rendered


def test_a_type_takes_exactly_its_parts():
    with pytest.raises(ValueError):
        ProdT(UNIT)
    with pytest.raises(ValueError):
        DistT(UNIT, INT)
    assert ProdT(UNIT, INT).text == "(unit * int)"


def test_type_kind_mismatches():
    with pytest.raises(ParseError):
        parse_type_text("F (F unit)")
    with pytest.raises(ParseError):
        parse_type_text("V (F unit)")
    with pytest.raises(ParseError):
        parse_type_text("U unit")
    with pytest.raises(ParseError):
        parse_type_text("unit -> int")


@pytest.mark.parametrize("read, text, message, col", [
    (parse_type_text, "int -> int",
     "arrow result must be a computation type", 5),
    (parse_type_text, "int * F int",
     "product components must be value types", 5),
    (parse, "pswitch[int] 1 {produce 1}",
     "pswitch needs a computation type", 1),
    (parse, "abort[int]", "abort needs a computation type", 1),
    (parse, "pcase[int] {* -> produce (ret *)}",
     "pcase needs a computation type", 1),
])
def test_kind_errors_name_their_position(read, text, message, col):
    with pytest.raises(ParseError) as info:
        read(text)
    assert (info.value.message, info.value.line, info.value.col) == \
        (message, 1, col)


# Precedence and association --------------------------------------------------


def test_prefix_takes_one_primary():
    t = parse("\\g : U (int -> F V unit). force g 3")
    assert isinstance(t, Lambda)
    assert isinstance(t.body, App)
    assert isinstance(t.body.fn, Force)
    assert t.body.arg == NumLit(3)


def test_application_left_associative():
    t = parse("\\f : U (int -> int -> F unit). force f 1 2")
    assert t.body == App(App(Force(Var("f")), NumLit(1)), NumLit(2))


def test_choice_tiers():
    a, b, c = Ret(NumLit(1)), Ret(NumLit(2)), Ret(NumLit(3))
    assert parse("ret 1 (+) ret 2 /\\ ret 3") == NChoice(PChoice(a, b), c)
    assert parse("ret 1 /\\ ret 2 (+) ret 3") == NChoice(a, PChoice(b, c))
    assert parse("ret 1 (+) ret 2 (+) ret 3") == \
        PChoice(PChoice(a, b), c)


def test_trailing_forms_right_greedy():
    t = parse("* ; * ; produce (ret *)")
    assert t == Seq(Star(), Seq(Star(), Produce(Ret(Star()))))
    t2 = parse("produce (ret *) to x : V unit in * ; produce x")
    assert isinstance(t2, To)
    assert isinstance(t2.body, Seq)


def test_ifz_three_primaries():
    t = parse("ifz 0 (succ 1) 2")
    assert t == Ifz(NumLit(0), Succ(NumLit(1)), NumLit(2))
    t2 = parse("pifz 0 (produce (ret 1)) (produce (ret 2))")
    assert isinstance(t2, Pifz)


def test_pairs_and_grouping():
    assert parse("(1, 2)") == Pair(NumLit(1), NumLit(2))
    assert parse("(1)") == NumLit(1)
    assert parse("((1, 2), *)") == Pair(Pair(NumLit(1), NumLit(2)), Star())


def test_a_group_closes_at_its_parenthesis():
    assert _spans(parse("((x))")) == [("Var", (1, 3))]
    for text, found in (("(x ]", "']'"), ("(x", "'eof'"), ("(x, *", "'eof'")):
        with pytest.raises(ParseError, match=f"expected '\\)', found {found}"):
            parse(text)


# Every tag that may follow a whole term, with "" for the end of input.
CLOSING_TAGS = (")", ",", "]", "}", "|", "in", "->", ":", "")


def test_continuing_tags_are_the_operand_loop_tables():
    assert _CONTINUES == (_STARTS_PRIMARY | set(_INFIX) | set(_AND_THEN)
                          | {"to", ";"})
    assert not _CONTINUES & set(CLOSING_TAGS)


def _var(name, col):
    span = (1, col)
    return Var(name, span)


# A primary alone, then a term ending in each continuing tag's form, with
# the tree it parses to, built by hand with the parser's spans. A derived
# form's own nodes have no span.
CONTINUED = [
    ("succ p", Succ(_var("p", 6), (1, 1))),
    ("p q", App(_var("p", 1), _var("q", 3), (1, 1))),
    ("p \\/ q", por(_var("p", 1), _var("q", 6))),
    ("p /\\ q", NChoice(_var("p", 1), _var("q", 6), (1, 3))),
    ("p (+) q", PChoice(_var("p", 1), _var("q", 7), (1, 3))),
    ("p to y : int in q", To(_var("p", 1), "y", INT, _var("q", 17), (1, 3))),
    ("* ; q", Seq(Star((1, 1)), _var("q", 5), (1, 3))),
    ("p & q", and_then(_var("p", 1), _var("q", 5))),
    ("p eq0& q", eq0_then(_var("p", 1), _var("q", 8))),
    ("p eq1& q", eq1_then(_var("p", 1), _var("q", 8))),
]


@pytest.mark.parametrize("closing", CLOSING_TAGS, ids=repr)
@pytest.mark.parametrize("text, want", CONTINUED,
                         ids=[text for text, _ in CONTINUED])
def test_a_term_stops_at_each_closing_tag(text, want, closing):
    p = Parser(f"{text} {closing}")
    got = p.parse_term()
    assert got == want and _spans(got) == _spans(want)
    assert p.tags[p.pos] == (closing or "eof")


def test_binder_scoping_and_shadowing():
    # The parser resolves no names: a variable it builds is its name, and
    # checking reads each occurrence's type off its nearest binder.
    t = parse("\\x : int. \\x : unit. produce x")
    assert t.body.body == Produce(Var("x"))
    assert elaborate(t)[1] is ArrowT(INT, ArrowT(UNIT, ProducerT(UNIT)))
    u = parse("\\x : int. produce x")
    assert elaborate(u)[1] is ArrowT(INT, ProducerT(INT))
    # Leaving a binder restores the outer binding, or none.
    v = parse("\\x : int. (\\x : unit. produce x) * to y : unit in "
              "produce x")
    assert elaborate(v)[1] is ArrowT(INT, ProducerT(INT))
    w = parse("(\\x : int. produce x) x")
    assert w.arg == Var("x")
    with pytest.raises(TypeCheckError, match="unbound variable x") as info:
        elaborate(w)
    assert info.value.path == ("arg",)


def test_unbound_variable_parses_without_annotation():
    t = parse("produce y")
    assert t == Produce(Var("y"))


def test_unicode_aliases():
    assert parse("λx : int. produce (ret x)") == \
        parse("\\x : int. produce (ret x)")
    assert parse("ret ∗ ⊕ ret ∗") == parse("ret * (+) ret *")
    assert parse("produce (ret ∗) ⊗ produce (ret ∗)") == \
        parse("produce (ret *) /\\ produce (ret *)")
    assert parse("do x : unit ← ret ∗ in ret x") == \
        parse("do x : unit <- ret * in ret x")
    assert parse_type_text("int → F unit") == parse_type_text("int -> F unit")


def test_comments():
    t = parse("# heading\nproduce (ret *) # tail comment")
    assert t == Produce(Ret(Star()))


def test_eof_position_after_trailing_comment():
    with pytest.raises(ParseError) as info:
        parse("\\x : int. # c")
    assert (info.value.line, info.value.col) == (1, 14)
    with pytest.raises(ParseError) as info:
        parse("\\x : int. # c\n")
    assert (info.value.line, info.value.col) == (2, 1)


def test_numerals_are_decimal_digits():
    assert parse("ret ٣") == Ret(NumLit(3))
    for text, col in (("ret ²", 5), ("ret 3²", 6), ("\n  ret ①", 7)):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert info.value.message.startswith("unexpected character")
        assert (info.value.line, info.value.col) == (text.count("\n") + 1,
                                                    col)


def test_numerals_beyond_the_integer_string_limit():
    # Python converts at most sys.get_int_max_str_digits() digits; a longer
    # numeral is a parse error at the numeral, in every position one can
    # stand.
    big = "9" * (sys.get_int_max_str_digits() + 1)
    assert parse("ret " + "9" * 4300) == Ret(NumLit(int("9" * 4300)))
    for text in (f"ret {big}",
                 f"[* : {big}]",
                 f"obs[{big}/2] (produce (ret *))",
                 f"obs[1/{big}] (produce (ret *))",
                 f"pif[{big}] 1 (produce (ret *)) (produce (ret *))"):
        source = "produce (ret *) ;\n  " + text
        with pytest.raises(ParseError, match="numeral of 4301 digits is "
                           "too long") as info:
            parse(source)
        assert (info.value.line, info.value.col) == (2, 3 + text.index(big))


def _nested_to(depth):
    return ("produce * to x : unit in (" * depth + "produce (ret *)"
            + ")" * depth)


def test_deep_nesting_is_a_parse_error():
    # Each nested `to` costs the parser three Python frames.
    assert isinstance(parse(_nested_to(300)), To)
    with pytest.raises(ParseError, match="input nested too deeply") as info:
        parse(_nested_to(500))
    assert info.value.line == 1 and info.value.col > 1
    with pytest.raises(ParseError, match="input nested too deeply"):
        parse_type_text("U (" * 2000 + "F unit" + ")" * 2000)


def _spans(term):
    """(node class, span) of every term node, in preorder."""
    out = []

    def walk(x):
        if dataclasses.is_dataclass(x) and hasattr(x, "span"):
            out.append((type(x).__name__, x.span))
            for f in dataclasses.fields(x):
                walk(getattr(x, f.name))
        elif isinstance(x, (list, tuple)):
            for v in x:
                walk(v)

    walk(term)
    return out


SPAN_SOURCE = (
    "# a program over several lines\n"
    "(\\f : U (int -> F V int).\n"
    "   force f (succ 2)) (thunk (\\n : int. produce (ret n)))\n"
    "  to x : V int in\n"
    "do y : int <- x in\n"
    "\tret * (+) ret (pi1 (y, *)) /\\ obs[1/2] (produce x)"
    " ; abort[F V unit]\n"
)


def test_spans_of_every_node():
    assert _spans(parse(SPAN_SOURCE)) == [
        ("To", (4, 3)), ("App", (2, 2)), ("Lambda", (2, 2)),
        ("App", (3, 4)), ("Force", (3, 4)), ("Var", (3, 10)),
        ("Succ", (3, 13)), ("NumLit", (3, 18)), ("Thunk", (3, 23)),
        ("Lambda", (3, 30)), ("Produce", (3, 40)), ("Ret", (3, 49)),
        ("Var", (3, 53)), ("Do", (5, 1)), ("Var", (5, 15)),
        ("Seq", (6, 53)), ("NChoice", (6, 29)), ("PChoice", (6, 8)),
        ("Ret", (6, 2)), ("Star", (6, 6)), ("Ret", (6, 12)),
        ("Proj1", (6, 17)), ("Pair", (6, 21)), ("Var", (6, 22)),
        ("Star", (6, 25)), ("Obs", (6, 32)), ("Produce", (6, 42)),
        ("Var", (6, 50)), ("Abort", (6, 55)),
    ]


def test_spans_of_chained_infix_tiers():
    # Each choice node sits at its operator; tighter tiers fold first and
    # every tier folds to the left.
    assert _spans(parse("ret 1 (+) ret 2 (+) ret 3 /\\ ret 4")) == [
        ("NChoice", (1, 27)), ("PChoice", (1, 17)), ("PChoice", (1, 7)),
        ("Ret", (1, 1)), ("NumLit", (1, 5)), ("Ret", (1, 11)),
        ("NumLit", (1, 15)), ("Ret", (1, 21)), ("NumLit", (1, 25)),
        ("Ret", (1, 30)), ("NumLit", (1, 34)),
    ]
    assert _spans(parse("ret 1 /\\ ret 2 (+) ret 3 /\\ ret 4")) == [
        ("NChoice", (1, 26)), ("NChoice", (1, 7)), ("Ret", (1, 1)),
        ("NumLit", (1, 5)), ("PChoice", (1, 16)), ("Ret", (1, 10)),
        ("NumLit", (1, 14)), ("Ret", (1, 20)), ("NumLit", (1, 24)),
        ("Ret", (1, 29)), ("NumLit", (1, 33)),
    ]
    # A \/ chain expands into por nodes, which carry no span.
    t = parse("x \\/ y \\/ * \\/ (x (+) y)")
    x, y = Var("x"), Var("y")
    assert t == por(por(por(x, y), Star()), PChoice(x, y))
    assert [s for s in _spans(t) if s[1] is not None] == [
        ("Var", (1, 1)), ("Var", (1, 6)), ("Star", (1, 11)),
        ("PChoice", (1, 19)), ("Var", (1, 17)), ("Var", (1, 23)),
    ]


# SHA-256 of canon and every node's span over 200 printed programs drawn with
# the recfree-text benchmark's generator policy, pinned from the parser with
# one method per infix tier: parsing must keep giving the same nodes and spans.
PARSE_DIGEST = (
    "4bce5f651cd641b68c1e58ffa2a6046725cb7870384fa72c10958f2a2c77b4dc")


def test_parse_output_is_pinned():
    gen = TermGen(GenPolicy(max_depth=7, seed=101))
    digest = hashlib.sha256()
    for _ in range(200):
        t = parse(print_term(gen.term(FVUNIT)))
        digest.update(repr((canon(t), _spans(t))).encode())
    assert digest.hexdigest() == PARSE_DIGEST


# A program over several lines that checks, unlike SPAN_SOURCE: parse
# returns its checked core.
CHECKED_SOURCE = (
    "# a checked program over several lines\n"
    "(\\f : U (int -> F V int).\n"
    "   force f (succ 2)) (thunk (\\n : int. produce (ret n)))\n"
    "  to x : V int in\n"
    "obs[1/2] (produce (do y : int <- x in\n"
    "\tifz y (ret *) (ret * (+) ret (pi1 (*, y)))))\n"
    " ; (produce (ret *) /\\ abort[F V unit])\n"
)


def _kept_facts(term):
    """The names every node of a term keeps outside its dataclass fields."""
    out = set()
    stack = [term]
    while stack:
        x = stack.pop()
        out.update(set(vars(x)) - set(x.__dataclass_fields__))
        stack.extend(getattr(x, f) for f in _CHILD_FIELDS.get(type(x), ()))
    return out


def test_parse_returns_the_checked_core_with_the_parsers_spans():
    t = parse(CHECKED_SOURCE)
    unchecked = Parser(CHECKED_SOURCE).parse_term()
    core, ty = elaborate(t)
    assert core is t and ty is FVUNIT
    assert _kept_facts(t) and not _kept_facts(unchecked)
    assert t == unchecked
    assert _spans(t) == _spans(unchecked)
    assert all(span is not None for _, span in _spans(t))
    assert print_term(t) == print_term(unchecked)


@pytest.mark.parametrize("text", [
    "produce x",
    "produce (ret *) to x : V unit in\n"
    "  ifz 0 (produce (ret *)) (produce (ret 1))",
])
def test_parse_returns_text_that_does_not_check_as_parsed(text):
    t = parse(text)
    assert not _kept_facts(t)
    assert t == Parser(text).parse_term()
    errors = []
    for term in (t, Parser(text).parse_term()):
        with pytest.raises(TypeCheckError) as e:
            elaborate(term)
        errors.append((str(e.value), e.value.span, e.value.path))
    assert errors[0] == errors[1]


def test_parse_and_both_semantics_make_one_table(monkeypatch):
    from cbpvdp import densem, opsem, typecheck

    tables = []

    class CountedTable(typecheck.IdTable):
        def __init__(self):
            super().__init__()
            tables.append(self)

    monkeypatch.setattr(typecheck, "IdTable", CountedTable)
    t = parse(CHECKED_SOURCE)
    op = opsem.pr_limit(t, epsilon=Fraction(0), max_budget=10 ** 4)
    out = densem.evaluate(t)
    assert op.exact and out.exact
    assert len(tables) == 1


# Sugar -----------------------------------------------------------------------


def test_omega_sugar():
    assert parse("omega[V unit]") == omega(VUNIT)
    assert parse("omega[F V unit]") == omega(FVUNIT)
    assert isinstance(parse("omega[F V unit]"), Force)


def test_case_tag_sugar():
    assert parse("[* : 3]") == case_tag(Star(), 3)


def test_por_sugar():
    a = parse("* \\/ *")
    assert a == por(Star(), Star())


def test_and_then_family():
    m = Produce(Ret(Star()))
    assert parse("produce (ret *) & produce (ret *)") == and_then(m, m)
    p = parse("produce 0 eq0& produce (ret *)")
    assert p == eq0_then(Produce(NumLit(0)), m)
    q = parse("produce 1 eq1& produce (ret *)")
    assert q == eq1_then(Produce(NumLit(1)), m)


def test_pif_sugar():
    got = parse("pif[2] 1 (produce (ret 1)) (produce (ret 2))")
    assert got == pif_le(2, NumLit(1),
                         Produce(Ret(NumLit(1))), Produce(Ret(NumLit(2))))


def test_pif_threshold_is_bounded():
    yes = Produce(Ret(Star()))
    at = parse(f"pif[{PIF_MAX_THRESHOLD}] 1 (produce (ret *)) "
               "(produce (ret *))")
    # Dataclass equality recurses twice per node, so compare keys.
    assert canon(at) == canon(pif_le(PIF_MAX_THRESHOLD, NumLit(1), yes, yes))
    # Above the limit the pif token itself is refused, before its scrutinee
    # and branches are parsed.
    with pytest.raises(ParseError, match="pif threshold 513 exceeds") as e:
        parse(f"\\x : int.\n  pif[{PIF_MAX_THRESHOLD + 1}] x (")
    assert (e.value.line, e.value.col) == (2, 3)


def test_pswitch_sugar():
    got = parse("pswitch[F V unit] 1 {produce (ret *) | produce (ret *)}")
    want = pswitch(NumLit(1),
                   [Produce(Ret(Star())), Produce(Ret(Star()))], FVUNIT)
    assert got == want
    empty = parse("pswitch[F V unit] 1 {}")
    assert empty == pswitch(NumLit(1), [], FVUNIT)


def test_pcase_sugar():
    got = parse("pcase[F V unit] {* -> produce (ret *)}")
    assert got == pcase([(Star(), Produce(Ret(Star())))], FVUNIT)


def test_sum_sugar():
    one = parse("sum{ret 1}")
    assert one == psum([Ret(NumLit(1))])
    two = parse("sum{ret 1 | ret 2}")
    assert two == PChoice(Ret(NumLit(1)), Ret(NumLit(2)))
    four = parse("sum{ret 1 | ret 2 | ret 3 | ret 4}")
    assert four == psum([Ret(NumLit(n)) for n in (1, 2, 3, 4)])


def test_obs_bound_parsing():
    t = parse("obs[1/4] (produce (ret *))")
    assert isinstance(t, Obs)
    assert t.bound == Fraction(1, 4)


# Rejections ------------------------------------------------------------------


def test_parse_errors():
    for bad in [
        "",
        "(produce (ret *)",
        "produce (ret *) extra garbage )",
        "obs[0/1] (produce (ret *))",
        "obs[3/2] (produce (ret *))",
        "obs[1/0] (produce (ret *))",
        "abort[int]",
        "pswitch[unit] 1 {}",
        "sum{ret 1 | ret 2 | ret 3}",
        "sum{}",
        "pcase[F V unit] {}",
        "\\to : int. produce (ret *)",
        "rec x. x",
        "do x <- ret * in ret x",
        "(1, 2",
        "[* : ]",
    ]:
        with pytest.raises(ParseError):
            parse(bad)


def test_parse_error_location():
    try:
        parse("produce (ret *)\n   ; ; produce (ret *)")
    except ParseError as e:
        assert (e.line, e.col) == (2, 6)
    else:
        raise AssertionError("expected a parse error")


def test_binder_needs_value_type():
    with pytest.raises(ParseError):
        parse("\\x : F unit. produce (ret *)")
    with pytest.raises(ParseError):
        parse("rec x : 3. x")


# Round trips -----------------------------------------------------------------

FIXTURES = [
    "*",
    "42",
    "produce (ret *)",
    "ret * (+) omega[V unit]",
    "produce (ret *) /\\ produce (ret *)",
    "\\x : int. produce (ret (succ x))",
    "(\\x : int. produce (ret x)) 3",
    "rec u : V unit. (ret * (+) u)",
    "do x : unit <- ret * in ret x",
    "produce (ret 2) to x : V int in produce x",
    "ifz 0 (produce (ret 1)) (produce (ret 2))",
    "pifz (rec x : int. x) (produce (ret 1)) (produce (ret 2))",
    "obs[1/4] (produce (ret *)) ; produce (ret *)",
    "abort[F V unit]",
    "pi1 (1, *)",
    "pi2 (1, *)",
    "force (thunk (produce (ret *)))",
    "[* : 2]",
    "pif[1] 0 (produce (ret *)) abort[F V unit]",
    "* \\/ *",
    "produce 0 eq0& produce (ret *)",
]


@pytest.mark.parametrize("text", FIXTURES)
def test_roundtrip_fixtures(text):
    roundtrip(text)


def test_print_is_stable():
    for text in FIXTURES:
        once = print_term(parse(text))
        again = print_term(parse(once))
        assert once == again


def test_roundtrip_generated_corpus():
    gen = TermGen(GenPolicy(seed=11, max_depth=6, rec_probability=0.3,
                            omega_weight=1))
    for _ in range(150):
        t = gen.term(FVUNIT)
        assert elaborate(parse(print_term(t)))[0] == elaborate(t)[0]


# Printing --------------------------------------------------------------------

_BIG = 10 ** 4301  # past Python's default integer string limit
_UNIT_PRODUCER = Produce(Ret(Star()))

# One term of every node class and its printed text, pinned from the printer
# with one isinstance branch per class.
PRINTED = [
    (Var("x"), "x"),
    (Star(), "*"),
    (NumLit(42), "42"),
    (Abort(ArrowT(INT, ArrowT(UNIT, FVUNIT))),
     "(abort[(int -> (unit -> F V unit))])"),
    (Lambda("x", INT, Produce(Var("x"))), "(\\x : int. (produce x))"),
    (App(Var("f"), NumLit(1)), "(f 1)"),
    (Rec("u", VUNIT, Var("u")), "(rec u : V unit. u)"),
    (Succ(NumLit(1)), "(succ 1)"),
    (Pred(NumLit(0)), "(pred 0)"),
    (Thunk(_UNIT_PRODUCER), "(thunk (produce (ret *)))"),
    (Force(Var("t")), "(force t)"),
    (Seq(Star(), _UNIT_PRODUCER), "(* ; (produce (ret *)))"),
    (Ifz(NumLit(0), NumLit(1), NumLit(2)), "(ifz 0 1 2)"),
    (Proj1(Pair(NumLit(1), Star())), "(pi1 (1, *))"),
    (Proj2(Var("p")), "(pi2 p)"),
    (Pair(Pair(Star(), NumLit(2)), Star()), "((*, 2), *)"),
    (PChoice(Ret(Star()), Ret(NumLit(1))), "((ret *) (+) (ret 1))"),
    (Ret(Star()), "(ret *)"),
    (Do("y", INT, Ret(NumLit(3)), Ret(Var("y"))),
     "(do y : int <- (ret 3) in (ret y))"),
    (NChoice(_UNIT_PRODUCER, _UNIT_PRODUCER),
     "((produce (ret *)) /\\ (produce (ret *)))"),
    (Produce(NumLit(7)), "(produce 7)"),
    (To(Produce(NumLit(1)), "z", INT, Produce(Ret(Var("z")))),
     "((produce 1) to z : int in (produce (ret z)))"),
    (Pifz(NumLit(0), _UNIT_PRODUCER, Abort(FVUNIT)),
     "(pifz 0 (produce (ret *)) (abort[F V unit]))"),
    (Obs(Fraction(1, _BIG), _UNIT_PRODUCER),
     "(obs[1/1" + "0" * 4301 + "] (produce (ret *)))"),
]


def test_printed_table_covers_every_class():
    assert [type(t) for t, _ in PRINTED] == list(_CHILD_FIELDS)


@pytest.mark.parametrize("term, text", PRINTED,
                         ids=[type(t).__name__ for t, _ in PRINTED])
def test_print_term_table(term, text):
    assert print_term(term) == text


def test_print_term_refuses_a_non_term():
    with pytest.raises(ValueError, match="cannot print 3"):
        print_term(3)


# Chains 900 deep, built from the innermost node out, and their printed
# text. The printer takes one Python frame per level, so each prints under
# the default recursion limit.
def _chain(depth, wrap, inner):
    for _ in range(depth):
        inner = wrap(inner)
    return inner


DEEP_CHAINS = [
    (lambda t: To(Produce(Star()), "x", UNIT, t), _UNIT_PRODUCER,
     "((produce *) to x : unit in ", "(produce (ret *))", ")"),
    (Succ, NumLit(0), "(succ ", "0", ")"),
    (lambda t: Ifz(NumLit(0), t, NumLit(1)), NumLit(2), "(ifz 0 ", "2",
     " 1)"),
    (lambda t: App(t, Star()), Var("f"), "(", "f", " *)"),
    (lambda t: PChoice(Ret(Star()), t), Ret(Star()), "((ret *) (+) ",
     "(ret *)", ")"),
]


@pytest.mark.parametrize("wrap, inner, head, middle, tail", DEEP_CHAINS,
                         ids=["to", "succ", "ifz", "app", "pchoice"])
def test_deep_chains_print(wrap, inner, head, middle, tail):
    term = _chain(900, wrap, inner)
    assert print_term(term) == head * 900 + middle + tail * 900
