"""Surface syntax: tokens, precedence, sugar, printing, round trips."""

import dataclasses
import hashlib
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cbpvdp.surface import (
    KEYWORDS, PIF_MAX_THRESHOLD, ParseError, parse, parse_type_text,
    print_term, tokenize,
)
from cbpvdp.syntax import (
    FVUNIT, INT, UNIT, VUNIT,
    App, ArrowT, Force, Ifz, Lambda, NChoice, NumLit, Obs, Pair, PChoice,
    Pifz, Produce, ProducerT, ProdT, Rec, Ret, Seq, Star, Succ, ThunkT, To,
    Var,
    and_then, canon, case_tag, eq0_then, eq1_then, omega, pcase, pif_le,
    por, pswitch, psum,
)
from cbpvdp.harness import GenPolicy, TermGen


def roundtrip(text):
    t = parse(text)
    assert parse(print_term(t)) == t
    return t


# Tokens ----------------------------------------------------------------------

TOKEN_TABLE = [
    ("λx ∗ ⊕ ⊓ ⊗ → ←",
     [("op", "\\", 1, 1), ("name", "x", 1, 2), ("op", "*", 1, 4),
      ("op", "(+)", 1, 6), ("op", "/\\", 1, 8), ("op", "/\\", 1, 10),
      ("op", "->", 1, 12), ("op", "<-", 1, 14), ("eof", "", 1, 15)]),
    ("a eq0& b eq1& c",
     [("name", "a", 1, 1), ("op", "eq0&", 1, 3), ("name", "b", 1, 8),
      ("op", "eq1&", 1, 10), ("name", "c", 1, 15), ("eof", "", 1, 16)]),
    ("eq0&eq1&",
     [("op", "eq0&", 1, 1), ("op", "eq1&", 1, 5), ("eof", "", 1, 9)]),
    ("foo&bar",
     [("name", "foo", 1, 1), ("op", "&", 1, 4), ("name", "bar", 1, 5),
      ("eof", "", 1, 8)]),
    ("eq1 & x",
     [("name", "eq1", 1, 1), ("op", "&", 1, 5), ("name", "x", 1, 7),
      ("eof", "", 1, 8)]),
    ("\tx\t\ty",
     [("name", "x", 1, 2), ("name", "y", 1, 5), ("eof", "", 1, 6)]),
    ("x\r\ny\r\n",
     [("name", "x", 1, 1), ("name", "y", 2, 1), ("eof", "", 3, 1)]),
    ("x\n\n\ny",
     [("name", "x", 1, 1), ("name", "y", 4, 1), ("eof", "", 4, 2)]),
    ("x # note\ny",
     [("name", "x", 1, 1), ("name", "y", 2, 1), ("eof", "", 2, 2)]),
    # A comment at the end of the input: eof sits after the comment.
    ("x # note",
     [("name", "x", 1, 1), ("eof", "", 1, 9)]),
    ("# only a comment", [("eof", "", 1, 17)]),
    ("é x'_1 _a x²",
     [("name", "é", 1, 1), ("name", "x'_1", 1, 3), ("name", "_a", 1, 8),
      ("name", "x²", 1, 11), ("eof", "", 1, 13)]),
    ("12 ٣4",
     [("num", "12", 1, 1), ("num", "٣4", 1, 4), ("eof", "", 1, 6)]),
    ("(+) /\\ \\/ -> <- ( ) [ ] { } | ; : , . * & / \\",
     [("op", "(+)", 1, 1), ("op", "/\\", 1, 5), ("op", "\\/", 1, 8),
      ("op", "->", 1, 11), ("op", "<-", 1, 14), ("op", "(", 1, 17),
      ("op", ")", 1, 19), ("op", "[", 1, 21), ("op", "]", 1, 23),
      ("op", "{", 1, 25), ("op", "}", 1, 27), ("op", "|", 1, 29),
      ("op", ";", 1, 31), ("op", ":", 1, 33), ("op", ",", 1, 35),
      ("op", ".", 1, 37), ("op", "*", 1, 39), ("op", "&", 1, 41),
      ("op", "/", 1, 43), ("op", "\\", 1, 45), ("eof", "", 1, 46)]),
    ("thunk rec in U pif pifz",
     [("kw", "thunk", 1, 1), ("kw", "rec", 1, 7), ("kw", "in", 1, 11),
      ("kw", "U", 1, 14), ("kw", "pif", 1, 16), ("kw", "pifz", 1, 20),
      ("eof", "", 1, 24)]),
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
        col = i - len(tok) - line_start + 1
        if group == "op":
            out.append(("op", tok, line, col))
        elif group == "word":
            out.append(("kw" if tok in KEYWORDS else "name", tok, line, col))
        elif group == "num":
            out.append(("num", tok, line, col))
        elif group == "nl":
            line += 1
            line_start = i
        elif group == "alias":
            out.append(("op", _REF_ALIAS[tok], line, col))
        elif group == "uword":
            if not tok[0].isalpha():
                raise ParseError(f"unexpected character {tok[0]!r}",
                                 line, col)
            out.append(("name", tok, line, col))
        else:
            out.append(("eof", "", line, col))
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
    assert parse_type_text("unit") == UNIT
    assert parse_type_text("int") == INT
    assert parse_type_text("V unit") == VUNIT
    assert parse_type_text("F V unit") == FVUNIT
    assert parse_type_text("U F V unit") == ThunkT(FVUNIT)


def test_type_arrow_right_associative():
    ty = parse_type_text("int -> int -> F unit")
    assert ty == ArrowT(INT, ArrowT(INT, ProducerT(UNIT)))


def test_type_product_left_associative():
    ty = parse_type_text("unit * int * unit")
    assert ty == ProdT(ProdT(UNIT, INT), UNIT)


def test_type_kind_mismatches():
    with pytest.raises(ParseError):
        parse_type_text("F (F unit)")
    with pytest.raises(ParseError):
        parse_type_text("V (F unit)")
    with pytest.raises(ParseError):
        parse_type_text("U unit")
    with pytest.raises(ParseError):
        parse_type_text("unit -> int")


# Precedence and association --------------------------------------------------


def test_prefix_takes_one_primary():
    t = parse("\\g : U (int -> F V unit). force g 3")
    assert isinstance(t, Lambda)
    assert isinstance(t.body, App)
    assert isinstance(t.body.fn, Force)
    assert t.body.arg == NumLit(3)


def test_application_left_associative():
    t = parse("\\f : U (int -> int -> F unit). force f 1 2")
    assert t.body == App(App(Force(Var("f", t.var_ty)), NumLit(1)), NumLit(2))


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


def test_binder_scoping_and_shadowing():
    t = parse("\\x : int. \\x : unit. produce x")
    assert t.body.body == Produce(Var("x", UNIT))
    u = parse("\\x : int. produce x")
    assert u.body == Produce(Var("x", INT))
    # Leaving a binder restores the outer binding, or none.
    v = parse("\\x : int. (\\x : unit. produce x) * to y : unit in "
              "produce x")
    assert v.body.body == Produce(Var("x", INT))
    assert parse("(\\x : int. produce x) x").arg == Var("x", None)


def test_unbound_variable_parses_without_annotation():
    t = parse("produce y")
    assert t == Produce(Var("y", None))


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
    assert isinstance(parse(_nested_to(100)), To)
    with pytest.raises(ParseError, match="input nested too deeply") as info:
        parse(_nested_to(300))
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
    x, y = Var("x", None), Var("y", None)
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
        assert parse(print_term(t)) == t
