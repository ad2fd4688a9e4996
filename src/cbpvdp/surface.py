"""Surface grammar: scanner, parser and printer.

The scanner splits the text with one regular expression into the tokens
the parser reads: a tag, which is all the parser tests, the text, and the
(line, col) span. The parser descends recursively through binders and
primaries. Between them one operand loop applies each primary to the
primaries that follow it and folds the three infix tiers by precedence
climbing, so a nesting level costs no frame for application; a primary
followed by a tag that continues no term (_CONTINUES) is returned before
the loop starts. It builds every node through its class's constructor,
with the span of the token that introduces it, the one tuple the scanner
made; sugar expands through the derived forms of syntax, whose nodes have
no span.

Terms
    binder forms    \\x : T. M        rec x : T. M
                    do x : T <- M in N
    trailing forms  M to x : T in N   M ; N    M & N    M eq0& N    M eq1& N
    infix           M \\/ N   (parallel or, loosest)
                    M /\\ N   (demonic choice)
                    M (+) N  (fair coin)
    application     juxtaposition, left associative
    primaries       *   numerals   variables   (M)   (M, N)   [M : n]
                    thunk P   force P   produce P   ret P   succ P   pred P
                    pi1 P   pi2 P   obs[p/q] P   ifz P P P   pifz P P P
                    pif[n] P P P   omega[T]   abort[T]
                    pswitch[T] P {M | ... | M}   (branch list may be empty)
                    pcase[T] {M -> N | ... | M -> N}
                    sum{M | ... | M}   (count must be a power of two)

Types
    atoms           unit   int   U A   F A   V A   (T)
    products        A * A ...       (left associative)
    arrows          T -> T          (right associative)

Numerals are runs of decimal digits; a name starts with a letter or _ and
goes on with letters, digits, _ and '. Comments run from # to end of line.
Unicode aliases: λ for \\, ∗ for *, ⊕ for (+), ⊓ and ⊗ for /\\, → for ->,
← for <-.

The parser resolves no names: a variable is its name and its span, and
typecheck reads each occurrence's type off its binder. parse checks the
tree it builds once, through typecheck.elaborate, and returns the checked
core of a term that checks. That core keeps the parser's spans and prints
as the tree does, and both semantics and the CLI read it without a second
check. A term that does not check comes back as the parser built it, so
the caller's own check raises the error; Parser(text).parse_term() always
gives the unchecked tree. Printing emits fully parenthesized surface
syntax, spelling the prefix and infix forms from the parser's own tables.
A round trip is judged by parse and check: the checked core of the printed
term equals the checked core of the term.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from operator import itemgetter

from . import typecheck
from .syntax import (
    INT, UNIT,
    Abort, App, ArrowT, DistT, Do, Force, Ifz, Lambda, NChoice, NumLit,
    Obs, Pair, PChoice, Pifz, Pred, Proj1, Proj2, Produce, ProducerT, ProdT,
    Rec, Ret, Seq, Star, Succ, Term, Thunk, ThunkT, To, Type, Var,
    _CHILD_FIELDS, and_then, case_tag, digits, eq0_then, eq1_then,
    fraction_text, is_comp_type, is_value_type, omega, pcase, pif_le, por,
    pswitch, psum,
)


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        self.message = message
        self.line = line
        self.col = col
        super().__init__(f"parse error at line {line}, column {col}: {message}")


KEYWORDS = frozenset({
    "thunk", "force", "produce", "ret", "rec", "to", "in", "do", "ifz",
    "pifz", "abort", "succ", "pred", "pi1", "pi2", "obs", "omega", "pif",
    "pswitch", "pcase", "sum", "unit", "int", "U", "F", "V",
})

# pif[n] unfolds into n nested pred nodes, and every later walk (checking,
# keys, substitution, evaluation) recurses through them. Larger thresholds
# are a parse error, leaving the interpreter's recursion limit headroom for
# the nesting around the test.
PIF_MAX_THRESHOLD = 512

_ALIAS = {
    "λ": "\\", "∗": "*", "⊕": "(+)", "⊓": "/\\", "⊗": "/\\",
    "→": "->", "←": "<-",
}

# One re.split over one capturing group: the pieces alternate between the
# text before a token, which must be blanks, and the token. A comment is a
# token that is dropped; it runs to the newline, the next token. "eq0&"
# and "eq1&" are operators only when written without a space. A word may
# start with any character of [^\W\d], which also admits digits such as
# "²" that are not decimal: such a start is refused as unexpected.
_SPLIT = re.compile(r"""(
    eq[01]&|\(\+\)|/\\|\\/|->|<-|[()\[\]{}|;:,.*&/\\λ∗⊕⊓⊗→←]
    |[^\W\d][\w']*|\d+|\n|\#[^\n]*
)""", re.VERBOSE).split

# The tag of every token spelled one fixed way, which is also its text: an
# operator's or keyword's ASCII spelling, and "eof" for "", the end of input
# that tokenize appends (no match of _SPLIT is empty).
_FIXED = {
    **{op: op for op in ("eq0&", "eq1&", "(+)", "/\\", "\\/", "->", "<-",
                         *"()[]{}|;:,.*&/\\")},
    **_ALIAS,
    **{kw: kw for kw in KEYWORDS},
    "": "eof",
}


def tokenize(text: str) -> list:
    """Split text into (tag, text, span) tuples, the last tagged "eof". A
    token spelled one fixed way has its tag as its text: an operator's or
    keyword's ASCII spelling (an alias's too), or "eof". Any other token is
    tagged "name" or "num". The span is the token's (line, col), counting
    from 1."""
    parts = _SPLIT(text)
    parts.append("")
    out = []
    append = out.append
    fixed = _FIXED.get
    line = 1
    offset = line_start = 0
    for i in range(1, len(parts), 2):
        gap = parts[i - 1]
        if gap:
            if gap != " ":
                rest = gap.lstrip(" \t\r")
                if rest:
                    raise ParseError(
                        f"unexpected character {rest[0]!r}", line,
                        offset + len(gap) - len(rest) - line_start + 1)
            offset += len(gap)
        tok = parts[i]
        col = offset - line_start + 1
        offset += len(tok)
        tag = fixed(tok)
        if tag is not None:
            append((tag, tag, (line, col)))
            continue
        c = tok[0]
        if c.isalpha() or c == "_":
            append(("name", tok, (line, col)))
        elif c.isdecimal():
            append(("num", tok, (line, col)))
        elif c == "\n":
            line += 1
            line_start = offset
        elif c != "#":
            raise ParseError(f"unexpected character {c!r}", line, col)
    return out


# The class of each prefix form: its keyword, then one primary per child,
# built from its children and span. The forms of _THREE take three; the
# rest take one.
_PREFIX = {
    "thunk": Thunk, "force": Force, "produce": Produce, "ret": Ret,
    "succ": Succ, "pred": Pred, "pi1": Proj1, "pi2": Proj2,
    "ifz": Ifz, "pifz": Pifz,
}
_THREE = frozenset((Ifz, Pifz))

_STARTS_PRIMARY = frozenset({
    "num", "name", "*", "(", "[", "obs", "omega", "abort", "pif", "pswitch",
    "pcase", "sum", *_PREFIX,
})

_AND_THEN = {"&": and_then, "eq0&": eq0_then, "eq1&": eq1_then}

# The infix tiers, loosest first; every tier is left associative. The class
# of each choice node; parallel or expands through por instead.
_INFIX = {"\\/": 1, "/\\": 2, "(+)": 3}
_CHOICE = {"/\\": NChoice, "(+)": PChoice}

# Every tag on which parse_term goes on past its first primary: one that
# starts an operand, an infix operator, or a trailing form. parse_term
# returns a primary followed by any other tag at once.
_CONTINUES = frozenset({*_STARTS_PRIMARY, *_INFIX, *_AND_THEN, "to", ";"})

# The type formers of one atom, with the kind of type each one needs.
_WRAP = {"U": (ThunkT, is_comp_type, "a computation"),
         "F": (ProducerT, is_value_type, "a value"),
         "V": (DistT, is_value_type, "a value")}


class Parser:
    def __init__(self, text: str):
        self.tokens = tokens = tokenize(text)
        self.tags = list(map(itemgetter(0), tokens))
        self.pos = 0

    # Token plumbing ---------------------------------------------------

    def advance(self) -> tuple:
        """Step past the current token; return its span."""
        span = self.tokens[self.pos][2]
        self.pos += 1
        return span

    def expect(self, tag: str) -> str:
        """Step past the current token, which must have this tag; return
        its text."""
        t = self.tokens[self.pos]
        if t[0] != tag:
            self.fail(f"expected {tag!r}, found {t[1]!r}")
        self.pos += 1
        return t[1]

    def fail(self, message: str, span: tuple = None):
        """Raise a ParseError at span, by default the current token's. It is
        raised alone: never chained to an exception being handled, whose
        traceback may be thousands of frames deep."""
        line, col = span or self.tokens[self.pos][2]
        raise ParseError(message, line, col) from None

    def numeral(self) -> int:
        """Step past a num token; return its value. Python refuses to
        convert a numeral longer than its integer string limit
        (sys.get_int_max_str_digits)."""
        span = self.tokens[self.pos][2]
        text = self.expect("num")
        try:
            return int(text)
        except ValueError:
            self.fail(f"numeral of {len(text)} digits is too long "
                      f"(at most {sys.get_int_max_str_digits()})", span)

    # Types ------------------------------------------------------------

    def parse_type(self) -> Type:
        left = self.parse_type_prod()
        if self.tags[self.pos] == "->":
            span = self.advance()
            if not is_value_type(left):
                self.fail("arrow argument must be a value type", span)
            res = self.parse_type()
            if not is_comp_type(res):
                self.fail("arrow result must be a computation type", span)
            return ArrowT(left, res)
        return left

    def parse_type_prod(self) -> Type:
        left = self.parse_type_atom()
        while self.tags[self.pos] == "*":
            span = self.advance()
            right = self.parse_type_atom()
            if not (is_value_type(left) and is_value_type(right)):
                self.fail("product components must be value types", span)
            left = ProdT(left, right)
        return left

    def parse_type_atom(self) -> Type:
        tag, text, span = self.tokens[self.pos]
        self.pos += 1
        if tag == "unit":
            return UNIT
        if tag == "int":
            return INT
        wrap = _WRAP.get(tag)
        if wrap is not None:
            ctor, fits, kind = wrap
            inner = self.parse_type_atom()
            if not fits(inner):
                self.fail(f"{tag} needs {kind} type", span)
            return ctor(inner)
        if tag == "(":
            inner = self.parse_type()
            self.expect(")")
            return inner
        self.fail(f"expected a type, found {text!r}", span)

    # Terms ------------------------------------------------------------

    def parse_term(self) -> Term:
        tag = self.tags[self.pos]
        if tag == "\\" or tag == "rec":
            span = self.advance()
            name = self.expect("name")
            self.expect(":")
            ty = self.parse_value_type()
            self.expect(".")
            ctor = Lambda if tag == "\\" else Rec
            return ctor(name, ty, self.parse_term(), span)

        if tag == "do":
            span = self.advance()
            name = self.expect("name")
            self.expect(":")
            ty = self.parse_value_type()
            self.expect("<-")
            source = self.parse_term()
            self.expect("in")
            return Do(name, ty, source, self.parse_term(), span)

        # The operand loop: a primary applies every primary that follows
        # it, left associative. Between operands, precedence climbing over
        # the infix tiers (_INFIX): an operator first folds every pending
        # operator of its own tier or a tighter one, so each tier
        # associates to the left.
        tags = self.tags
        left = self.parse_primary()
        if tags[self.pos] not in _CONTINUES:
            return left
        pending = []
        while True:
            tag = tags[self.pos]
            if tag in _STARTS_PRIMARY:
                left = App(left, self.parse_primary(), left.span)
                continue
            prec = _INFIX.get(tag, 0)
            while pending and pending[-1][0] >= prec:
                _, cls, span, first = pending.pop()
                left = (por(first, left) if cls is None
                        else cls(first, left, span))
            if not prec:
                break
            pending.append((prec, _CHOICE.get(tag), self.advance(), left))
            left = self.parse_primary()

        if tag == "to":
            span = self.advance()
            name = self.expect("name")
            self.expect(":")
            ty = self.parse_value_type()
            self.expect("in")
            return To(left, name, ty, self.parse_term(), span)
        if tag == ";":
            span = self.advance()
            return Seq(left, self.parse_term(), span)
        sugar = _AND_THEN.get(tag)
        if sugar is not None:
            self.pos += 1
            return sugar(left, self.parse_term())
        return left

    def parse_value_type(self) -> Type:
        span = self.tokens[self.pos][2]
        ty = self.parse_type()
        if not is_value_type(ty):
            self.fail(f"binder needs a value type, found {ty}", span)
        return ty

    def parse_primary(self) -> Term:
        tag, text, span = self.tokens[self.pos]

        cls = _PREFIX.get(tag)
        if cls is not None:
            self.pos += 1
            if cls in _THREE:
                return cls(self.parse_primary(), self.parse_primary(),
                           self.parse_primary(), span)
            return cls(self.parse_primary(), span)

        if tag == "(":
            self.pos += 1
            first = self.parse_term()
            tag, text, _ = self.tokens[self.pos]
            if tag == ")":
                self.pos += 1
                return first
            if tag != ",":
                self.fail(f"expected ')', found {text!r}")
            self.pos += 1
            second = self.parse_term()
            self.expect(")")
            return Pair(first, second, span)

        if tag == "name":
            self.pos += 1
            return Var(text, span)

        if tag == "num":
            return NumLit(self.numeral(), span)

        if tag == "*":
            self.pos += 1
            return Star(span)

        if tag == "[":
            self.pos += 1
            guard = self.parse_term()
            self.expect(":")
            case = self.numeral()
            self.expect("]")
            return case_tag(guard, case)

        if tag == "obs":
            self.pos += 1
            self.expect("[")
            num = self.numeral()
            self.expect("/")
            den = self.numeral()
            self.expect("]")
            if den == 0:
                self.fail("tester bound has zero denominator", span)
            bound = Fraction(num, den)
            if not (0 < bound < 1):
                self.fail(f"tester bound must lie strictly between 0 and 1, "
                          f"got {bound}", span)
            return Obs(bound, self.parse_primary(), span)
        if tag == "omega":
            return omega(self.parse_type_index())
        if tag == "abort":
            return Abort(self.parse_type_index(), span)
        if tag == "pif":
            self.pos += 1
            self.expect("[")
            n = self.numeral()
            if n > PIF_MAX_THRESHOLD:
                self.fail(f"pif threshold {n} exceeds the limit of "
                          f"{PIF_MAX_THRESHOLD}", span)
            self.expect("]")
            return pif_le(n, self.parse_primary(), self.parse_primary(),
                          self.parse_primary())
        if tag == "pswitch":
            ty = self.parse_type_index()
            scrut = self.parse_primary()
            branches = self.parse_branch_list(allow_empty=True)
            return pswitch(scrut, branches, ty)
        if tag == "pcase":
            ty = self.parse_type_index()
            self.expect("{")
            branches = []
            while True:
                guard = self.parse_term()
                self.expect("->")
                body = self.parse_term()
                branches.append((guard, body))
                if self.tags[self.pos] == "|":
                    self.pos += 1
                    continue
                break
            self.expect("}")
            return pcase(branches, ty)
        if tag == "sum":
            self.pos += 1
            terms = self.parse_branch_list(allow_empty=False)
            if len(terms) & (len(terms) - 1):
                self.fail(f"sum needs a power-of-two branch count, got "
                          f"{len(terms)}", span)
            return psum(terms)

        self.fail(f"expected a term, found {text!r}")

    def parse_type_index(self) -> Type:
        """The bracketed type after the keyword at the current token. Every
        keyword that takes one but omega needs a computation type."""
        tag = self.tags[self.pos]
        span = self.advance()
        self.expect("[")
        ty = self.parse_type()
        self.expect("]")
        if tag != "omega" and not is_comp_type(ty):
            self.fail(f"{tag} needs a computation type", span)
        return ty

    def parse_branch_list(self, allow_empty: bool) -> list:
        self.expect("{")
        branches = []
        if self.tags[self.pos] == "}":
            if not allow_empty:
                self.fail("branch list may not be empty")
            self.pos += 1
            return branches
        while True:
            branches.append(self.parse_term())
            if self.tags[self.pos] == "|":
                self.pos += 1
                continue
            break
        self.expect("}")
        return branches

    def expect_eof(self):
        if self.tags[self.pos] != "eof":
            self.fail(f"trailing input {self.tokens[self.pos][1]!r}")


def _parse_whole(text: str, rule):
    """Run one rule of a parser over the text; the whole input must be
    consumed. Running out of Python stack is a parse error at the token
    being parsed when it ran out."""
    p = Parser(text)
    try:
        out = rule(p)
    except RecursionError:
        p.fail("input nested too deeply")
    p.expect_eof()
    return out


def parse(text: str) -> Term:
    """Parse a single term; the whole input must be consumed. A term that
    checks comes back as its checked core, which keeps the parser's spans
    and its type, so each semantics' own check returns it at once. A term
    that does not (ill-typed, open, or too deep to elaborate) comes back as
    parsed, so the caller's check raises its error."""
    term = _parse_whole(text, Parser.parse_term)
    try:
        return typecheck.elaborate(term)[0]
    except (typecheck.TypeCheckError, RecursionError):
        return term


def parse_type_text(text: str) -> Type:
    return _parse_whole(text, Parser.parse_type)


# Printing --------------------------------------------------------------------


# The spelling of each prefix form's keyword, and of each binary form's
# separator between its two children.
_PREFIX_TEXT = {cls: kw for kw, cls in _PREFIX.items()}
_BINARY_TEXT = {Pair: ", ", App: " ", Seq: " ; ",
                **{cls: f" {op} " for op, cls in _CHOICE.items()}}


def print_term(term: Term) -> str:
    """Fully parenthesized surface form; parses back to a term with the
    same checked core. Each nesting level takes one Python frame."""
    cls = type(term)
    kw = _PREFIX_TEXT.get(cls)
    if kw is not None:
        if cls in _THREE:
            return (f"({kw} {print_term(term.scrut)} "
                    f"{print_term(term.if_zero)} "
                    f"{print_term(term.if_nonzero)})")
        return f"({kw} {print_term(getattr(term, _CHILD_FIELDS[cls][0]))})"
    if cls is NumLit:
        return digits(term.value)
    if cls is Star:
        return "*"
    if cls is Var:
        return term.name
    sep = _BINARY_TEXT.get(cls)
    if sep is not None:
        left, right = _CHILD_FIELDS[cls]
        return (f"({print_term(getattr(term, left))}{sep}"
                f"{print_term(getattr(term, right))})")
    if cls is Lambda:
        return f"(\\{term.var} : {term.var_ty}. {print_term(term.body)})"
    if cls is Rec:
        return f"(rec {term.var} : {term.var_ty}. {print_term(term.body)})"
    if cls is To:
        return (f"({print_term(term.source)} to {term.var} : {term.var_ty} "
                f"in {print_term(term.body)})")
    if cls is Do:
        return (f"(do {term.var} : {term.var_ty} <- {print_term(term.source)} "
                f"in {print_term(term.body)})")
    if cls is Abort:
        return f"(abort[{term.cty}])"
    if cls is Obs:
        return f"(obs[{fraction_text(term.bound)}] {print_term(term.arg)})"
    raise ValueError(f"cannot print {term!r}")
