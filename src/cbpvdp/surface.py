"""Surface grammar: scanner, parser and printer.

The scanner splits the text with one regular expression. The parser
descends recursively through binders, application and primaries, and folds
the three infix tiers in one precedence-climbing loop. It builds every node
through its class's constructor, with the position of the token that
introduces it as its span; sugar expands through the derived forms of
syntax, whose nodes have no span.

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

The parser resolves no names: every variable it builds is unannotated, and
typecheck gives each occurrence its binder's type. Printing emits fully
parenthesized surface syntax, spelling the prefix and infix forms from the
parser's own tables. A round trip is judged by parse and check: the checked
core of the printed term equals the checked core of the term.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction

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

# The (kind, text) of every token spelled one fixed way, and of "", the end
# of input that tokenize appends (no match of _SPLIT is empty).
_FIXED = {
    **{op: ("op", op) for op in ("eq0&", "eq1&", "(+)", "/\\", "\\/", "->",
                                 "<-", *"()[]{}|;:,.*&/\\")},
    **{alias: ("op", op) for alias, op in _ALIAS.items()},
    **{kw: ("kw", kw) for kw in KEYWORDS},
    "": ("eof", ""),
}


def tokenize(text: str) -> list:
    """Split text into (kind, text, line, col) tuples, the last of kind
    "eof". kind is "op", "kw", "name", "num" or "eof"; an alias token
    carries the ASCII spelling; line and col count from 1."""
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
        kind_text = fixed(tok)
        if kind_text is not None:
            append(kind_text + (line, col))
            continue
        c = tok[0]
        if c.isalpha() or c == "_":
            append(("name", tok, line, col))
        elif c.isdecimal():
            append(("num", tok, line, col))
        elif c == "\n":
            line += 1
            line_start = offset
        elif c != "#":
            raise ParseError(f"unexpected character {c!r}", line, col)
    return out


# The parser tests tokens by tag: the text of an "op" or "kw" token, the kind
# of any other. No operator or keyword is spelled "num", "name" or "eof".
_TAG_BY_TEXT = frozenset({"op", "kw"})

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


class Parser:
    def __init__(self, tokens: list):
        self.tokens = tokens
        self.tags = [text if kind in _TAG_BY_TEXT else kind
                     for kind, text, _, _ in tokens]
        self.pos = 0

    # Token plumbing ---------------------------------------------------

    def advance(self) -> tuple:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expect(self, tag: str) -> tuple:
        t = self.tokens[self.pos]
        if self.tags[self.pos] != tag:
            raise ParseError(f"expected {tag!r}, found {t[1] or t[0]!r}",
                             t[2], t[3])
        self.pos += 1
        return t

    def fail(self, message: str):
        t = self.tokens[self.pos]
        raise ParseError(message, t[2], t[3])

    # Types ------------------------------------------------------------

    def parse_type(self) -> Type:
        left = self.parse_type_prod()
        if self.tags[self.pos] == "->":
            tok = self.advance()
            if not is_value_type(left):
                raise ParseError("arrow argument must be a value type",
                                 tok[2], tok[3])
            res = self.parse_type()
            if not is_comp_type(res):
                raise ParseError("arrow result must be a computation type",
                                 tok[2], tok[3])
            return ArrowT(left, res)
        return left

    def parse_type_prod(self) -> Type:
        left = self.parse_type_atom()
        while self.tags[self.pos] == "*":
            tok = self.advance()
            right = self.parse_type_atom()
            if not (is_value_type(left) and is_value_type(right)):
                raise ParseError("product components must be value types",
                                 tok[2], tok[3])
            left = ProdT(left, right)
        return left

    def parse_type_atom(self) -> Type:
        t = self.tokens[self.pos]
        tag = self.tags[self.pos]
        if tag == "unit":
            self.pos += 1
            return UNIT
        if tag == "int":
            self.pos += 1
            return INT
        if tag == "U":
            self.pos += 1
            inner = self.parse_type_atom()
            if not is_comp_type(inner):
                raise ParseError("U needs a computation type", t[2], t[3])
            return ThunkT(inner)
        if tag == "F":
            self.pos += 1
            inner = self.parse_type_atom()
            if not is_value_type(inner):
                raise ParseError("F needs a value type", t[2], t[3])
            return ProducerT(inner)
        if tag == "V":
            self.pos += 1
            inner = self.parse_type_atom()
            if not is_value_type(inner):
                raise ParseError("V needs a value type", t[2], t[3])
            return DistT(inner)
        if tag == "(":
            self.pos += 1
            inner = self.parse_type()
            self.expect(")")
            return inner
        self.fail(f"expected a type, found {t[1] or t[0]!r}")

    # Terms ------------------------------------------------------------

    def parse_term(self) -> Term:
        tag = self.tags[self.pos]
        if tag == "\\" or tag == "rec":
            tok = self.advance()
            name = self.expect("name")[1]
            self.expect(":")
            ty = self.parse_value_type()
            self.expect(".")
            ctor = Lambda if tag == "\\" else Rec
            return ctor(name, ty, self.parse_term(), span=(tok[2], tok[3]))

        if tag == "do":
            tok = self.advance()
            name = self.expect("name")[1]
            self.expect(":")
            ty = self.parse_value_type()
            self.expect("<-")
            source = self.parse_term()
            self.expect("in")
            return Do(name, ty, source, self.parse_term(),
                      span=(tok[2], tok[3]))

        # Precedence climbing over the infix tiers (_INFIX): an operator
        # first folds every pending operator of its own tier or a tighter
        # one, so each tier associates to the left.
        tags = self.tags
        left = self.parse_app()
        pending = []
        while True:
            prec = _INFIX.get(tags[self.pos], 0)
            while pending and pending[-1][0] >= prec:
                _, op, first = pending.pop()
                left = _infix_node(op, first, left)
            if not prec:
                break
            pending.append((prec, self.tokens[self.pos], left))
            self.pos += 1
            left = self.parse_app()

        tag = tags[self.pos]
        if tag == "to":
            tok = self.advance()
            name = self.expect("name")[1]
            self.expect(":")
            ty = self.parse_value_type()
            self.expect("in")
            return To(left, name, ty, self.parse_term(),
                      span=(tok[2], tok[3]))
        if tag == ";":
            tok = self.advance()
            return Seq(left, self.parse_term(), span=(tok[2], tok[3]))
        sugar = _AND_THEN.get(tag)
        if sugar is not None:
            self.pos += 1
            return sugar(left, self.parse_term())
        return left

    def parse_value_type(self) -> Type:
        tok = self.tokens[self.pos]
        ty = self.parse_type()
        if not is_value_type(ty):
            raise ParseError(f"binder needs a value type, found {ty}",
                             tok[2], tok[3])
        return ty

    def parse_app(self) -> Term:
        left = self.parse_primary()
        tags = self.tags
        while tags[self.pos] in _STARTS_PRIMARY:
            left = App(left, self.parse_primary(), left.span)
        return left

    def parse_primary(self) -> Term:
        t = self.tokens[self.pos]
        tag = self.tags[self.pos]

        cls = _PREFIX.get(tag)
        if cls is not None:
            self.pos += 1
            if cls in _THREE:
                return cls(self.parse_primary(), self.parse_primary(),
                           self.parse_primary(), t[2:])
            return cls(self.parse_primary(), t[2:])

        if tag == "(":
            self.pos += 1
            first = self.parse_term()
            if self.tags[self.pos] == ",":
                self.pos += 1
                second = self.parse_term()
                self.expect(")")
                return Pair(first, second, span=(t[2], t[3]))
            self.expect(")")
            return first

        if tag == "name":
            self.pos += 1
            return Var(t[1], None, t[2:])

        if tag == "num":
            self.pos += 1
            return NumLit(_numeral(t), t[2:])

        if tag == "*":
            self.pos += 1
            return Star(t[2:])

        if tag == "[":
            self.pos += 1
            guard = self.parse_term()
            self.expect(":")
            case = _numeral(self.expect("num"))
            self.expect("]")
            return case_tag(guard, case)

        if tag == "obs":
            self.pos += 1
            self.expect("[")
            num = _numeral(self.expect("num"))
            self.expect("/")
            den = _numeral(self.expect("num"))
            self.expect("]")
            if den == 0:
                raise ParseError("tester bound has zero denominator",
                                 t[2], t[3])
            bound = Fraction(num, den)
            if not (0 < bound < 1):
                raise ParseError(
                    f"tester bound must lie strictly between 0 and 1, "
                    f"got {bound}", t[2], t[3])
            arg = self.parse_primary()
            return Obs(bound, arg, span=(t[2], t[3]))
        if tag == "omega":
            return omega(self.parse_type_index())
        if tag == "abort":
            return Abort(self.parse_type_index(), span=(t[2], t[3]))
        if tag == "pif":
            self.pos += 1
            self.expect("[")
            n = _numeral(self.expect("num"))
            if n > PIF_MAX_THRESHOLD:
                raise ParseError(
                    f"pif threshold {n} exceeds the limit of "
                    f"{PIF_MAX_THRESHOLD}", t[2], t[3])
            self.expect("]")
            scrut = self.parse_primary()
            if_le = self.parse_primary()
            if_gt = self.parse_primary()
            return pif_le(n, scrut, if_le, if_gt)
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
                raise ParseError(
                    f"sum needs a power-of-two branch count, got "
                    f"{len(terms)}", t[2], t[3])
            return psum(terms)

        self.fail(f"expected a term, found {t[1] or t[0]!r}")

    def parse_type_index(self) -> Type:
        """The bracketed type after the keyword at the current token. Every
        keyword that takes one but omega needs a computation type."""
        t = self.advance()
        self.expect("[")
        ty = self.parse_type()
        self.expect("]")
        if t[1] != "omega" and not is_comp_type(ty):
            raise ParseError(f"{t[1]} needs a computation type", t[2], t[3])
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


def _infix_node(op: tuple, left: Term, right: Term) -> Term:
    """The node of one infix operator token over its two operands."""
    cls = _CHOICE.get(op[1])
    if cls is None:
        return por(left, right)
    return cls(left, right, op[2:])


def _numeral(t: tuple) -> int:
    """The value of a num token. Python refuses to convert a numeral longer
    than its integer string limit (sys.get_int_max_str_digits)."""
    try:
        return int(t[1])
    except ValueError:
        raise ParseError(f"numeral of {len(t[1])} digits is too long "
                         f"(at most {sys.get_int_max_str_digits()})",
                         t[2], t[3]) from None


def _parse_whole(text: str, rule):
    """Run one rule of a parser over the text; the whole input must be
    consumed. Running out of Python stack is a parse error at the token
    being parsed when it ran out."""
    p = Parser(tokenize(text))
    try:
        out = rule(p)
    except RecursionError:
        t = p.tokens[p.pos]
        raise ParseError("input nested too deeply", t[2], t[3]) from None
    p.expect_eof()
    return out


def parse(text: str) -> Term:
    """Parse a single term; the whole input must be consumed."""
    return _parse_whole(text, Parser.parse_term)


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
