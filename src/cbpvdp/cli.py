"""Command-line interface.

Subcommands: check, run, eval, adequacy, expand, fuzz, trace. Input terms
come from a file path or from stdin when the path is '-'. Flags can also be
set through CBPVDP_-prefixed environment variables (for example
CBPVDP_EPSILON=1/1000 or CBPVDP_FORMAT=records); a value the flag would
reject is a usage error.

Exit codes: 0 success, 1 type or semantic failure (or out of memory), 2
parse or usage failure (or an input that cannot be read as text).
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction

from . import densem, harness, opsem, surface, typecheck
from .syntax import FVUNIT, digits, plug

EXIT_OK = 0
EXIT_SEMANTIC = 1
EXIT_PARSE = 2

FORMATS = ("human", "records")


def _env(name: str, default):
    return os.environ.get(f"CBPVDP_{name}", default)


# Argument types. argparse applies them to string defaults too, so a
# CBPVDP_ variable the flag would reject is a usage error as well.


def _fraction(text) -> Fraction:
    """A rational at least 0."""
    try:
        x = Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from e
    if x < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {text}")
    return x


def _natural(text) -> int:
    """A whole number at least 0: a count, depth, budget or step limit."""
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must not be negative, got {text}")
    return n


def _probability(text) -> float:
    """A probability, from 0 to 1."""
    try:
        p = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}") from None
    if not 0 <= p <= 1:
        raise argparse.ArgumentTypeError(
            f"must be between 0 and 1, got {text}")
    return p


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cbpvdp",
        description="Typecheck, run, and evaluate call-by-push-value "
                    "programs with probabilistic and demonic choice.")
    ap.add_argument("--epsilon", type=_fraction,
                    default=_env("EPSILON", opsem.DEFAULT_EPSILON),
                    help="stop widening the explored horizon once the lower "
                         "bound rises by less than this in a round (0 "
                         "disables; default %(default)s)")
    ap.add_argument("--max-budget", type=_natural,
                    default=_env("MAX_BUDGET", opsem.DEFAULT_MAX_BUDGET),
                    help="largest horizon explored, in machine steps "
                         "(default %(default)s)")
    ap.add_argument("--rec-depth", type=_natural,
                    default=_env("REC_DEPTH", densem.DEFAULT_REC_DEPTH),
                    help="iterations per recursion in the evaluator, for "
                         "eval and adequacy (default %(default)s)")
    ap.add_argument("--seed", type=int, default=_env("SEED", 0),
                    help="generator seed (default 0)")
    ap.add_argument("--format", choices=FORMATS,
                    default=_env("FORMAT", "human"),
                    help="output style (default human)")

    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse and typecheck a term")
    p.add_argument("path")

    p = sub.add_parser("run", help="certified bounds on termination "
                                   "probability (term must have type F V unit)")
    p.add_argument("path")
    p.add_argument("--trace", action="store_true",
                   help="print the deterministic rule spine first")

    p = sub.add_parser("eval", help="denotational value of a term")
    p.add_argument("path")

    p = sub.add_parser("adequacy", help="random differential comparison of "
                                        "the step engine and the evaluator")
    p.add_argument("--count", type=_natural, default=100,
                   help="number of random terms (default 100)")
    p.add_argument("--max-depth", type=_natural, default=6,
                   help="generator depth budget (default 6)")
    p.add_argument("--rec-probability", type=_probability, default=0.0,
                   help="chance of a rec binder at eligible positions")
    p.add_argument("--omega-weight", type=_natural, default=0,
                   help="leaf weight of the diverging constant (default 0)")
    p.add_argument("--show-terms", action="store_true",
                   help="print every term with its verdict")

    p = sub.add_parser("expand", help="parse, elaborate, and reprint a term")
    p.add_argument("path")

    p = sub.add_parser("fuzz", help="generate random well-typed terms and "
                                    "check machine invariants on them")
    p.add_argument("--count", type=_natural, default=50)
    p.add_argument("--max-depth", type=_natural, default=6)
    p.add_argument("--print-terms", action="store_true")

    p = sub.add_parser("trace", help="print the deterministic rule spine "
                                     "of a run")
    p.add_argument("path")
    p.add_argument("--max-steps", type=_natural, default=1000)

    return ap


class UnreadableInput(Exception):
    """The input path could not be opened or is not text."""


def _read_source(path: str) -> str:
    try:
        if path == "-":
            # The raw bytes, decoded strictly as a file is: the text layer
            # would turn undecodable bytes into surrogates the parser meets.
            buffer = getattr(sys.stdin, "buffer", None)
            if buffer is None:
                return sys.stdin.read()
            return buffer.read().decode("utf-8")
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        reason = e.strerror or e
    except UnicodeDecodeError as e:
        reason = e
    raise UnreadableInput(f"cannot read {path}: {reason}")


def _fmt_fraction(x: Fraction) -> str:
    if x.denominator == 1:
        return digits(x.numerator)
    return f"{digits(x.numerator)}/{digits(x.denominator)}"


def _decimal(x: Fraction) -> str:
    return f"{float(x):.6f}"


def emit(args, human_text: str, **fields):
    if args.format == "records":
        for k, v in fields.items():
            print(f"{k}={v}")
        print()
    else:
        print(human_text)


def _load_term(args):
    text = _read_source(args.path)
    return surface.parse(text)


def cmd_check(args) -> int:
    term = _load_term(args)
    _core, ty = typecheck.elaborate(term)
    emit(args, f"ok: {ty}", status="ok", type=ty)
    return EXIT_OK


def cmd_run(args) -> int:
    term = _load_term(args)
    if args.trace:
        _print_trace(args, opsem.trace(term, max_steps=10000))
    res = opsem.pr_limit(term, epsilon=args.epsilon,
                         max_budget=args.max_budget)
    emit(args,
         f"lower bound {_fmt_fraction(res.lower)} ({_decimal(res.lower)}), "
         f"interval [{_fmt_fraction(res.lower)}, {_fmt_fraction(res.upper)}], "
         f"{'exact' if res.exact else 'not known exact'}, "
         f"{res.steps_used} steps",
         lower=_fmt_fraction(res.lower),
         lower_decimal=_decimal(res.lower),
         upper=_fmt_fraction(res.upper),
         exact=str(res.exact).lower(),
         steps=res.steps_used)
    return EXIT_OK


def cmd_eval(args) -> int:
    term = _load_term(args)
    out = densem.evaluate(term, rec_depth=args.rec_depth)
    value = densem.render_value(out.value)
    fields = dict(value=value,
                  type=out.ty,
                  exact=str(out.exact).lower())
    extra = ""
    if out.ty == FVUNIT:
        mass = densem.hstar(out.value)
        fields["mass"] = _fmt_fraction(mass)
        fields["mass_decimal"] = _decimal(mass)
        extra = (f"; guaranteed mass {_fmt_fraction(mass)}"
                 f" ({_decimal(mass)})")
    emit(args,
         f"{value} : {out.ty} "
         f"({'exact' if out.exact else 'approximant'}){extra}",
         **fields)
    return EXIT_OK


def cmd_expand(args) -> int:
    term = _load_term(args)
    core, ty = typecheck.elaborate(term)
    emit(args, f"{surface.print_term(core)}\n: {ty}",
         core=surface.print_term(core), type=ty)
    return EXIT_OK


def _print_trace(args, entries) -> None:
    for e in entries:
        if args.format == "records":
            print(f"rule={e.rule}")
            if e.config is not None:
                print(f"focus={surface.print_term(e.config.focus)}")
                print(f"frames={len(e.config.ctx.frames)}")
            print()
        elif e.config is None:
            print(e.rule)
        else:
            print(f"{e.rule:14s} {surface.print_term(e.config.focus)}")


def cmd_trace(args) -> int:
    term = _load_term(args)
    _print_trace(args, opsem.trace(term, max_steps=args.max_steps))
    return EXIT_OK


def cmd_adequacy(args) -> int:
    policy = harness.GenPolicy(max_depth=args.max_depth, seed=args.seed,
                               rec_probability=args.rec_probability,
                               omega_weight=args.omega_weight)
    reports = harness.adequacy_campaign(args.count, policy,
                                        epsilon=args.epsilon,
                                        max_budget=args.max_budget,
                                        rec_depth=args.rec_depth)
    tally = {}
    for r in reports:
        tally[r.verdict] = tally.get(r.verdict, 0) + 1
    if args.format == "records":
        for r in reports:
            print(f"verdict={r.verdict}")
            print(f"op_lower={_fmt_fraction(r.op_lower)}")
            print(f"op_exact={str(r.op_exact).lower()}")
            print(f"op_upper={_fmt_fraction(r.op_upper)}")
            print(f"den_mass={_fmt_fraction(r.den_mass)}")
            print(f"den_exact={str(r.den_exact).lower()}")
            if args.show_terms:
                print(f"term={surface.print_term(r.term)}")
            print()
        print(f"total={len(reports)}")
        for k in sorted(tally):
            print(f"{k.replace('-', '_')}={tally[k]}")
    else:
        if args.show_terms:
            for i, r in enumerate(reports):
                print(f"[{i:4d}] {r.verdict:12s} "
                      f"op={_fmt_fraction(r.op_lower)} "
                      f"den={_fmt_fraction(r.den_mass)} "
                      f"{surface.print_term(r.term)}")
        for k in sorted(tally):
            print(f"{k}: {tally[k]}")
        print(f"total: {len(reports)}")
    violations = [r for r in reports if r.verdict == "violation"]
    for r in violations:
        print(f"violation: {r.detail}", file=sys.stderr)
        print(f"  term: {surface.print_term(r.term)}", file=sys.stderr)
        print(f"  op_lower={_fmt_fraction(r.op_lower)} (exact={r.op_exact}) "
              f"den_mass={_fmt_fraction(r.den_mass)} (exact={r.den_exact}) "
              f"op_upper={_fmt_fraction(r.op_upper)}", file=sys.stderr)
    return EXIT_SEMANTIC if violations else EXIT_OK


def cmd_fuzz(args) -> int:
    policy = harness.GenPolicy(max_depth=args.max_depth, seed=args.seed)
    gen = harness.TermGen(policy)
    failures = 0
    for i in range(args.count):
        term = gen.term(FVUNIT)
        if args.print_terms:
            print(surface.print_term(term))
        try:
            # trace checks the term and keeps up to 200 configurations.
            for entry in opsem.trace(term, max_steps=199):
                cfg = entry.config
                if cfg is not None:
                    typecheck.check(plug(cfg.ctx, cfg.focus), FVUNIT)
        except Exception as e:
            failures += 1
            print(f"fuzz case {i} failed: {e}", file=sys.stderr)
            print(f"  term: {surface.print_term(term)}", file=sys.stderr)
    emit(args, f"fuzz: {args.count - failures}/{args.count} ok",
         ok=args.count - failures, total=args.count)
    return EXIT_OK if failures == 0 else EXIT_SEMANTIC


_COMMANDS = {
    "check": cmd_check,
    "run": cmd_run,
    "eval": cmd_eval,
    "adequacy": cmd_adequacy,
    "expand": cmd_expand,
    "fuzz": cmd_fuzz,
    "trace": cmd_trace,
}


# argparse reads a word after a flag as the flag's value only if the word
# does not start with '-' or looks like -5 or -0.5; a negative rational
# such as -1/2 is read as another flag.
_NEGATIVE_RATIO = re.compile(r"-\d+/\d+")


def _attach_negative_ratios(argv: list) -> list:
    """Write `--flag -1/2` as `--flag=-1/2`, so the flag's own type
    reports what is wrong with the value."""
    out = []
    for word in argv:
        if (out and _NEGATIVE_RATIO.fullmatch(word)
                and out[-1].startswith("--") and out[-1] != "--"
                and "=" not in out[-1]):
            out[-1] = f"{out[-1]}={word}"
        else:
            out.append(word)
    return out


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(_attach_negative_ratios(
        sys.argv[1:] if argv is None else argv))
    if args.format not in FORMATS:
        ap.error(f"CBPVDP_FORMAT: invalid choice: {args.format!r} "
                 f"(choose from {', '.join(FORMATS)})")
    try:
        return _COMMANDS[args.command](args)
    except (surface.ParseError, UnreadableInput) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_PARSE
    except typecheck.TypeCheckError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SEMANTIC
    except (opsem.OpsemError, densem.DomainError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SEMANTIC
    except RecursionError:
        # The structural walks recurse in Python; a term too deep for them
        # is refused like one too deep for the parser.
        print("error: input nested too deeply", file=sys.stderr)
        return EXIT_PARSE
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_SEMANTIC


if __name__ == "__main__":
    sys.exit(main())
