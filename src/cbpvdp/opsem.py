"""Small-step machine over focused configurations and exact lower bounds on
must-termination probability.

A configuration pairs an evaluation context with a focused term. Each step
either rewrites deterministically, terminates at an axiom, or branches:
probabilistic choice averages its arms, demonic choice takes the minimum,
parallel-if takes the best of racing the scrutinee against running both
branches, and the statistical tester spawns an inner run whose bound decides
whether the outer run continues.

All probabilities are exact rationals. Results carry an exactness flag:
when set, the lower bound equals the true termination probability.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Union

from . import typecheck
from .syntax import (
    FVUNIT, HOLE_FIELD,
    Abort, App, Do, EvalContext, EMPTY_CTX, Force, Ifz, Lambda, NChoice,
    NumLit, Obs, Pair, PChoice, Pifz, Pred, Proj1, Proj2, Produce, Rec, Ret,
    Seq, Star, Succ, Term, Thunk, To, Var,
    HOLE, PRODUCE_HOLE, PRODUCE_RET_HOLE,
    canon, canon_frame, rebuild, substitute,
)

DEFAULT_EPSILON = Fraction(1, 10 ** 6)
DEFAULT_MAX_BUDGET = 10 ** 6
START_BUDGET = 64


class OpsemError(Exception):
    pass


class Configuration(NamedTuple):
    """An evaluation context paired with the term in its hole. It is
    well-typed exactly when plugging the focus into the context gives a
    closed term of type F V unit."""
    ctx: EvalContext
    focus: Term

    def key(self) -> tuple:
        """Alpha-invariant identity: the initial shape, the canon of each
        frame, and the canon of the focus. The part before the focus is the
        context's kept key_prefix, so keying a configuration renders only
        its focus and the frames pushed since a context below was keyed."""
        prefix = self.ctx.key_prefix
        if prefix is None:
            prefix = _key_prefix(self.ctx)
        return prefix + (canon(self.focus),)


def _key_prefix(ctx: EvalContext) -> tuple:
    # Walk down to the nearest context that keeps its prefix and extend it
    # by the frames above, bottom first. Only the keyed context keeps the
    # result: a deep chain pushed in one go and keyed at its top would
    # otherwise keep a tuple per level, quadratic in its depth.
    pending = []
    below = ctx
    while below.key_prefix is None:
        pending.append(below.top)
        below = below.below
    pending.reverse()
    ctx.key_prefix = below.key_prefix + tuple(map(canon_frame, pending))
    return ctx.key_prefix


def initial_config(term: Term) -> Configuration:
    return Configuration(EMPTY_CTX, term)


# Step outcomes ------------------------------------------------------------


class Det(NamedTuple):
    """One deterministic step."""
    next: Configuration
    rule: str


class Terminal(NamedTuple):
    """The run terminates with probability one."""
    rule: str


class SplitPChoice(NamedTuple):
    """Fair coin: the bound averages the two arms."""
    left: Configuration
    right: Configuration
    rule: str = "split-pchoice"


class SplitNChoice(NamedTuple):
    """Demonic choice: the bound is the worse of the two arms."""
    left: Configuration
    right: Configuration
    rule: str = "split-nchoice"


class SplitPifz(NamedTuple):
    """Parallel if on an unsettled scrutinee: either run the scrutinee to a
    numeral, or hedge by running both branches and keeping the worse bound."""
    via_ifz: Configuration
    left: Configuration
    right: Configuration
    rule: str = "split-pifz"


class ObsGate(NamedTuple):
    """Statistical tester: the continuation proceeds only once the inner
    run's termination probability is certified strictly above the bound."""
    bound: Fraction
    inner: Configuration
    cont: Configuration
    rule: str = "obs-gate"


class Stuck(NamedTuple):
    reason: str


StepOutcome = Union[Det, Terminal, SplitPChoice, SplitNChoice, SplitPifz,
                    ObsGate, Stuck]


def _is_settled(term: Term) -> bool:
    """Terms the machine never focuses further: numerals, star, variables
    are out (closed configs), and introduction forms at the focus type."""
    return isinstance(term, (NumLit, Star, Thunk, Lambda, Pair))


def step(cfg: Configuration) -> StepOutcome:
    """One step of the machine on a well-typed configuration. A
    configuration that no rule matches is Stuck."""
    ctx, focus = cfg.ctx, cfg.focus

    # Axioms fire regardless of the surrounding context.
    if isinstance(focus, Abort):
        return Terminal("axiom-abort")
    if isinstance(focus, Star) and ctx.below is None and \
            ctx.initial == PRODUCE_RET_HOLE:
        return Terminal("axiom-star")

    # Branching forms.
    if isinstance(focus, PChoice):
        return SplitPChoice(Configuration(ctx, focus.left),
                            Configuration(ctx, focus.right))
    if isinstance(focus, NChoice):
        return SplitNChoice(Configuration(ctx, focus.left),
                            Configuration(ctx, focus.right))
    if isinstance(focus, Pifz):
        via = Configuration(
            ctx.push(Ifz(Star(), focus.if_zero, focus.if_nonzero)),
            focus.scrut)
        return SplitPifz(via,
                         Configuration(ctx, focus.if_zero),
                         Configuration(ctx, focus.if_nonzero))
    if isinstance(focus, Obs):
        return ObsGate(focus.bound,
                       Configuration(EMPTY_CTX, focus.arg),
                       Configuration(ctx, Star()))

    # Contractions against the innermost frame.
    if ctx.below is not None:
        rest, frame = ctx.pop()
        if isinstance(frame, App) and isinstance(focus, Lambda):
            return Det(Configuration(
                rest, substitute(focus.body, focus.var, frame.arg)), "beta")
        if isinstance(frame, To) and isinstance(focus, Produce):
            return Det(Configuration(
                rest, substitute(frame.body, frame.var, focus.value)),
                "to-produce")
        if isinstance(frame, Force) and isinstance(focus, Thunk):
            return Det(Configuration(rest, focus.comp), "force-thunk")
        if isinstance(frame, Succ) and isinstance(focus, NumLit):
            return Det(Configuration(rest, NumLit(focus.value + 1)), "succ")
        if isinstance(frame, Pred) and isinstance(focus, NumLit):
            return Det(Configuration(
                rest, NumLit(max(0, focus.value - 1))), "pred")
        if isinstance(frame, Ifz) and isinstance(focus, NumLit):
            if focus.value == 0:
                return Det(Configuration(rest, frame.if_zero), "ifz0")
            return Det(Configuration(rest, frame.if_nonzero), "ifzN")
        if isinstance(frame, Seq) and isinstance(focus, Star):
            return Det(Configuration(rest, frame.rest), "seq")
        if isinstance(frame, Proj1) and isinstance(focus, Pair):
            return Det(Configuration(rest, focus.fst), "proj1")
        if isinstance(frame, Proj2) and isinstance(focus, Pair):
            return Det(Configuration(rest, focus.snd), "proj2")
        if isinstance(frame, Do) and isinstance(focus, Ret):
            return Det(Configuration(
                rest, substitute(frame.body, frame.var, focus.value)),
                "do-ret")
    else:
        # Initial shapes consume a settled focus.
        if ctx.initial == HOLE and isinstance(focus, Produce):
            return Det(Configuration(
                EvalContext(PRODUCE_HOLE), focus.value), "init-produce")
        if ctx.initial == PRODUCE_HOLE and isinstance(focus, Ret):
            return Det(Configuration(
                EvalContext(PRODUCE_RET_HOLE), focus.value), "init-ret")

    # Recursion unfolds in place.
    if isinstance(focus, Rec):
        return Det(Configuration(
            ctx, substitute(focus.body, focus.var, focus)), "rec")

    # Discovery: focus on the eliminator's principal subterm, pushing the
    # eliminator with * in its place.
    hole = HOLE_FIELD.get(type(focus))
    if hole is not None:
        return Det(Configuration(ctx.push(rebuild(focus, {hole: Star()})),
                                 getattr(focus, hole)), "discover")

    if isinstance(focus, Var):
        return Stuck(f"free variable {focus.name} at the focus")
    if _is_settled(focus):
        return Stuck(f"settled term {type(focus).__name__} with no matching frame")
    return Stuck(f"no rule for {type(focus).__name__}")


# Probability lower bounds ---------------------------------------------------


@dataclass(frozen=True)
class ProbResult:
    """A certified lower bound on must-termination probability.

    lower is at most the true probability (and equal to it when exact);
    steps_used counts machine steps spent, including inner tester runs.
    """
    lower: Fraction
    exact: bool
    steps_used: int


ZERO = Fraction(0)
ONE = Fraction(1)


def _avg(x: "_R", y: "_R") -> "_R":
    return _R((x.lower + y.lower) / 2, x.exact and y.exact)


def _min_res(x: "_R", y: "_R") -> "_R":
    """Minimum with exactness: exact when an exact side is the certified
    minimum, which needs the other side's lower bound to already reach it."""
    lower = min(x.lower, y.lower)
    exact = (x.exact and y.lower >= x.lower) or (y.exact and x.lower >= y.lower)
    return _R(lower, exact)


def _max_res(x: "_R", y: "_R") -> "_R":
    """Maximum with exactness: exact when both sides are, or when an exact
    side already attains one, the largest possible value."""
    lower = max(x.lower, y.lower)
    exact = (x.exact and y.exact) or (x.exact and x.lower == ONE) or \
            (y.exact and y.lower == ONE)
    return _R(lower, exact)


@dataclass
class _R:
    lower: Fraction
    exact: bool


class _Budget:
    __slots__ = ("steps",)

    def __init__(self):
        self.steps = 0


def prob(cfg: Configuration, budget: int) -> ProbResult:
    """Best certified lower bound derivable within the given step budget."""
    counter = _Budget()
    r = _prob_walk(cfg, budget, counter, {})
    return ProbResult(r.lower, r.exact, counter.steps)


def _prob(cfg: Configuration, k: int, counter: _Budget, memo: dict) -> _R:
    # The walk's result is a pure function of the configuration and the
    # budget, so branch arms that reconverge (both arms of a choice looping
    # back to the same configuration, say) are memoized; without this the
    # walk is exponential in the budget on such terms. Only branch arms and
    # rec unfolds (the loop check in _prob_walk) build a key: the entry
    # configuration of a plain run never does, which keeps very deep
    # branch-free terms linear. A key renders only the focus; its context
    # keeps the rest.
    entry = (cfg.key(), k)
    hit = memo.get(entry)
    if hit is not None:
        return hit
    r = _prob_walk(cfg, k, counter, memo)
    memo[entry] = r
    return r


def _prob_walk(cfg: Configuration, k: int, counter: _Budget,
               memo: dict) -> _R:
    # Walk deterministic chains iteratively; recurse only at branch points.
    # Configurations revisited along a chain at recursion unfolds mean a
    # productive-step-free loop, which certifies probability zero exactly.
    seen = set()
    while True:
        if k <= 0:
            return _R(ZERO, False)
        out = step(cfg)
        counter.steps += 1
        if isinstance(out, Terminal):
            return _R(ONE, True)
        if isinstance(out, Det):
            if out.rule == "rec":
                key = cfg.key()
                if key in seen:
                    return _R(ZERO, True)
                seen.add(key)
            cfg = out.next
            k -= 1
            continue
        if isinstance(out, SplitPChoice):
            return _avg(_prob(out.left, k - 1, counter, memo),
                        _prob(out.right, k - 1, counter, memo))
        if isinstance(out, SplitNChoice):
            return _min_res(_prob(out.left, k - 1, counter, memo),
                            _prob(out.right, k - 1, counter, memo))
        if isinstance(out, SplitPifz):
            hedged = _min_res(_prob(out.left, k - 1, counter, memo),
                              _prob(out.right, k - 1, counter, memo))
            return _max_res(_prob(out.via_ifz, k - 1, counter, memo), hedged)
        if isinstance(out, ObsGate):
            inner = _prob(out.inner, k - 1, counter, memo)
            if inner.lower > out.bound:
                return _prob(out.cont, k - 1, counter, memo)
            if inner.exact:
                # The inner probability is known; the gate can never open.
                return _R(ZERO, True)
            return _R(ZERO, False)
        raise OpsemError(f"stuck configuration: {out.reason}")


def pr_limit(term: Term,
             epsilon: Fraction = DEFAULT_EPSILON,
             max_budget: int = DEFAULT_MAX_BUDGET) -> ProbResult:
    """Certified lower bound for a closed term of tester-argument type,
    doubling the step budget until exact, converged within epsilon, or out
    of budget. epsilon zero disables the convergence stop."""
    core = typecheck.check(term, FVUNIT)
    return _deepen(initial_config(core), epsilon, max_budget)


def _deepen(cfg: Configuration, epsilon: Fraction, max_budget: int) -> ProbResult:
    budget = min(START_BUDGET, max_budget)
    prev: Optional[ProbResult] = None
    while True:
        res = prob(cfg, budget)
        if res.exact:
            return res
        if prev is not None and epsilon > 0 and res.lower - prev.lower < epsilon:
            return res
        if budget >= max_budget:
            return res
        prev = res
        budget = min(budget * 2, max_budget)


# Traces ---------------------------------------------------------------------


@dataclass(frozen=True)
class TraceEntry:
    rule: str
    config: Optional[Configuration]


def trace(term: Term, max_steps: int = 1000) -> list:
    """Follow the deterministic spine from a closed term, recording each
    rule fired and the configuration it yields. Stops at the first branch
    point, axiom, or once max_steps rules have fired."""
    core = typecheck.check(term, FVUNIT)
    cfg = initial_config(core)
    entries = [TraceEntry("start", cfg)]
    for _ in range(max_steps):
        out = step(cfg)
        if isinstance(out, Det):
            cfg = out.next
            entries.append(TraceEntry(out.rule, cfg))
            continue
        if isinstance(out, Terminal):
            entries.append(TraceEntry(out.rule, None))
        elif isinstance(out, Stuck):
            entries.append(TraceEntry(f"stuck: {out.reason}", None))
        else:
            entries.append(TraceEntry(out.rule, None))
        return entries
    entries.append(TraceEntry("budget-exhausted", None))
    return entries
