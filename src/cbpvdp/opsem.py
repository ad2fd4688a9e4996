"""Small-step machine over focused configurations, and certified bounds on
must-termination probability from the graph of configurations it reaches.

A configuration pairs an evaluation context with a focused term. Each step
either rewrites deterministically, terminates at an axiom, or branches:
probabilistic choice averages its arms, demonic choice takes the minimum,
parallel-if takes the best of racing the scrutinee against running both
branches, and the statistical tester spawns an inner run whose bounds decide
whether the outer run continues. A step picks its rule with one table
lookup: on the focus class for axioms, branching forms, rec unfolds and
discovery, else on the innermost frame's class (the initial shape, in an
empty context) paired with the focus class for a contraction.

The termination probability is the least fixed point of those equations
over the reachable configurations. prob explores that graph outward from a
configuration in rounds of growing horizon (START_BUDGET steps, then twice
as many, up to a budget); each configuration is stepped once, and
steps_used counts those steps. After each round the explored graph is
solved twice, exactly (see solver): once with every unexplored frontier node
at 0, which gives the certified lower bound, and once with every frontier
node at 1, which gives the certified upper bound. When the graph closes the
two meet and the result is exact. A tester gate opens once the lower bound
of its inner run is above its threshold and shuts once the upper bound is at
or below it; until then it counts as frontier.

All probabilities are exact rationals.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

from . import typecheck
from .solver import AVG, CONST, DET, MAX, MIN, components, solve_component
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


StepOutcome = (Det | Terminal | SplitPChoice | SplitNChoice | SplitPifz |
               ObsGate | Stuck)


def step(cfg: Configuration) -> StepOutcome:
    """One step of the machine on a well-typed configuration, by the rule
    that _BY_FOCUS or else _CONTRACT gives it. A configuration that no rule
    matches is Stuck."""
    ctx, focus = cfg
    kind = type(focus)
    rule = _BY_FOCUS.get(kind)
    if rule is None:
        rule = _CONTRACT.get((type(ctx.top), kind) if ctx.below is not None
                             else (ctx.initial, kind))
        if rule is None:
            return _stuck(focus)
    return rule(ctx, focus)


# Rules by focus class alone: handler(ctx, focus) -> outcome. Axioms and
# branching forms fire regardless of the context.


def _abort(ctx, focus):
    return Terminal("axiom-abort")


def _split_pchoice(ctx, focus):
    return SplitPChoice(Configuration(ctx, focus.left),
                        Configuration(ctx, focus.right))


def _split_nchoice(ctx, focus):
    return SplitNChoice(Configuration(ctx, focus.left),
                        Configuration(ctx, focus.right))


def _split_pifz(ctx, focus):
    via = Configuration(
        ctx.push(Ifz(Star(), focus.if_zero, focus.if_nonzero)), focus.scrut)
    return SplitPifz(via, Configuration(ctx, focus.if_zero),
                     Configuration(ctx, focus.if_nonzero))


def _obs_gate(ctx, focus):
    return ObsGate(focus.bound, Configuration(EMPTY_CTX, focus.arg),
                   Configuration(ctx, Star()))


def _unfold(ctx, focus):
    # Recursion unfolds in place.
    return Det(Configuration(
        ctx, substitute(focus.body, focus.var, focus)), "rec")


def _discover(hole: str):
    """Discovery at an eliminator: focus on its principal subterm, the child
    named hole, and push the eliminator with * in its place."""
    def rule(ctx, focus):
        return Det(Configuration(ctx.push(rebuild(focus, {hole: Star()})),
                                 getattr(focus, hole)), "discover")
    return rule


def _free_var(ctx, focus):
    return Stuck(f"free variable {focus.name} at the focus")


# step looks a rule up and calls it; no rule recurses, so a step takes the
# same few Python frames at any context depth.
_BY_FOCUS = {
    Abort: _abort, PChoice: _split_pchoice, NChoice: _split_nchoice,
    Pifz: _split_pifz, Obs: _obs_gate, Rec: _unfold, Var: _free_var,
    **{cls: _discover(hole) for cls, hole in HOLE_FIELD.items()},
}


# Contractions of a settled focus against the innermost frame, and the
# initial shapes consuming one: handler(ctx, focus) -> outcome, keyed by
# (frame class, focus class) or (initial shape, focus class).


def _beta(ctx, focus):
    return Det(Configuration(
        ctx.below, substitute(focus.body, focus.var, ctx.top.arg)), "beta")


def _to_produce(ctx, focus):
    frame = ctx.top
    return Det(Configuration(
        ctx.below, substitute(frame.body, frame.var, focus.value)),
        "to-produce")


def _force_thunk(ctx, focus):
    return Det(Configuration(ctx.below, focus.comp), "force-thunk")


def _succ(ctx, focus):
    return Det(Configuration(ctx.below, NumLit(focus.value + 1)), "succ")


def _pred(ctx, focus):
    return Det(Configuration(ctx.below, NumLit(max(0, focus.value - 1))),
               "pred")


def _ifz(ctx, focus):
    if focus.value == 0:
        return Det(Configuration(ctx.below, ctx.top.if_zero), "ifz0")
    return Det(Configuration(ctx.below, ctx.top.if_nonzero), "ifzN")


def _seq(ctx, focus):
    return Det(Configuration(ctx.below, ctx.top.rest), "seq")


def _proj1(ctx, focus):
    return Det(Configuration(ctx.below, focus.fst), "proj1")


def _proj2(ctx, focus):
    return Det(Configuration(ctx.below, focus.snd), "proj2")


def _do_ret(ctx, focus):
    frame = ctx.top
    return Det(Configuration(
        ctx.below, substitute(frame.body, frame.var, focus.value)), "do-ret")


def _init_produce(ctx, focus):
    return Det(Configuration(EvalContext(PRODUCE_HOLE), focus.value),
               "init-produce")


def _init_ret(ctx, focus):
    return Det(Configuration(EvalContext(PRODUCE_RET_HOLE), focus.value),
               "init-ret")


def _axiom_star(ctx, focus):
    return Terminal("axiom-star")


_CONTRACT = {
    (App, Lambda): _beta, (To, Produce): _to_produce,
    (Force, Thunk): _force_thunk, (Succ, NumLit): _succ,
    (Pred, NumLit): _pred, (Ifz, NumLit): _ifz, (Seq, Star): _seq,
    (Proj1, Pair): _proj1, (Proj2, Pair): _proj2, (Do, Ret): _do_ret,
    (HOLE, Produce): _init_produce, (PRODUCE_HOLE, Ret): _init_ret,
    (PRODUCE_RET_HOLE, Star): _axiom_star,
}

# Terms the machine never focuses further: introduction forms at the focus
# type, and numerals.
_SETTLED = frozenset((NumLit, Star, Thunk, Lambda, Pair))


def _stuck(focus: Term) -> Stuck:
    name = type(focus).__name__
    if type(focus) in _SETTLED:
        return Stuck(f"settled term {name} with no matching frame")
    return Stuck(f"no rule for {name}")


# Bounds from the explored configuration graph --------------------------------


@dataclass(frozen=True)
class ProbResult:
    """Certified bounds on must-termination probability.

    lower is at most the true probability and upper at least it; the result
    is exact when they meet. steps_used counts machine steps taken, one per
    configuration stepped, including inner tester runs.
    """
    lower: Fraction
    upper: Fraction
    steps_used: int

    @property
    def exact(self) -> bool:
        return self.lower == self.upper


ZERO = Fraction(0)
ONE = Fraction(1)


class _Graph:
    """The configuration graph explored so far, one solver node per keyed
    configuration: the root, every branch arm and every rec unfold. A node
    stands for the deterministic chain that starts at its configuration and
    ends where the chain terminates (CONST 1), branches (AVG for (+), MIN for
    /\\, MAX of the scrutinee run and a MIN of the two branches for pifz, a
    gate for obs) or reaches a rec unfold (DET to that unfold's node). A node
    not yet walked to its end is frontier: CONST 0 in the lower system and 1
    in the upper one, as is a gate until its inner bounds decide it.

    Exploration is Dijkstra's algorithm over chain lengths, with a bucket
    queue of distances from the root in machine steps, so the graph explored
    to a horizon covers every configuration fewer than that many steps from
    the root. It resumes where the last horizon cut it, and steps every
    configuration once. The root is not keyed, which spares rendering the
    whole program: a later configuration equal to it gets a node of its
    own."""

    def __init__(self, cfg: Configuration):
        self.kind = [CONST]
        self.succ = [()]
        self.lower = [ZERO]
        self.upper = [ONE]
        self.dist = [0]  # None once the node's walk has started
        self.ids = {}
        self.gates = {}
        self.cyclic = False  # some edge runs to a node older than its source
        self.open = 1
        self.steps = 0
        self.buckets = {0: [(0, cfg, True)]}
        self.queue = [0]

    def _push(self, d: int, item: tuple) -> None:
        bucket = self.buckets.get(d)
        if bucket is None:
            self.buckets[d] = [item]
            heapq.heappush(self.queue, d)
        else:
            bucket.append(item)

    def _node(self, kind: int, succ: tuple, d: Optional[int]) -> int:
        n = len(self.kind)
        self.kind.append(kind)
        self.succ.append(succ)
        self.lower.append(ZERO)
        self.upper.append(ONE)
        self.dist.append(d)
        return n

    def _link(self, src: int, cfg: Configuration, d: int) -> int:
        """The node of a configuration reached from node src at distance
        d."""
        key = cfg.key()
        n = self.ids.get(key)
        if n is None:
            n = self.ids[key] = self._node(CONST, (), d)
            self.open += 1
            self._push(d, (n, cfg, True))
            return n
        self.cyclic = self.cyclic or n < src
        if self.dist[n] is not None and d < self.dist[n]:
            self.dist[n] = d
            self._push(d, (n, cfg, True))
        return n

    def explore(self, horizon: int) -> None:
        """Step every configuration closer to the root than horizon."""
        queue, buckets, dist = self.queue, self.buckets, self.dist
        while queue and queue[0] < horizon:
            d = heapq.heappop(queue)
            for n, cfg, fresh in buckets.pop(d):
                if fresh:
                    if dist[n] is None:
                        continue  # reached again at a shorter distance
                    dist[n] = None
                self._walk(n, cfg, d, fresh, horizon)

    def _walk(self, n: int, cfg: Configuration, d: int, at_node: bool,
              horizon: int) -> None:
        # Deterministic steps build no key, except at a rec unfold, which
        # is where a chain can loop; the node's own configuration is keyed.
        # Each step is one unit of distance.
        start = d
        while True:
            if not at_node and type(cfg.focus) is Rec:
                self.steps += d - start
                self._close(n, DET, (self._link(n, cfg, d),))
                return
            if d >= horizon:
                self.steps += d - start
                self._push(d, (n, cfg, False))
                return
            out = step(cfg)
            d += 1
            if type(out) is not Det:
                break
            cfg = out.next
            at_node = False
        self.steps += d - start
        link = self._link
        if isinstance(out, Terminal):
            self.lower[n] = ONE
            self._close(n, CONST, ())
        elif isinstance(out, SplitPChoice):
            self._close(n, AVG, (link(n, out.left, d), link(n, out.right, d)))
        elif isinstance(out, SplitNChoice):
            self._close(n, MIN, (link(n, out.left, d), link(n, out.right, d)))
        elif isinstance(out, SplitPifz):
            via = link(n, out.via_ifz, d)
            hedge = self._node(MIN, (), None)
            self.succ[hedge] = (link(hedge, out.left, d),
                                link(hedge, out.right, d))
            self._close(n, MAX, (via, hedge))
        elif isinstance(out, ObsGate):
            # Stays CONST, frontier in both systems, until solve decides it.
            self.gates[n] = out.bound
            self._close(n, CONST, (link(n, out.cont, d),
                                   link(n, out.inner, d)))
        else:
            raise OpsemError(f"stuck configuration: {out.reason}")

    def _close(self, n: int, kind: int, succ: tuple) -> None:
        self.kind[n] = kind
        self.succ[n] = succ
        self.open -= 1

    def solve(self) -> tuple:
        """Least fixed points of the lower and upper systems, at the root.
        A gate whose inner configuration lies in an earlier component has
        final inner bounds: it opens (DET to its continuation) when the
        lower one is above its bound, and shuts for good (CONST 0) when the
        upper one is at or below it. A gate whose inner run reaches the
        gate itself shares its component and stays frontier."""
        kind, succ, lower, upper = self.kind, self.succ, self.lower, self.upper
        gates = self.gates
        # With no frontier node and no undecided gate the systems coincide.
        both = self.open or gates
        # Without a cycle through two or more nodes every edge runs to a
        # newer node or back to its source, so newest first is an order of
        # singleton components, successors first.
        comps = (components(succ, 0) if self.cyclic else
                 [[n] for n in range(len(kind) - 1, -1, -1)])
        for comp in comps:
            for g in comp if gates else ():
                if g in gates:
                    cont, inner = succ[g]
                    if inner in comp:
                        continue
                    if lower[inner] > gates[g]:
                        kind[g], succ[g] = DET, (cont,)
                    elif upper[inner] <= gates[g]:
                        upper[g], succ[g] = ZERO, ()
                    else:
                        continue
                    del gates[g]
            solve_component(comp, kind, succ, lower)
            if both:
                solve_component(comp, kind, succ, upper)
        return lower[0], (upper if both else lower)[0]


def prob(cfg: Configuration, budget: int,
         epsilon: Fraction = ZERO) -> ProbResult:
    """Certified bounds from the configuration graph explored out to
    horizons START_BUDGET, twice that, and so on up to budget. Stops early
    when the bounds meet, when nothing is left to explore, or, for positive
    epsilon, when the lower bound rose by less than epsilon in a round."""
    graph = _Graph(cfg)
    horizon = min(START_BUDGET, budget)
    prev = None
    while True:
        graph.explore(horizon)
        res = ProbResult(*graph.solve(), graph.steps)
        if res.exact or not graph.open or horizon >= budget or (
                prev is not None and epsilon > 0 and
                res.lower - prev < epsilon):
            return res
        prev = res.lower
        horizon = min(horizon * 2, budget)


def pr_limit(term: Term,
             epsilon: Fraction = DEFAULT_EPSILON,
             max_budget: int = DEFAULT_MAX_BUDGET) -> ProbResult:
    """Certified bounds for a closed term of tester-argument type, from one
    prob call at budget max_budget. epsilon zero disables the convergence
    stop."""
    core = typecheck.check(term, FVUNIT)
    return prob(initial_config(core), max_budget, epsilon)


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
