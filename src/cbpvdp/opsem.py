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

Steps copy as little as they can. Discovery pushes the eliminator node
itself as the frame; the frame stands for that node with * in its hole,
and is keyed so (see syntax). The rec, beta, to-produce and do-ret rules
insert closed values through syntax.instantiate, which takes them as
closed without a walk; every value the machine substitutes is closed, so
no substitution renames a binder. The explored graph keeps the body each
rec node unfolds to, so each node is substituted into once per prob call.
A prob call keys every configuration it reaches as (context id, focus id)
in one IdTable, its root's, so the nodes of one checked core read their
kept ids. A rule builds its outcome and configurations with
tuple.__new__, in C, rather than through the NamedTuple classes' Python
__new__, as initial_config builds its configuration and prob its
ProbResult; they are the same records. The two axioms' outcomes are module
constants, and the init rules share one frameless context per initial
shape (PRODUCE_CTX, PRODUCE_RET_CTX), as every run shares EMPTY_CTX: an
empty context has its shape's id in every table, so keying one writes
nothing to it.

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
or below it; until then it counts as frontier. A graph with no cycle
through two or more nodes is solved in one loop, newest node first, each
node by solver's one-node closed forms, and each gate is decided as the
loop reaches it. Besides the horizon, a work cap, MAX_STEPS (10^6),
bounds the steps of one prob call: exploration stops once that many are
used, mid-round if need be, and the unexplored configurations stay
frontier, so the bounds stay sound.

All probabilities are exact rationals.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

from . import typecheck
# The exact constants are solver's: equal bounds are then often one object,
# and compare by identity before Fraction.__eq__.
from .solver import (AVG, CONST, DET, MAX, MIN, ONE, ZERO, components,
                     solve_cyclic, solve_singletons)
# canon, canon_frame and substitute are not called here: bench/run.py wraps
# these names in this module, so they stay importable from it.
from .syntax import (
    FVUNIT, HOLE_FIELD,
    Abort, App, Do, EvalContext, EMPTY_CTX, Force, Ifz, Lambda, NChoice,
    NumLit, Obs, Pair, PChoice, Pifz, Pred, Proj1, Proj2, Produce, Rec, Ret,
    Seq, Star, Succ, Term, Thunk, To, Var,
    HOLE, PRODUCE_HOLE, PRODUCE_RET_HOLE,
    IdTable, canon, canon_frame, class_id, context_id, instantiate,
    substitute,
)

DEFAULT_EPSILON = Fraction(1, 10 ** 6)
DEFAULT_MAX_BUDGET = 10 ** 6
START_BUDGET = 64
# The work cap: the most steps one prob call takes, whatever its budget.
MAX_STEPS = 10 ** 6


class OpsemError(Exception):
    pass


class Configuration(NamedTuple):
    """An evaluation context paired with the term in its hole. It is
    well-typed exactly when plugging the focus into the context gives a
    closed term of type F V unit."""
    ctx: EvalContext
    focus: Term

    def key(self, ids: IdTable) -> tuple:
        """Alpha-invariant identity in the table ids: (context id, focus
        id) (see syntax). A focus that belongs to ids, and a context
        already keyed in it, read their kept ids, so keying a configuration
        of a core in its table reads two ids and interns only the frames
        pushed since a context below was keyed. A leaf, or a node built
        outside ids, is walked (syntax.class_id)."""
        ctx, focus = self
        facts = focus.__dict__
        return (ctx.cid if ctx.ids is ids else context_id(ids, ctx),
                facts["_cid"] if facts.get("_ids") is ids
                else class_id(ids, focus))


# _record(Cls, (field, ...)) builds a record of Cls in C, past the class's
# generated __new__: every field is given, in order, those that default too.
_record = tuple.__new__


def initial_config(term: Term) -> Configuration:
    return _record(Configuration, (EMPTY_CTX, term))


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


AXIOM_ABORT = Terminal("axiom-abort")
AXIOM_STAR = Terminal("axiom-star")


def _abort(ctx, focus):
    return AXIOM_ABORT


def _split_pchoice(ctx, focus):
    return _record(SplitPChoice, (_record(Configuration, (ctx, focus.left)),
                                  _record(Configuration, (ctx, focus.right)),
                                  "split-pchoice"))


def _split_nchoice(ctx, focus):
    return _record(SplitNChoice, (_record(Configuration, (ctx, focus.left)),
                                  _record(Configuration, (ctx, focus.right)),
                                  "split-nchoice"))


def _split_pifz(ctx, focus):
    via = _record(Configuration, (
        ctx.push(Ifz(Star(), focus.if_zero, focus.if_nonzero)), focus.scrut))
    return _record(SplitPifz, (
        via, _record(Configuration, (ctx, focus.if_zero)),
        _record(Configuration, (ctx, focus.if_nonzero)), "split-pifz"))


def _obs_gate(ctx, focus):
    return _record(ObsGate, (focus.bound,
                             _record(Configuration, (EMPTY_CTX, focus.arg)),
                             _record(Configuration, (ctx, Star())),
                             "obs-gate"))


def _unfold(ctx, focus):
    # Recursion unfolds in place.
    return _record(Det, (_record(Configuration,
                                 (ctx, instantiate(focus, focus))), "rec"))


def _discover(hole: str):
    """Discovery at an eliminator: focus on its principal subterm, the child
    named hole, and push the eliminator itself as the frame."""
    def rule(ctx, focus):
        return _record(Det, (_record(Configuration, (
            ctx.push(focus), getattr(focus, hole))), "discover"))
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
    return _record(Det, (_record(Configuration, (
        ctx.below, instantiate(focus, ctx.top.arg))), "beta"))


def _to_produce(ctx, focus):
    return _record(Det, (_record(Configuration, (
        ctx.below, instantiate(ctx.top, focus.value))), "to-produce"))


def _force_thunk(ctx, focus):
    return _record(Det, (_record(Configuration, (ctx.below, focus.comp)),
                         "force-thunk"))


def _succ(ctx, focus):
    return _record(Det, (_record(Configuration, (
        ctx.below, NumLit(focus.value + 1))), "succ"))


def _pred(ctx, focus):
    return _record(Det, (_record(Configuration, (
        ctx.below, NumLit(max(0, focus.value - 1)))), "pred"))


def _ifz(ctx, focus):
    if focus.value == 0:
        return _record(Det, (_record(Configuration, (
            ctx.below, ctx.top.if_zero)), "ifz0"))
    return _record(Det, (_record(Configuration, (
        ctx.below, ctx.top.if_nonzero)), "ifzN"))


def _seq(ctx, focus):
    return _record(Det, (_record(Configuration, (ctx.below, ctx.top.rest)),
                         "seq"))


def _proj1(ctx, focus):
    return _record(Det, (_record(Configuration, (ctx.below, focus.fst)),
                         "proj1"))


def _proj2(ctx, focus):
    return _record(Det, (_record(Configuration, (ctx.below, focus.snd)),
                         "proj2"))


def _do_ret(ctx, focus):
    return _record(Det, (_record(Configuration, (
        ctx.below, instantiate(ctx.top, focus.value))), "do-ret"))


# The contexts of the two non-empty initial shapes with no frame. Every
# init step shares them, as every configuration shares EMPTY_CTX: an empty
# context has its shape's id in every table, so keying one writes nothing.
PRODUCE_CTX = EvalContext(PRODUCE_HOLE)
PRODUCE_RET_CTX = EvalContext(PRODUCE_RET_HOLE)


def _init_produce(ctx, focus):
    return _record(Det, (_record(Configuration, (PRODUCE_CTX, focus.value)),
                         "init-produce"))


def _init_ret(ctx, focus):
    return _record(Det, (_record(Configuration,
                                 (PRODUCE_RET_CTX, focus.value)),
                         "init-ret"))


def _axiom_star(ctx, focus):
    return AXIOM_STAR


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


class ProbResult(NamedTuple):
    """Certified bounds on must-termination probability.

    lower is at most the true probability and upper at least it; the result
    is exact when they meet. steps_used counts machine steps taken, one per
    configuration stepped, including inner tester runs. stop names why prob
    returned (see STOPS); a record built by hand has None.
    """
    lower: Fraction
    upper: Fraction
    steps_used: int
    stop: Optional[str] = None

    @property
    def exact(self) -> bool:
        return self.lower == self.upper


# Why prob returned, in the order it tests them: the bounds met; the graph
# is closed, held open only by undecided gates; the work cap was reached;
# the horizon reached the budget; the lower bound rose by less than epsilon
# in a round.
STOPS = ("exact", "gates", "work", "budget", "epsilon")


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
    configuration once. The root is not keyed: a later configuration equal
    to it gets a node of its own.

    Every configuration is keyed in one IdTable, ids, chosen at the root:
    the table of its focus, else of its innermost frame, else a new one.
    A configuration reached from a checked core is built from that core's
    nodes, so its key reads the ids they keep, except at a leaf focus and
    the ifz frame of a pifz split, which are walked."""

    __slots__ = ("ids", "kind", "succ", "lower", "upper", "dist", "nodes",
                 "unfolds", "gates", "cyclic", "open", "steps", "buckets",
                 "queue")

    def __init__(self, cfg: Configuration):
        ctx, focus = cfg
        ids = focus.__dict__.get("_ids")
        if ids is None and ctx.below is not None:
            ids = ctx.top.__dict__.get("_ids")
        self.ids = IdTable() if ids is None else ids
        self.kind = [CONST]
        self.succ = [()]
        self.lower = [ZERO]
        self.upper = [ONE]
        self.dist = [0]  # None once the node's walk has started
        self.nodes = {}
        self.unfolds = {}
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
        key = cfg.key(self.ids)
        n = self.nodes.get(key)
        if n is None:
            n = self.nodes[key] = self._node(CONST, (), d)
            self.open += 1
            self._push(d, (n, cfg, True))
            return n
        self.cyclic = self.cyclic or n < src
        if self.dist[n] is not None and d < self.dist[n]:
            self.dist[n] = d
            self._push(d, (n, cfg, True))
        return n

    def explore(self, horizon: int) -> None:
        """Step every configuration closer to the root than horizon, or
        stop once steps reaches MAX_STEPS and leave what is left of the
        bucket queued. A walk runs its chain to its end, so steps may pass
        MAX_STEPS by one chain."""
        queue, buckets, dist = self.queue, self.buckets, self.dist
        max_steps = MAX_STEPS
        while queue and queue[0] < horizon:
            d = heapq.heappop(queue)
            items = iter(buckets.pop(d))
            for n, cfg, fresh in items:
                if self.steps >= max_steps:
                    buckets[d] = [(n, cfg, fresh), *items]
                    heapq.heappush(queue, d)
                    return
                if fresh:
                    if dist[n] is None:
                        continue  # reached again at a shorter distance
                    dist[n] = None
                self._walk(n, cfg, d, fresh, horizon)

    def _walk(self, n: int, cfg: Configuration, d: int, at_node: bool,
              horizon: int) -> None:
        # Deterministic steps build no key, except at a rec unfold, which
        # is where a chain can loop; the node's own configuration is keyed.
        # Each step is one unit of distance. A walk starts below horizon, so
        # a rec node unfolds only here, as its node's first step; any other
        # rec focus the chain meets is a link.
        start = d
        if at_node and type(cfg.focus) is Rec:
            cfg = self._unfolded(cfg)
            d += 1
        while True:
            if type(cfg.focus) is Rec:
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
        self.steps += d - start
        link = self._link
        kind = type(out)
        if kind is Terminal:
            self.lower[n] = ONE
            self._close(n, CONST, ())
        elif kind is SplitPChoice:
            self._close(n, AVG, (link(n, out.left, d), link(n, out.right, d)))
        elif kind is SplitNChoice:
            self._close(n, MIN, (link(n, out.left, d), link(n, out.right, d)))
        elif kind is SplitPifz:
            via = link(n, out.via_ifz, d)
            hedge = self._node(MIN, (), None)
            self.succ[hedge] = (link(hedge, out.left, d),
                                link(hedge, out.right, d))
            self._close(n, MAX, (via, hedge))
        elif kind is ObsGate:
            # Stays CONST, frontier in both systems, until solve decides it.
            self.gates[n] = out.bound
            self._close(n, CONST, (link(n, out.cont, d),
                                   link(n, out.inner, d)))
        else:
            raise OpsemError(f"stuck configuration: {out.reason}")

    def _unfolded(self, cfg: Configuration) -> Configuration:
        """The configuration a rec unfold steps cfg to. The body each rec
        node unfolds to is kept, keyed by the node's identity (the node is
        kept with it), so each node is substituted into once per graph."""
        ctx, focus = cfg
        kept = self.unfolds.get(id(focus))
        if kept is None:
            kept = self.unfolds[id(focus)] = (focus, step(cfg).next.focus)
        return _record(Configuration, (ctx, kept[1]))

    def _close(self, n: int, kind: int, succ: tuple) -> None:
        self.kind[n] = kind
        self.succ[n] = succ
        self.open -= 1

    def solve(self) -> tuple:
        """Least fixed points of the lower and upper systems, at the root.
        A graph with a cycle through two or more nodes is solved one
        component at a time, successors first, and before each component
        every gate whose inner node lies outside it is decided. In any
        other graph every edge runs to a newer node or back to its source,
        so newest first is an order of one-node components, successors
        first: it is solved in runs cut at each gate, whose continuation
        and inner node are newer than it or the gate itself, and the gate
        is decided between two runs. A gate whose inner run reaches the
        gate itself stays frontier."""
        kind, succ, gates = self.kind, self.succ, self.gates
        # With no frontier node and no undecided gate the systems coincide.
        vals = ((self.lower, self.upper) if self.open or gates else
                (self.lower,))
        if self.cyclic:
            for comp in components(succ, 0):
                for g in comp if gates else ():
                    if g in gates and succ[g][1] not in comp:
                        self._decide(g)
                if len(comp) == 1:
                    solve_singletons(comp, kind, succ, vals)
                else:
                    for val in vals:
                        solve_cyclic(comp, kind, succ, val)
        else:
            top = len(kind)
            for g in sorted(gates, reverse=True):
                solve_singletons(range(top - 1, g, -1), kind, succ, vals)
                self._decide(g)
                top = g + 1
            solve_singletons(range(top - 1, -1, -1), kind, succ, vals)
        return self.lower[0], vals[-1][0]

    def _decide(self, g: int) -> None:
        """Decide gate g on its inner node's final bounds: it opens (DET to
        its continuation) when the lower one is above its bound, and shuts
        for good (CONST 0) when the upper one is at or below it. An
        undecided gate is CONST at 0 and 1, so a gate that is its own inner
        node stays undecided."""
        cont, inner = self.succ[g]
        if self.lower[inner] > self.gates[g]:
            self.kind[g], self.succ[g] = DET, (cont,)
        elif self.upper[inner] <= self.gates[g]:
            self.upper[g], self.succ[g] = ZERO, ()
        else:
            return
        del self.gates[g]


def prob(cfg: Configuration, budget: int,
         epsilon: Fraction = ZERO) -> ProbResult:
    """Certified bounds from the configuration graph explored out to
    horizons START_BUDGET, twice that, and so on up to budget. Stops early
    when the bounds meet, when nothing is left to explore, once MAX_STEPS
    steps are used (the work cap, apart from the horizon: a round cut by it
    leaves frontier nodes, which keep the bounds sound), or, for positive
    epsilon, when the lower bound rose by less than epsilon in a round
    after the graph grew past its root. A graph of the root alone is one
    deterministic chain that has met no branch and no rec unfold yet, so
    its lower bound stays 0 until the chain ends, however long it is.
    The result's stop names the first of these that held (see STOPS)."""
    graph = _Graph(cfg)
    horizon = min(START_BUDGET, budget)
    prev = None
    while True:
        graph.explore(horizon)
        lower, upper = graph.solve()
        if lower is upper or lower == upper:
            stop = "exact"
        elif not graph.open:
            stop = "gates"
        elif graph.steps >= MAX_STEPS:
            stop = "work"
        elif horizon >= budget:
            stop = "budget"
        elif (prev is not None and epsilon > 0 and lower - prev < epsilon
              and len(graph.kind) > 1):
            stop = "epsilon"
        else:
            prev = lower
            horizon = min(horizon * 2, budget)
            continue
        return _record(ProbResult, (lower, upper, graph.steps, stop))


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
        if isinstance(out, Stuck):
            entries.append(TraceEntry(f"stuck: {out.reason}", None))
        else:
            entries.append(TraceEntry(out.rule, None))
        return entries
    entries.append(TraceEntry("budget-exhausted", None))
    return entries
