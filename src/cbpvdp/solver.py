"""Least fixed points of finite monotone systems over exact rationals.

A system has one unknown per node. A node's kind gives its equation over
its successors' values:

    CONST  x = its preset value (no successors are read)
    DET    x = x[s0]
    AVG    x = (x[s0] + x[s1]) / 2
    MIN    x = min(x[s0], x[s1])
    MAX    x = max(x[s0], x[s1])

This is a simple stochastic game whose payoff is the value of the CONST
node where a play stops (Condon 1992, The complexity of stochastic games):
MAX nodes belong to the player who wants a high value, MIN nodes to the
one who wants a low value, and AVG nodes toss a fair coin. The least fixed
point is the game's value. It is found one strongly connected component
at a time, successors first. Every one-node component, with a self-loop
too, takes its kind's closed form, and solve_singletons fills in every
system it is given, such as a lower and an upper one, in one pass over
such components. In a larger component, a qualitative pass first sets to
0 the nodes from which the low player can keep the play away from every
positive payoff; on the rest, Hoffman-Karp strategy iteration solves one
exact linear system per pair of strategies, for each system in turn.
"""

from __future__ import annotations

from fractions import Fraction

CONST, DET, AVG, MIN, MAX = range(5)

ZERO, HALF, ONE = Fraction(0), Fraction(1, 2), Fraction(1)


def components(succ, root: int) -> list:
    """Strongly connected components of the nodes reachable from root, as
    lists of node ids, successors' components first (Tarjan's algorithm,
    with an explicit stack). Node ids index succ."""
    index = [-1] * len(succ)
    low = [0] * len(succ)
    on_stack = [False] * len(succ)
    stack, out = [], []
    work = [(root, 0)]
    count = 0
    while work:
        node, i = work.pop()
        if i == 0:
            index[node] = low[node] = count
            count += 1
            stack.append(node)
            on_stack[node] = True
        edges = succ[node]
        while i < len(edges):
            nxt = edges[i]
            i += 1
            if index[nxt] < 0:
                work.append((node, i))
                work.append((nxt, 0))
                break
            if on_stack[nxt] and index[nxt] < low[node]:
                low[node] = index[nxt]
        else:
            if low[node] == index[node]:
                comp = []
                while True:
                    top = stack.pop()
                    on_stack[top] = False
                    comp.append(top)
                    if top == node:
                        break
                out.append(comp)
            if work:
                parent = work[-1][0]
                if low[node] < low[parent]:
                    low[parent] = low[node]
    return out


def solve_singletons(order, kind, succ, vals) -> None:
    """Fill in every array of vals, one per system, for nodes that are each
    a one-node component, listed successors first: each node's closed form
    reads its successors' values, already final."""
    for n in order:
        k = kind[n]
        if k == CONST:
            continue
        ss = succ[n]
        if n in ss:
            # A self-loop: x = x, x = min(x, b) and an arm pair (x, x) have
            # the least solution 0; x = (x + b) / 2 and x = max(x, b) have b.
            # opsem builds no MIN or MAX one: each arm of its MIN and MAX
            # nodes is reached from the node by a chain with no rec unfold
            # after the node's start, or is a fresh hedge node, and the
            # rec-free fragment cannot loop; direct callers may build them.
            b = (n if k == DET or k == MIN else
                 ss[1] if ss[0] == n else ss[0])
            for val in vals:
                val[n] = ZERO if b == n else val[b]
        elif k == DET:
            s = ss[0]
            for val in vals:
                val[n] = val[s]
        else:
            s0, s1 = ss
            for val in vals:
                a, b = val[s0], val[s1]
                val[n] = (a if a is b or a == b else
                          (a + b) * HALF if k == AVG else
                          min(a, b) if k == MIN else max(a, b))


def solve_cyclic(comp, kind, succ, val) -> None:
    """Fill in val, one system, for the nodes of one component of two or
    more nodes, given its values of every node outside it that the
    component reaches: the qualitative pass, then strategy iteration on the
    positive nodes."""
    inside = set(comp)
    pos, choice = _positive(comp, kind, succ, val, inside)
    for n in comp:
        if n not in pos:
            val[n] = ZERO
    if pos:
        _strategy_iteration(comp, kind, succ, val, pos, choice)


def _positive(comp, kind, succ, val, inside):
    """The nodes of the component whose least value is positive, and for
    each such MAX node a successor that makes it so. A node is added only
    once the successors it needs are positive, so following the recorded
    choices from any positive node, and any choice of the low player,
    reaches a positive payoff outside the component or at a CONST node with
    positive probability."""
    pos, choice, work = set(), {}, []
    missing = {}  # MIN nodes: inside successors not yet known positive
    preds = {n: [] for n in comp}

    def add(n, via):
        pos.add(n)
        work.append(n)
        if kind[n] == MAX:
            choice[n] = via

    for n in comp:
        k = kind[n]
        if k == CONST:
            if val[n] > 0:
                add(n, None)
            continue
        needed = set(succ[n][:1] if k == DET else succ[n])
        for s in needed & inside:
            preds[s].append(n)
        if k == MIN:
            if all(val[s] > 0 for s in needed - inside):
                missing[n] = len(needed & inside)
                if not missing[n]:
                    add(n, None)
        else:
            hit = [s for s in needed - inside if val[s] > 0]
            if hit:
                add(n, hit[0])
    while work:
        s = work.pop()
        for n in preds[s]:
            if n in pos:
                continue
            if kind[n] == MIN:
                if n in missing:
                    missing[n] -= 1
                    if not missing[n]:
                        add(n, None)
            else:
                add(n, s)
    return pos, choice


def _strategy_iteration(comp, kind, succ, val, pos, choice) -> None:
    """Hoffman-Karp on the positive nodes. The high player starts from the
    qualitative pass's choices and switches only where that strictly
    improves, which keeps every linear system non-singular; for each of its
    strategies the low player's best reply is found the same way."""
    unknown = [n for n in comp if n in pos and kind[n] != CONST]
    low = {n: succ[n][0] for n in unknown if kind[n] == MIN}
    high = dict(choice)
    while True:
        while True:
            _evaluate(unknown, kind, succ, val, high, low)
            better = {n: s for n, t in low.items()
                      for s in succ[n] if val[s] < val[t]}
            if not better:
                break
            low.update(better)
        better = {n: s for n, t in high.items()
                  for s in succ[n] if val[s] > val[t]}
        if not better:
            return
        high.update(better)


def _evaluate(unknown, kind, succ, val, high, low) -> None:
    """Store in val the values of the Markov chain that the two strategies
    leave on the unknown nodes."""
    rows = {}
    variables = set(unknown)
    for n in unknown:
        k = kind[n]
        if k == AVG:
            targets, w = succ[n], HALF
        else:
            targets = ((succ[n][0],) if k == DET else
                       (high[n],) if k == MAX else (low[n],))
            w = ONE
        coeffs, const = {}, ZERO
        for s in targets:
            if s in variables:
                coeffs[s] = coeffs.get(s, ZERO) + w
            else:
                const += w * val[s]
        rows[n] = (coeffs, const)
    for n, v in solve_linear(rows).items():
        val[n] = v


def solve_linear(rows: dict) -> dict:
    """Exact solution of x[v] = sum(c * x[u] for u, c in coeffs) + const,
    one row (coeffs, const) per unknown v, by Gaussian elimination in the
    rows' order on sparse rows. The system must have a unique solution."""
    order = list(rows)
    rank = {v: i for i, v in enumerate(order)}
    users = {v: set() for v in order}
    for v, (coeffs, _) in rows.items():
        for u in coeffs:
            users[u].add(v)
    for v in order:
        coeffs, const = rows[v]
        self_c = coeffs.pop(v, ZERO)
        if self_c:
            # 1 - self_c is positive when the system has a unique solution.
            scale = 1 / (1 - self_c)
            coeffs = {u: c * scale for u, c in coeffs.items()}
            const *= scale
            rows[v] = (coeffs, const)
        for w in users.pop(v):
            if rank[w] <= rank[v]:
                continue
            wc, wk = rows[w]
            c = wc.pop(v)
            for u, cu in coeffs.items():
                wc[u] = wc.get(u, ZERO) + c * cu
                users[u].add(w)
            rows[w] = (wc, wk + c * const)
    x = {}
    for v in reversed(order):
        coeffs, const = rows[v]
        x[v] = const + sum(c * x[u] for u, c in coeffs.items())
    return x
