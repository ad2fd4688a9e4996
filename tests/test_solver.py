"""Least fixed points of game systems against brute force over strategies."""

import itertools
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from cbpvdp.solver import (
    AVG, CONST, DET, MAX, MIN, components, solve_component, solve_linear,
)

HALF = Fraction(1, 2)


def least_fixed_point(kind, succ, val, root: int) -> list:
    """Solve every node reachable from root in place, one component at a
    time as the engine does: val holds the preset value of each CONST node
    and receives the value of every other one."""
    for comp in components(succ, root):
        solve_component(comp, kind, succ, val)
    return val


def chain_values(kind, succ, const, choice):
    """Reach values of the Markov chain that fixes every MIN and MAX node's
    successor: nodes that cannot reach a positive CONST are 0, the rest
    solve (I - P) x = b by dense Gauss-Jordan elimination."""
    n = len(kind)
    edges = []
    for i in range(n):
        if kind[i] == CONST:
            edges.append([])
        elif kind[i] == AVG:
            edges.append([(succ[i][0], HALF), (succ[i][1], HALF)])
        else:
            edges.append([(choice.get(i, succ[i][0]), Fraction(1))])
    live = {i for i in range(n) if kind[i] == CONST and const[i] > 0}
    grew = True
    while grew:
        grew = False
        for i in range(n):
            if i not in live and any(s in live for s, _ in edges[i]):
                live.add(i)
                grew = True
    unknown = sorted(i for i in live if kind[i] != CONST)
    col = {v: j for j, v in enumerate(unknown)}
    m = len(unknown)
    rows = [[Fraction(0)] * (m + 1) for _ in range(m)]
    for v in unknown:
        row = rows[col[v]]
        row[col[v]] += 1
        for s, w in edges[v]:
            if s in col:
                row[col[s]] -= w
            elif kind[s] == CONST:
                row[m] += w * const[s]
    for c in range(m):
        p = next(r for r in range(c, m) if rows[r][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        for r in range(m):
            if r != c and rows[r][c] != 0:
                f = rows[r][c] / rows[c][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    out = [const[i] if kind[i] == CONST else Fraction(0) for i in range(n)]
    for v in unknown:
        out[v] = rows[col[v]][m] / rows[col[v]][col[v]]
    return out


def brute_force(kind, succ, const):
    """Per node, the best over positional MAX strategies of the worst over
    positional MIN strategies: the value of the simple stochastic game."""
    highs = [i for i in range(len(kind)) if kind[i] == MAX]
    lows = [i for i in range(len(kind)) if kind[i] == MIN]
    best = None
    for high in itertools.product(*(succ[i] for i in highs)):
        worst = None
        for low in itertools.product(*(succ[i] for i in lows)):
            choice = dict(zip(highs, high))
            choice.update(zip(lows, low))
            v = chain_values(kind, succ, const, choice)
            worst = v if worst is None else list(map(min, worst, v))
        best = worst if best is None else list(map(max, best, worst))
    return best


@st.composite
def games(draw):
    n = draw(st.integers(1, 6))
    node = st.integers(0, n - 1)
    kind, succ, const = [], [], []
    for _ in range(n):
        k = draw(st.sampled_from((AVG, MIN, MAX, DET, CONST)))
        kind.append(k)
        if k == CONST:
            succ.append(())
            const.append(Fraction(draw(st.integers(0, 4)), 4))
        else:
            succ.append((draw(node),) if k == DET else
                        (draw(node), draw(node)))
            const.append(None)
    return kind, succ, const


Q, H = Fraction(1, 4), Fraction(1, 2)


@settings(max_examples=400)
@given(games())
# Cycles where the first successor of a MAX node, and of a MIN node, is not
# the best choice: strategy iteration has to switch it.
@example(([CONST, CONST, MAX, AVG], [(), (), (3, 0), (1, 2)],
          [Q, H, None, None]))
@example(([MIN, MAX, AVG, CONST, AVG, CONST],
          [(1, 5), (4, 3), (4, 0), (), (2, 3), ()],
          [None, None, None, Fraction(1), None, H]))
def test_least_fixed_point_is_the_game_value(game):
    kind, succ, const = game
    want = brute_force(kind, succ, const)
    for root in range(len(kind)):
        val = least_fixed_point(kind, succ, list(const), root)
        assert val[root] == want[root], (root, val, want)


def test_components_come_successors_first():
    # 0 -> 1 <-> 2 -> 3, and 3 loops on itself.
    succ = [(1,), (2,), (1, 3), (3,)]
    comps = components(succ, 0)
    assert [sorted(c) for c in comps] == [[3], [1, 2], [0]]


def test_components_of_a_long_chain_use_no_recursion():
    n = 20_000
    succ = [(i + 1,) for i in range(n - 1)] + [()]
    assert len(components(succ, 0)) == n


def test_solve_linear_substitutes_through_a_cycle():
    # x0 = x1 / 2 + 1/2, x1 = x0: x0 = x1 = 1.
    x = solve_linear({0: ({1: HALF}, HALF),
                      1: ({0: Fraction(1)}, Fraction(0))})
    assert x == {0: 1, 1: 1}
