"""Machine-speed calibration.

Shared virtual machines drift in speed: on a 2-core one, consecutive
20-second runs of recfree-text on the same inputs read anywhere from 280 to
580 programs per second of wall time, and a pass could slow by a quarter for
several seconds at a time. Timings are therefore scaled to a reference
speed. A fixed task that uses no code of the package (tree building, string
rendering, dict lookups and Fraction sums, the same kind of interpreter work
as the package's) is timed between programs, and each stretch of measured
time is multiplied by REFERENCE_S over the task's time around it. A time
reported by the benchmark is thus the time the machine would take when the
task runs in REFERENCE_S; raw wall times go to the report line beside it.
The scaling removes about half of the drift, not all of it.
"""

from __future__ import annotations

import time
from fractions import Fraction

REFERENCE_S = 0.001
REPS = 3


def _task() -> int:
    def build(depth, k):
        if depth == 0:
            return ("leaf", Fraction(k % 7 + 1, k % 5 + 2))
        return ("node", build(depth - 1, 2 * k), build(depth - 1, 2 * k + 1))

    def render(node, memo):
        if node[0] == "leaf":
            text = str(node[1])
        else:
            text = f"({render(node[1], memo)} + {render(node[2], memo)})"
        memo[text] = memo.get(text, 0) + 1
        return text

    def total(node):
        if node[0] == "leaf":
            return node[1]
        return total(node[1]) + total(node[2])

    tree = build(8, 1)
    memo = {}
    render(tree, memo)
    return len(memo) + total(tree).denominator


def sample() -> float:
    """Seconds the fixed task takes now: the fastest of REPS runs."""
    best = float("inf")
    for _ in range(REPS):
        start = time.perf_counter()
        _task()
        best = min(best, time.perf_counter() - start)
    return best


def factor(before: float, after: float) -> float:
    """Multiplier from wall time to reference time for a stretch measured
    between two samples."""
    return 2 * REFERENCE_S / (before + after)
