"""Plain perf_counter spans around calls into the package's layers.

A wrapper is installed at the name its caller looks up (a module attribute
or a class attribute), so the package itself is not edited. Each stat
collects, per span name:

    calls    every call, including direct recursion
    self_s   span duration minus the time of child spans
    incl_s   span duration, counted only at the outermost open span of
             that name, so recursion is not counted twice
    amount   a per-call quantity chosen by the caller (characters parsed,
             steps reported)

A call of a function whose own span is innermost (direct recursion, as in
densem.leq or densem.skey) opens no new span: its time stays in the
enclosing span's self time. cProfile is not used because it inflates this
recursive code several times over.
"""

from __future__ import annotations

import time

CALLS, SELF_S, INCL_S, AMOUNT = range(4)


class Tracer:
    def __init__(self):
        self.stats = {}
        self._open = {}
        self._stack = []
        self._patches = []

    def wrap(self, owner, attr: str, name: str, amount=None) -> None:
        """Replace owner.attr with a timing wrapper recorded under name.
        amount(args, result) adds a quantity to the stat on each return."""
        fn = getattr(owner, attr)
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        self._open.setdefault(name, 0)
        stack, opened, clock = self._stack, self._open, time.perf_counter

        def traced(*args, **kwargs):
            stats[CALLS] += 1
            if stack and stack[-1][0] is stats:
                result = fn(*args, **kwargs)
                if amount is not None:
                    stats[AMOUNT] += amount(args, result)
                return result
            frame = [stats, 0.0]
            stack.append(frame)
            opened[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                opened[name] -= 1
                stats[SELF_S] += dur - frame[1]
                if not opened[name]:
                    stats[INCL_S] += dur
                if stack:
                    stack[-1][1] += dur
            if amount is not None:
                stats[AMOUNT] += amount(args, result)
            return result

        self._patches.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def uninstall(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)
