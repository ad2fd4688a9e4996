"""Open defects as strict expected failures.

Each test asserts the intended behaviour at the smallest size that shows
the defect, and is marked xfail(strict=True) with the exception the defect
raises today. A change that fixes one makes its test pass, strict xfail
then fails the suite, and the fixing change removes the mark. A defect
whose program hung before its fix, and so had no expected failure to
hold, gets its regression test here unmarked.
"""

from fractions import Fraction

import pytest

from cbpvdp import densem, opsem, surface
from cbpvdp.syntax import UNIT, Produce, Ret, Star, To


COUNTDOWN = ("force (rec f : U (int -> F V unit). thunk (\\n : int. "
             "ifz n (produce (ret *)) (force f (pred n)))) 8")

# rec-820 of the rec-adequacy pool: its upper bound falls toward 1/2 without
# reaching it, and its denominator grows with the budget.
REC_820 = (
    "produce ((rec g2855 : V unit. ((rec g2856 : V unit. g2855) (+) "
    "(ret (ifz 0 * *)))) (+) (rec g2857 : V unit. ((ifz (rec x : int. x) "
    "((ret *) (+) (ret *)) (rec g2858 : V unit. g2857)) (+) "
    "(do g2859 : unit <- (g2857 (+) (ret *)) in g2857))))")

# One of two different do frames pushed per unfold: the distinct
# configurations within the horizon triple about every 8 steps, so its
# second round would take about 2 * 10^8 steps. The work cap stops it.
TWO_DO_FRAMES = (
    "produce (do x : int <- (rec u : V int. * ; ((do y : int <- u in "
    "ret (pred y)) (+) (do y : int <- u in ret y))) in ret *)")


def test_the_work_cap_stops_a_graph_that_grows_without_bound(monkeypatch):
    cap = 5_000
    monkeypatch.setattr(opsem, "MAX_STEPS", cap)
    res = opsem.pr_limit(surface.parse(TWO_DO_FRAMES))
    # Stopped on the cap, in the first round: a walk that starts below the
    # cap runs its chain, at most one horizon long, to its end.
    assert cap <= res.steps_used <= cap + opsem.START_BUDGET
    assert (res.lower, res.upper) == (0, 1) and res.stop == "work"
    # The cap leaves the horizon alone: a smaller budget stops first.
    small = opsem.pr_limit(surface.parse(TWO_DO_FRAMES), max_budget=32)
    assert small.steps_used < cap and (small.lower, small.upper) == (0, 1)
    assert small.stop == "budget"


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="two zero rounds stop opsem.prob through rec "
                          "unfolds: [0, 1] after 128 steps")
def test_countdown_through_rec_unfolds_is_exact():
    res = opsem.pr_limit(surface.parse(COUNTDOWN))
    assert res.exact and res.lower == 1


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="deep terms end in RecursionError: the evaluator "
                          "takes Python frames per tree level")
def test_deep_to_chain_evaluates():
    term = Produce(Ret(Star()))
    for i in range(400):
        term = To(Produce(Star()), f"x{i}", UNIT, term)
    try:
        out = densem.evaluate(term)
    except RecursionError:
        # Raised again without its frames: pytest reads the source of each
        # of about a thousand frames to print them, which takes seconds.
        raise AssertionError("RecursionError in densem.evaluate") from None
    assert out.exact and densem.render_value(out.value) == "must{dist{1 @ tt}}"


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="bounds at epsilon 0 keep every weight: 7,924 "
                          "denominator bits after 35,004 steps")
def test_upper_bound_bits_stay_bounded_at_epsilon_zero():
    res = opsem.pr_limit(surface.parse(REC_820), epsilon=Fraction(0),
                         max_budget=20_000)
    assert res.upper.denominator.bit_length() <= 2048
