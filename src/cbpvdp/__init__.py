"""Call-by-push-value with probabilistic and demonic choice: a surface
language, type checker, small-step engine with certified lower and upper
bounds on termination probability, domain-theoretic evaluator, and a
differential-testing harness tying the two semantics together."""

from .syntax import (
    ArrowT, DistT, IntT, ProdT, ProducerT, ThunkT, Type, UnitT,
    UNIT, INT, VUNIT, FVUNIT,
    Abort, App, Do, Force, Ifz, Lambda, NChoice, NumLit, Obs, Pair, PChoice,
    Pifz, Pred, Proj1, Proj2, Produce, Rec, Ret, Seq, Star, Succ, Term,
    Thunk, To, Var,
    alpha_equal, free_vars, substitute,
)
from .typecheck import TypeCheckError, check, elaborate, synth
from .opsem import (
    Configuration, ProbResult, initial_config, pr_limit, prob, step, trace,
)
from .densem import (
    EvalOutcome, evaluate, hstar, leq, meet, qstar, render_value, vdagger,
)
from .surface import ParseError, parse, parse_type_text, print_term
from .harness import (
    AdequacyReport, GenPolicy, TermGen, adequacy_check, adequacy_campaign,
    oracle_prob,
)

__version__ = "0.1.0"
