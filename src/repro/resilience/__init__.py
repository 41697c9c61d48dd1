"""Resilient solver runtime (retry ladder, budgets).

Long-running WINDIM jobs must survive three failure modes the bare
algorithms do not handle:

* a *diverging fixed point* at one window vector — contained by the
  :class:`~repro.resilience.ladder.ResilientSolver` escalation ladder
  (damped retries, then algorithm escalation, with structured
  :class:`~repro.resilience.health.SolveHealth` records);
* an *unbounded run* — contained by
  :class:`~repro.resilience.budget.SearchBudget` deadlines and evaluation
  budgets that degrade a search to best-so-far instead of hanging;
* a *crash or kill signal* — contained by the persistent evaluation
  store (:class:`~repro.search.store.EvaluationStore`), which appends
  every fresh evaluation as it completes; ``windim run --store PATH``
  resumes from it.

Every bounded-retry decision across these layers (ladder rungs, pool
respawns, store IO) shares one
:class:`~repro.resilience.retry.RetryPolicy`.
"""

from repro.resilience.budget import BudgetExhausted, SearchBudget
from repro.resilience.health import (
    AttemptOutcome,
    DegradationEvent,
    PoolEvent,
    PoolHealth,
    SolveAttempt,
    SolveHealth,
)
from repro.resilience.retry import RetryPolicy
from repro.resilience.ladder import (
    DEFAULT_DAMPING_SCHEDULE,
    DEFAULT_ESCALATION,
    ResilientSolver,
    solve_resilient,
)

__all__ = [
    "AttemptOutcome",
    "DegradationEvent",
    "PoolEvent",
    "PoolHealth",
    "RetryPolicy",
    "SolveAttempt",
    "SolveHealth",
    "ResilientSolver",
    "solve_resilient",
    "DEFAULT_DAMPING_SCHEDULE",
    "DEFAULT_ESCALATION",
    "SearchBudget",
    "BudgetExhausted",
]
