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

from repro._exports import lazy_exports

_EXPORTS = {
    "AttemptOutcome": "repro.resilience.health",
    "DegradationEvent": "repro.resilience.health",
    "PoolEvent": "repro.resilience.health",
    "PoolHealth": "repro.resilience.health",
    "RetryPolicy": "repro.resilience.retry",
    "SolveAttempt": "repro.resilience.health",
    "SolveHealth": "repro.resilience.health",
    "ResilientSolver": "repro.resilience.ladder",
    "solve_resilient": "repro.resilience.ladder",
    "DEFAULT_DAMPING_SCHEDULE": "repro.resilience.ladder",
    "DEFAULT_ESCALATION": "repro.resilience.ladder",
    "SearchBudget": "repro.resilience.budget",
    "BudgetExhausted": "repro.resilience.budget",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS, globals())
