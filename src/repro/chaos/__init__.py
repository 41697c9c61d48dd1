"""Deterministic, seeded fault injection for the evaluation runtime.

Three layers:

- :mod:`repro.chaos.plan` — the :class:`FaultPlan`/:class:`FaultRule`
  DSL: which instrumented site misbehaves, on which occurrence, how.
- :mod:`repro.chaos.hooks` — the runtime side: arm a plan with
  :func:`inject`, fire sites with :func:`perform`/:func:`fire`, share
  bounded-count rules across processes via fuse files.
- :mod:`repro.chaos.battery` — named builtin plans plus the harness that
  runs them against a fixture network and scores survival
  (``windim chaos`` in the CLI).

With no plan armed every hook is a near-free no-op, so the instrumented
sites stay in the production hot path permanently.  Names resolve on
first use (:mod:`repro._exports`).  The battery imports
:func:`repro.core.windim`, whose budget imports :mod:`repro.chaos.clock`,
so it loads only when one of its names is read; the hooks stay
importable from anywhere in the runtime.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "ACTIONS": "repro.chaos.plan",
    "ENV_FUSES": "repro.chaos.hooks",
    "ENV_PLAN": "repro.chaos.hooks",
    "FaultAction": "repro.chaos.hooks",
    "FaultInjector": "repro.chaos.hooks",
    "FaultPlan": "repro.chaos.plan",
    "FaultRule": "repro.chaos.plan",
    "InjectedFault": "repro.chaos.hooks",
    "PlanOutcome": "repro.chaos.battery",
    "SITES": "repro.chaos.plan",
    "SurvivalReport": "repro.chaos.battery",
    "WorkerChaos": "repro.chaos.hooks",
    "active": "repro.chaos.hooks",
    "builtin_plans": "repro.chaos.battery",
    "fire": "repro.chaos.hooks",
    "inject": "repro.chaos.hooks",
    "monotonic": "repro.chaos.clock",
    "perform": "repro.chaos.hooks",
    "run_battery": "repro.chaos.battery",
    "run_plan": "repro.chaos.battery",
    "seeded_occurrence": "repro.chaos.plan",
    "worker_chaos": "repro.chaos.hooks",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS, globals())
