"""The chaos battery: named fault plans, survival runs, and the report.

Each builtin :class:`~repro.chaos.plan.FaultPlan` drives one WINDIM run
(or several, for reload/resume scenarios) under :func:`~repro.chaos.
hooks.inject`, then grades the outcome against a fault-free serial
oracle computed once per battery:

``optimal``
    The run finished cleanly with the oracle's window vector and no
    degradation — the fault was absorbed invisibly (retries, requeues,
    respawns).
``recovered``
    The run still found the oracle's exact optimum, but had to step down
    the degradation ladder (or quarantine data) to get there.
``degraded``
    The run terminated with a structured best-so-far result (budget
    exhausted under clock skew, different vector after data loss) —
    survival without the optimum.
``failed``
    The run raised, hung past its deadline, or silently lost data.

A plan *survives* when its outcome meets its ``expect`` field:
``expect="optimal"`` accepts optimal/recovered, ``expect="degraded"``
accepts anything but failed.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.chaos.hooks import inject
from repro.chaos.plan import FaultPlan, FaultRule
from repro.queueing.network import ClosedNetwork

__all__ = [
    "PlanOutcome",
    "SurvivalReport",
    "builtin_plans",
    "run_battery",
    "run_plan",
]


def builtin_plans() -> Dict[str, FaultPlan]:
    """The named fault-plan battery (insertion order = run order)."""
    plans = [
        FaultPlan(
            name="crash-early-persistent",
            description="one worker segfaults on its first task",
            pool="persistent",
            rules=(FaultRule("pool.worker.task", "crash", occurrence=1),),
        ),
        FaultPlan(
            name="crash-storm-persistent",
            description="six crashes against a respawn budget of three",
            pool="persistent",
            rules=(
                FaultRule("pool.worker.task", "crash", occurrence=1, count=6),
            ),
            env=(("REPRO_MAX_RESPAWNS", "3"),),
        ),
        FaultPlan(
            name="poison-task-persistent",
            description="repeated crashes exhaust the requeue budget",
            pool="persistent",
            rules=(
                FaultRule("pool.worker.task", "crash", occurrence=2, count=4),
            ),
            env=(("REPRO_MAX_REQUEUES", "1"),),
        ),
        FaultPlan(
            name="hang-persistent",
            description="a worker wedges; the watchdog must kill and requeue",
            pool="persistent",
            rules=(
                FaultRule(
                    "pool.worker.task", "hang", occurrence=2, seconds=30.0
                ),
            ),
            env=(("REPRO_TASK_DEADLINE", "0.5"),),
        ),
        FaultPlan(
            name="hang-storm-persistent",
            description="serial hangs against a tight respawn budget",
            pool="persistent",
            rules=(
                FaultRule(
                    "pool.worker.task",
                    "hang",
                    occurrence=1,
                    count=3,
                    seconds=30.0,
                ),
            ),
            env=(
                ("REPRO_TASK_DEADLINE", "0.4"),
                ("REPRO_MAX_RESPAWNS", "2"),
            ),
        ),
        FaultPlan(
            name="slow-worker-persistent",
            description="injected latency only — no failures, no degradation",
            pool="persistent",
            rules=(
                FaultRule(
                    "pool.worker.task",
                    "delay",
                    occurrence=1,
                    count=4,
                    seconds=0.05,
                ),
            ),
        ),
        FaultPlan(
            name="corrupt-store-reload",
            description="bit-rot one store record, then reload the store",
            store=True,
            runs=2,
            rules=(
                FaultRule("store.record", "corrupt", occurrence=3),
            ),
        ),
        FaultPlan(
            name="corrupt-store-persistent",
            description="store bit-rot under the persistent fleet",
            pool="persistent",
            store=True,
            runs=2,
            rules=(
                FaultRule("store.record", "corrupt", occurrence=2),
            ),
        ),
        FaultPlan(
            name="slow-store-io",
            description="every early store append stalls",
            store=True,
            rules=(
                FaultRule(
                    "store.record",
                    "delay",
                    occurrence=1,
                    count=5,
                    seconds=0.05,
                ),
            ),
        ),
        FaultPlan(
            name="flaky-store-io",
            description="transient EIO on store appends (retry must absorb)",
            store=True,
            rules=(
                FaultRule("store.record", "error", occurrence=2, count=2),
            ),
        ),
        FaultPlan(
            name="slow-store-persistent",
            description="slow store IO while the persistent fleet runs",
            pool="persistent",
            store=True,
            rules=(
                FaultRule(
                    "store.record",
                    "delay",
                    occurrence=1,
                    count=3,
                    seconds=0.05,
                ),
            ),
        ),
        FaultPlan(
            name="clock-skew-deadline",
            description="the budget clock jumps forward mid-search",
            expect="degraded",
            max_seconds=60.0,
            rules=(
                FaultRule("clock", "skew", occurrence=4, seconds=9999.0),
            ),
        ),
    ]
    return {plan.name: plan for plan in plans}


@dataclass(frozen=True)
class PlanOutcome:
    """How one fault plan fared against the fault-free oracle."""

    plan: str
    expect: str
    outcome: str  # optimal | recovered | degraded | failed
    ok: bool
    runs: int
    windows: Optional[Tuple[int, ...]]
    reference: Tuple[int, ...]
    status: str
    degradations: int
    quarantined: int
    respawns: int
    hung: int
    seconds: float
    detail: str = ""

    def to_json(self) -> Dict[str, object]:
        payload = dict(self.__dict__)
        payload["windows"] = (
            list(self.windows) if self.windows is not None else None
        )
        payload["reference"] = list(self.reference)
        return payload


@dataclass(frozen=True)
class SurvivalReport:
    """Battery-level summary: one row per plan, plus the oracle."""

    network: str
    reference_windows: Tuple[int, ...]
    reference_power: float
    outcomes: Tuple[PlanOutcome, ...]

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    @property
    def survival_rate(self) -> float:
        if not self.outcomes:
            return 1.0
        return sum(1 for o in self.outcomes if o.ok) / len(self.outcomes)

    def summary(self) -> str:
        lines = [
            f"chaos battery on {self.network}: "
            f"{sum(1 for o in self.outcomes if o.ok)}/{len(self.outcomes)} "
            f"plans survived "
            f"(oracle windows = {list(self.reference_windows)}, "
            f"power = {self.reference_power:.2f})"
        ]
        width = max((len(o.plan) for o in self.outcomes), default=4)
        for o in self.outcomes:
            mark = "ok " if o.ok else "FAIL"
            extras = []
            if o.degradations:
                extras.append(f"{o.degradations} degradation(s)")
            if o.quarantined:
                extras.append(f"{o.quarantined} quarantined")
            if o.respawns:
                extras.append(f"{o.respawns} respawn(s)")
            if o.hung:
                extras.append(f"{o.hung} hung")
            if o.detail:
                extras.append(o.detail)
            suffix = f" [{', '.join(extras)}]" if extras else ""
            lines.append(
                f"  {mark} {o.plan:<{width}}  {o.outcome:<9} "
                f"(expect {o.expect}, {o.seconds:.1f}s){suffix}"
            )
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps(
            {
                "network": self.network,
                "reference_windows": list(self.reference_windows),
                "reference_power": self.reference_power,
                "ok": self.ok,
                "survival_rate": self.survival_rate,
                "outcomes": [o.to_json() for o in self.outcomes],
            },
            indent=2,
            sort_keys=True,
        )


def _grade(
    plan: FaultPlan,
    result,
    reference_windows: Tuple[int, ...],
) -> Tuple[str, str]:
    """Classify one finished run; returns (outcome, detail)."""
    health = result.pool_health
    absorbed = bool(result.degradations) or result.store_quarantined > 0
    if health is not None and (health.respawns or health.hung):
        absorbed = True
    if (
        tuple(result.windows) == reference_windows
        and result.status == "completed"
    ):
        return ("recovered" if absorbed else "optimal"), ""
    return (
        "degraded",
        f"status={result.status}, windows={list(result.windows)}",
    )


def run_plan(
    network: ClosedNetwork,
    plan: FaultPlan,
    reference_windows: Tuple[int, ...],
    max_window: int = 6,
    work_dir: Optional[str] = None,
) -> PlanOutcome:
    """Execute one fault plan (all its runs) and grade the final result.

    ``runs > 1`` re-invokes :func:`~repro.core.windim.windim` against the
    same store file under the *same* armed plan, so faults
    injected in run 1 are what run 2 must recover from.
    """
    from repro.core.windim import windim

    owned_dir = None
    if work_dir is None:
        owned_dir = tempfile.mkdtemp(prefix=f"repro-chaos-{plan.name}-")
        work_dir = owned_dir
    kwargs: Dict[str, object] = {"max_window": max_window}
    if plan.pool is not None:
        kwargs["workers"] = plan.workers
    if plan.store:
        kwargs["store_path"] = os.path.join(work_dir, "evals.store")
    if plan.max_seconds is not None:
        kwargs["max_seconds"] = plan.max_seconds

    started = time.monotonic()
    result = None
    detail = ""
    outcome = "failed"
    try:
        with inject(plan):
            import warnings as _warnings

            with _warnings.catch_warnings():
                # Degradations/quarantines are expected here; they are
                # graded, not printed.
                _warnings.simplefilter("ignore", RuntimeWarning)
                for _ in range(plan.runs):
                    result = windim(network, **kwargs)
        outcome, detail = _grade(plan, result, reference_windows)
    except Exception as error:  # noqa: BLE001 - survival is the metric
        detail = f"{type(error).__name__}: {error}"
    finally:
        if owned_dir is not None:
            shutil.rmtree(owned_dir, ignore_errors=True)
    elapsed = time.monotonic() - started

    if plan.expect == "degraded":
        ok = outcome != "failed"
    else:
        ok = outcome in ("optimal", "recovered")
    health = result.pool_health if result is not None else None
    return PlanOutcome(
        plan=plan.name,
        expect=plan.expect,
        outcome=outcome,
        ok=ok,
        runs=plan.runs,
        windows=tuple(result.windows) if result is not None else None,
        reference=reference_windows,
        status=result.status if result is not None else "error",
        degradations=len(result.degradations) if result is not None else 0,
        quarantined=result.store_quarantined if result is not None else 0,
        respawns=health.respawns if health is not None else 0,
        hung=health.hung if health is not None else 0,
        seconds=elapsed,
        detail=detail,
    )


def run_battery(
    network: ClosedNetwork,
    plan_names: Optional[Sequence[str]] = None,
    max_window: int = 6,
    network_label: str = "network",
) -> SurvivalReport:
    """Run the (selected) builtin battery and report survival.

    The fault-free serial oracle is computed first — outside any plan —
    and every outcome is graded against its window vector.
    """
    from repro.core.windim import windim

    plans = builtin_plans()
    if plan_names:
        unknown = [name for name in plan_names if name not in plans]
        if unknown:
            from repro.errors import SearchError

            raise SearchError(
                f"unknown chaos plan(s) {unknown}; "
                f"available: {sorted(plans)}"
            )
        selected = [plans[name] for name in plan_names]
    else:
        selected = list(plans.values())

    reference = windim(network, max_window=max_window)
    reference_windows = tuple(reference.windows)

    outcomes = []
    for plan in selected:
        outcomes.append(
            run_plan(
                network,
                plan,
                reference_windows,
                max_window=max_window,
            )
        )
    return SurvivalReport(
        network=network_label,
        reference_windows=reference_windows,
        reference_power=reference.power,
        outcomes=tuple(outcomes),
    )
