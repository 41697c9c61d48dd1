"""Runtime fault-injection hooks: arm a plan, fire sites, burn fuses.

The production code calls :func:`perform`/:func:`fire` at each
instrumented site.  With no plan armed those are near-free no-ops (one
module-global ``is None`` check), so the hooks can stay compiled into the
hot path permanently.  :func:`inject` arms a plan for the current process
*and* stages it into the environment so spawned pool workers observe
the same schedule.

Occurrence counting is per-process, but "fire at most ``count`` times
globally" rules must hold across the whole worker fleet — a crash rule
with ``count=1`` must not kill every worker that happens to reach the
same local occurrence.  That cross-process once-only guarantee is a
directory of *fuse files* created with ``O_CREAT | O_EXCL``: the first
process to burn the fuse wins, everyone else sees it spent.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import tempfile
import time
from typing import Dict, Iterator, NamedTuple, Optional

from repro.chaos.plan import FaultPlan, FaultRule
from repro.errors import SearchError

__all__ = [
    "ENV_FUSES",
    "ENV_PLAN",
    "FaultAction",
    "FaultInjector",
    "InjectedFault",
    "WorkerChaos",
    "active",
    "fire",
    "inject",
    "perform",
    "worker_chaos",
]

ENV_PLAN = "REPRO_CHAOS_PLAN"
ENV_FUSES = "REPRO_CHAOS_FUSES"


class InjectedFault(OSError):
    """The error raised by ``action="error"`` rules.

    Subclasses :class:`OSError` so the production retry paths treat an
    injected IO failure exactly like a real one.
    """


class FaultAction(NamedTuple):
    """A fired rule, handed back to the instrumented site."""

    action: str
    seconds: float
    rule_index: int
    exit_code: int


class FaultInjector:
    """Per-process view of an armed :class:`FaultPlan`.

    Tracks per-site occurrence counts locally and consults the shared
    fuse directory before letting a rule fire, so bounded-count rules
    hold fleet-wide.
    """

    def __init__(self, plan: FaultPlan, fuse_dir: Optional[str] = None):
        self.plan = plan
        self.fuse_dir = fuse_dir
        self._counts: Dict[str, int] = {}

    def _bump(self, site: str) -> int:
        occurrence = self._counts.get(site, 0) + 1
        self._counts[site] = occurrence
        return occurrence

    def _burn_fuse(self, rule_index: int, count: int) -> bool:
        """Claim one of the rule's ``count`` fuses; False when all spent."""
        if self.fuse_dir is None:
            return True  # no shared ledger: local counting is authoritative
        for slot in range(count):
            path = os.path.join(self.fuse_dir, f"rule{rule_index}.{slot}")
            try:
                handle = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                continue
            except OSError:
                return True  # fuse dir vanished mid-run: fail open
            os.close(handle)
            return True
        return False

    def fire(
        self, site: str, worker: Optional[int] = None
    ) -> Optional[FaultAction]:
        """Record a hit on ``site``; return the armed action, if any."""
        occurrence = self._bump(site)
        for index, rule in enumerate(self.plan.rules):
            if rule.site != site:
                continue
            if not rule.matches(occurrence, worker):
                continue
            if not self._burn_fuse(index, rule.count):
                continue
            return FaultAction(
                rule.action, rule.seconds, index, rule.exit_code
            )
        return None

    def clock_skew(self) -> float:
        """Cumulative injected clock skew, in seconds.

        Unlike the one-shot sites, skew *persists*: once the clock has
        been consulted ``occurrence`` times, every later reading carries
        the rule's offset.  ``count`` is ignored for skew rules.
        """
        occurrence = self._bump("clock")
        skew = 0.0
        for rule in self.plan.rules:
            if rule.site == "clock" and occurrence >= rule.occurrence:
                skew += rule.seconds
        return skew


_ACTIVE: Optional[FaultInjector] = None


def active() -> Optional[FaultInjector]:
    """The injector armed in this process, or None."""
    global _ACTIVE
    if _ACTIVE is None:
        text = os.environ.get(ENV_PLAN)
        if text:
            # A spawned child inherits the plan through the environment;
            # arm it lazily on first consultation.
            _ACTIVE = FaultInjector(
                FaultPlan.from_json(text), os.environ.get(ENV_FUSES)
            )
    return _ACTIVE


def fire(site: str, worker: Optional[int] = None) -> Optional[FaultAction]:
    """Fire ``site`` against the active plan; None when no plan is armed."""
    injector = active()
    if injector is None:
        return None
    return injector.fire(site, worker)


def perform(site: str) -> Optional[FaultAction]:
    """Fire ``site`` and carry out delay/error actions in-line.

    ``delay`` sleeps here and returns the action; ``error`` raises
    :class:`InjectedFault`.  Other actions (``corrupt``) are returned for
    the caller to apply, since only the call site knows what bytes to
    mangle.
    """
    action = fire(site)
    if action is None:
        return None
    if action.action == "delay":
        time.sleep(action.seconds)
        return action
    if action.action == "error":
        raise InjectedFault(
            f"injected fault at {site} (rule {action.rule_index})"
        )
    return action


@contextlib.contextmanager
def inject(plan: FaultPlan) -> Iterator[FaultInjector]:
    """Arm ``plan`` for this process tree for the duration of the block.

    Stages the plan JSON, a fresh fuse directory, and the plan's extra
    ``env`` overrides into ``os.environ`` so spawned children observe the
    same schedule; everything is restored (and the fuse directory removed)
    on exit.
    """
    global _ACTIVE
    if _ACTIVE is not None:
        raise SearchError("a fault plan is already armed in this process")
    fuse_dir = tempfile.mkdtemp(prefix="repro-chaos-fuses-")
    staged = {ENV_PLAN: plan.to_json(), ENV_FUSES: fuse_dir}
    staged.update(plan.env_dict())
    saved = {key: os.environ.get(key) for key in staged}
    os.environ.update(staged)
    injector = FaultInjector(plan, fuse_dir)
    _ACTIVE = injector
    try:
        yield injector
    finally:
        _ACTIVE = None
        for key, previous in saved.items():
            if previous is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = previous
        shutil.rmtree(fuse_dir, ignore_errors=True)


class WorkerChaos:
    """Worker-side handle for ``pool.worker.task`` rules.

    Instantiated inside a pool worker from the environment-staged plan;
    :meth:`on_task` is consulted once per dequeued task and carries out
    crash/hang/delay actions.
    """

    def __init__(self, injector: FaultInjector, worker: Optional[int] = None):
        self._injector = injector
        self._worker = worker

    def on_task(self) -> None:
        action = self._injector.fire("pool.worker.task", self._worker)
        if action is None:
            return
        if action.action == "crash":
            # Simulate a segfault/OOM kill: die without cleanup, without
            # flushing queues, without running atexit handlers.
            os._exit(action.exit_code)
        if action.action in ("hang", "delay"):
            time.sleep(action.seconds)


def worker_chaos(worker: Optional[int] = None) -> Optional[WorkerChaos]:
    """Build the worker-side chaos handle from the environment, if armed.

    Returns None when no plan is staged or the plan has no worker rules,
    so fault-free workers pay exactly one env lookup at startup.
    """
    injector = active()
    if injector is None:
        return None
    if not any(r.site == "pool.worker.task" for r in injector.plan.rules):
        return None
    return WorkerChaos(injector, worker)
