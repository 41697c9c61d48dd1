"""Persistent shared-memory pool plane (speculative scheduler path).

Wraps the PR 5 execution stack — a long-lived
:class:`~repro.parallel.pool.PersistentEvalPool` kept saturated by a
:class:`~repro.parallel.scheduler.SpeculativeScheduler` — behind the
:class:`~repro.evalplane.plane.EvaluationPlane` interface.  The search's
hints feed the scheduler's priority frontier; a demanded value blocks
only until the pool merges it into the shared cache.  The trajectory
contract is inherited from the scheduler: accepted moves and the chosen
optimum are bitwise-identical to the serial plane.

One scheduler serves one search run: :meth:`drain` banks every in-flight
completion and retires the scheduler, and the next hint or demand lazily
creates a fresh one against the same pool — which is how a multistart
shares a single worker fleet across all of its starts.

Degradation ladder
------------------
The plane owns the mid-search degradation ladder, ``persistent ->
serial``.  A pool that raises :class:`~repro.errors.PoolFailure`
(respawn budget exhausted), loses a demanded task, or exceeds the
cumulative ``failure_budget`` of respawns plus dropped tasks is retired;
the plane demotes the objective to in-process solving and continues the
same search against the same cache.  The step down is recorded as a
:class:`~repro.resilience.health.DegradationEvent` (surfaced on
``EvalResult.health`` and the final ``WindimResult``), and because both
rungs report through the same :class:`~repro.search.cache.
EvaluationCache` prime-once bookkeeping, the search trajectory stays
bitwise identical to a fault-free run.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from repro.errors import PoolFailure, SearchError
from repro.evalplane.plane import EvaluationPlane
from repro.parallel.pool import _env_int

__all__ = ["PersistentPlane", "DEFAULT_FAILURE_BUDGET"]

Point = Tuple[int, ...]

#: Cumulative (respawns + dropped tasks) tolerated before the plane
#: stops trusting the persistent pool and steps down to serial.
DEFAULT_FAILURE_BUDGET = 8


class PersistentPlane(EvaluationPlane):
    """Asynchronous speculative evaluation on a persistent worker fleet."""

    name = "persistent"

    def __init__(self, objective, failure_budget: Optional[int] = None, **wiring):
        super().__init__(objective, **wiring)
        if not getattr(objective, "parallel", False):
            raise SearchError(
                "PersistentPlane requires a parallel objective (workers > 1 "
                "and a named solver)"
            )
        if self.space is None:
            raise SearchError("PersistentPlane requires a search space")
        self._scheduler = None
        self._mode = "persistent"
        if failure_budget is None:
            failure_budget = _env_int(
                "REPRO_POOL_FAILURE_BUDGET", DEFAULT_FAILURE_BUDGET
            )
        self.failure_budget = failure_budget

    # ------------------------------------------------------------------
    @property
    def mode(self) -> str:
        """Current ladder rung: ``persistent`` or ``serial``."""
        return self._mode

    def _live_scheduler(self):
        """The scheduler for the current search run (created lazily)."""
        if self._scheduler is None:
            from repro.parallel.scheduler import SpeculativeScheduler

            self._scheduler = SpeculativeScheduler(
                self._objective.ensure_pool(),
                self.cache,
                self.space,
                merge_hook=self._objective.absorb_remote,
                on_evaluation=self.on_evaluation,
                budget=self.budget,
                max_evaluations=self.max_evaluations,
                seed_for=self.seed_for,
            )
        return self._scheduler

    @property
    def scheduler_stats(self) -> Optional[dict]:
        """Speculation counters of the current scheduler (None when idle)."""
        return self._scheduler.stats if self._scheduler is not None else None

    # ------------------------------------------------------------------
    # degradation ladder
    # ------------------------------------------------------------------
    def _degrade(self, reason: str) -> None:
        """Step down to serial; the broken pool is abandoned, not drained."""
        self._record_degradation("persistent", "serial", reason)
        # The scheduler fronted a pool we no longer trust: drop it without
        # finish() — in-flight speculation on a broken fleet is forfeit.
        self._scheduler = None
        self._objective.demote_pool()
        self._mode = "serial"

    def _pooled(self) -> bool:
        """Still on the pool rung?  Steps down first if over budget."""
        if self._mode != "persistent":
            return False
        health = self._objective.pool_health
        if (
            self.failure_budget > 0
            and health is not None
            and health.respawns + health.tasks_dropped >= self.failure_budget
        ):
            self._degrade(
                f"pool failure budget exhausted ({health.respawns} respawns"
                f" + {health.tasks_dropped} dropped >= {self.failure_budget})",
            )
            return False
        return True

    # ------------------------------------------------------------------
    def _fulfil(self, key: Point):
        if self._pooled():
            # demand() blocks until the pool's value for this point is
            # merged into the cache; the scheduler fires on_evaluation on
            # every merge, so the base class must not fire it again.
            try:
                self._live_scheduler().demand(key)
                return self.cache(key), True
            except (PoolFailure, SearchError) as error:
                self._degrade(str(error))
        if key in self.cache.values:
            # merged by the pool before it failed (hook already fired)
            return self.cache.values[key], True
        # serial rung: plain in-process solve, base class fires the hook
        return self.cache(key), False

    # ------------------------------------------------------------------
    # speculation (the serial rung has nothing worth prepaying for)
    # ------------------------------------------------------------------
    def hint_sweep(self, point: Sequence[int], value: float, step: int) -> None:
        if not self._pooled():
            return
        try:
            self._live_scheduler().begin_sweep(self._key(point), step)
        except (PoolFailure, SearchError) as error:
            self._degrade(str(error))

    def hint_accept(
        self,
        new_base: Sequence[int],
        previous: Sequence[int],
        value: float,
        step: int,
    ) -> None:
        if not self._pooled():
            return
        try:
            self._live_scheduler().note_accept(
                self._key(new_base), self._key(previous), step
            )
        except (PoolFailure, SearchError) as error:
            self._degrade(str(error))

    def hint_step(self, step: int) -> None:
        if self._mode != "persistent" or self._scheduler is None:
            return
        try:
            self._scheduler.note_step(step)
        except (PoolFailure, SearchError) as error:
            self._degrade(str(error))

    def submit_many(self, batch: Sequence[Sequence[int]]):
        """Seed-list fan-out on the pool (one barrier batch).

        Uses the objective's pool ``map`` path — warm seeds travel by
        arena slot — then reports through the cache like every other
        merge.  Caps are honoured quietly, as in the base class.  A pool
        failure mid-batch degrades to serial and replays the batch there.
        """
        if self._mode == "persistent":
            try:
                return self._submit_batched(batch)
            except (PoolFailure, SearchError) as error:
                self._degrade(str(error))
        return super().submit_many(batch)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def drain(self) -> None:
        """Bank all in-flight speculation, then retire the scheduler.

        Idempotent; called by the search when a run ends (normally or on
        budget exhaustion) and by :meth:`close` on clean exits, so no
        exit path can leave paid-for pool results unmerged.  The next
        demand starts a fresh scheduler on the same fleet.  If the pool
        breaks while draining, the plane degrades instead of raising —
        a drain must never lose an otherwise-complete search.
        """
        if self._scheduler is not None:
            scheduler, self._scheduler = self._scheduler, None
            try:
                scheduler.finish()
            except (PoolFailure, SearchError) as error:
                self._degrade(f"pool failed during drain: {error}")
