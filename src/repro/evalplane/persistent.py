"""Persistent shared-memory pool plane.

Runs the searches' evaluations on a long-lived
:class:`~repro.parallel.pool.PersistentEvalPool` behind the
:class:`~repro.evalplane.plane.EvaluationPlane` interface.  A demanded
point is submitted to the pool, awaited, and merged into the shared
cache with the same one-hook bookkeeping as an in-process solve; nothing
is ever in flight between two plane calls.  A pooled search therefore
makes exactly the serial search's evaluations, in the same order, and
walks the bitwise-identical trajectory to the identical optimum.  The
one place the pool works in parallel is :meth:`PersistentPlane.
submit_many` (a multistart seed list), which fans a batch out over
``pool.map``.

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
    """Demand-driven evaluation on a persistent worker fleet."""

    name = "persistent"

    def __init__(self, objective, failure_budget: Optional[int] = None, **wiring):
        super().__init__(objective, **wiring)
        if not getattr(objective, "parallel", False):
            raise SearchError(
                "PersistentPlane requires a parallel objective (workers > 1 "
                "and a named solver)"
            )
        self._mode = "persistent"
        if failure_budget is None:
            failure_budget = _env_int(
                "REPRO_POOL_FAILURE_BUDGET", DEFAULT_FAILURE_BUDGET
            )
        self.failure_budget = failure_budget

    @property
    def mode(self) -> str:
        """Current ladder rung: ``persistent`` or ``serial``."""
        return self._mode

    # ------------------------------------------------------------------
    # degradation ladder
    # ------------------------------------------------------------------
    def _degrade(self, reason: str) -> None:
        """Step down to serial; the broken pool is abandoned."""
        self._record_degradation("persistent", "serial", reason)
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
    def _fulfil(self, key: Point) -> float:
        """Solve ``key`` on the pool, or in-process once demoted."""
        if self._pooled():
            try:
                return self._solve_on_pool(key)
            except (PoolFailure, SearchError) as error:
                self._degrade(str(error))
        return self.cache(key)

    def _solve_on_pool(self, key: Point) -> float:
        pool = self._objective.ensure_pool()
        seed = self.seed_for(key) if self.seed_for is not None else None
        eval_id = pool.submit(key, seed=seed)
        # The demanded task is the only one in flight, so the next
        # completion is its answer.
        done = pool.poll(timeout=None)
        if done is None or done.eval_id != eval_id:
            raise SearchError(
                f"pool drained without completing demanded point {key}"
            )
        if not done.ok:
            detail = (done.payload or {}).get("error", "unknown")
            raise SearchError(
                f"pool worker failed evaluating windows {key}: {detail}"
            )
        self._objective.absorb_remote(key, done.payload)
        self.cache.prime(key, done.value)
        return done.value

    def submit_many(self, batch: Sequence[Sequence[int]]):
        """Seed-list fan-out on the pool (one barrier batch).

        Uses the objective's pool ``map`` path — warm seeds travel by
        arena slot — then reports through the cache like every other
        merge.  Caps are honoured quietly, as in the base class.  A pool
        failure mid-batch degrades to serial and replays the batch there.
        """
        self._check_open()
        if self._mode == "persistent":
            try:
                return self._submit_batched(batch)
            except (PoolFailure, SearchError) as error:
                self._degrade(str(error))
        return super().submit_many(batch)
