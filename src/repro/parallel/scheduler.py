"""Asynchronous speculative scheduler for the pattern search.

The barrier-style ``prefetch`` of :func:`repro.search.pattern.
pattern_search` evaluates the ±step cross around each base point in one
synchronous batch: workers all finish, the sweep consumes the values,
workers idle until the next batch.  :class:`SpeculativeScheduler` keeps a
:class:`~repro.parallel.pool.PersistentEvalPool` saturated instead: it
maintains a **priority frontier** of window vectors worth evaluating
before the search asks for them, streams completions out of order into
the shared :class:`~repro.search.cache.EvaluationCache`, and blocks only
when the search *demands* a value that has not yet arrived.

Frontier priorities (lower = sooner)::

    DEMAND         0   the search is blocked on this point right now
    SEED           1   a known-future evaluation (pattern landing point,
                       multistart seed)
    CROSS          2   ±step exploratory cross around the current base
    PATTERN        3   speculative pattern-move extrapolation 2c - b for
                       a cross candidate c that *would* land there if it
                       improves
    PATTERN_CROSS  4   cross around a predicted pattern landing point

Trajectory identity
-------------------
The scheduler never decides anything: :func:`pattern_search` demands the
exact same point sequence as a sequential run, and speculative results
only ever enter the cache through :meth:`EvaluationCache.prime` — the
same merge the synchronous prefetch uses.  Pool workers run the same
named solver with the same backend, so a demanded value is bit-identical
whether it was speculated, demanded, or computed in-process.  Accepted
moves, the chosen optimum, and its value therefore match the sequential
search exactly; only *how many* speculative neighbours got evaluated may
differ (as with ``prefetch`` before it), and every one of them is
counted against budgets and fires the ``on_evaluation`` hook.

Cancellation
------------
Speculation is invalidated by progress: an accepted move re-centres the
interesting neighbourhood, a step halving shrinks it.  Queued-but-not-
submitted frontier entries are simply dropped; tasks already on a worker
run to completion and are banked like any other speculation.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import SearchError
from repro.parallel.pool import CompletedEval, PersistentEvalPool
from repro.resilience.budget import BudgetExhausted, SearchBudget
from repro.search.cache import EvaluationCache
from repro.search.space import IntegerBox

__all__ = ["SpeculativeScheduler"]

Point = Tuple[int, ...]

DEMAND = 0
SEED = 1
CROSS = 2
PATTERN = 3
PATTERN_CROSS = 4


class SpeculativeScheduler:
    """Keeps a persistent pool saturated ahead of the pattern search.

    Parameters
    ----------
    pool:
        The persistent worker pool evaluations run on.
    cache:
        The search's evaluation cache; completions merge through
        ``cache.prime`` (counted as fresh evaluations).
    space:
        Feasible integer box (speculation outside it is never queued).
    merge_hook:
        Called as ``merge_hook(key, payload)`` for every merged solution
        payload — ``WindowObjective.absorb_remote`` plugs in here to
        retain solutions and feed the reuse engine / persistent store.
    on_evaluation:
        The search's per-evaluation hook; fired (with the cache) after every
        merged fresh evaluation, speculative or demanded.
    budget / max_evaluations:
        Speculation stops (quietly) once either is exhausted; *demanded*
        evaluations keep the strict semantics of the sequential search,
        which checks both before asking the scheduler.
    seed_for:
        Optional ``key -> queue-length matrix or None`` providing
        warm-start seeds (the reuse engine's nearest-neighbour seed); the
        matrix travels to workers by arena slot, never by pickle.
    max_inflight:
        Saturation target; defaults to ``2 * pool.workers`` so every
        worker has a task queued behind the one it is running.
    """

    def __init__(
        self,
        pool: PersistentEvalPool,
        cache: EvaluationCache,
        space: IntegerBox,
        merge_hook: Optional[Callable[[Point, dict], None]] = None,
        on_evaluation: Optional[Callable[[EvaluationCache], None]] = None,
        budget: Optional[SearchBudget] = None,
        max_evaluations: int = 10**9,
        seed_for: Optional[Callable[[Point], Optional[np.ndarray]]] = None,
        max_inflight: Optional[int] = None,
    ):
        self._pool = pool
        self._cache = cache
        self._space = space
        self._merge_hook = merge_hook
        self._on_evaluation = on_evaluation
        self._budget = budget
        self._max_evaluations = max_evaluations
        self._seed_for = seed_for
        self._max_inflight = (
            max_inflight if max_inflight is not None else 2 * pool.workers
        )
        self._frontier: List[Tuple[int, int, Point]] = []
        self._queued: Set[Point] = set()
        self._inflight: Dict[Point, int] = {}
        self._demanded: Set[Point] = set()
        self._speculation_open = True
        self._ticket = itertools.count()
        # Diagnostics surfaced by benchmarks / tests.
        self.speculated = 0
        self.demanded_fresh = 0
        self.cancelled = 0
        self.dropped = 0

    # ------------------------------------------------------------------
    # search-facing hooks (called by pattern_search)
    # ------------------------------------------------------------------
    def begin_sweep(self, point: Point, step: int) -> None:
        """A new exploratory sweep is starting around ``point``.

        Replaces the synchronous cross prefetch: queue the uncached
        ±step cross (CROSS) and, one rung lower, the pattern-move
        extrapolation each cross candidate would trigger if it improved
        (PATTERN).  Earlier speculation centred elsewhere is cancelled.
        """
        self._retarget()
        base = tuple(int(x) for x in point)
        for candidate in self._cross(base, step):
            self._enqueue(candidate, CROSS)
            extrapolation = self._space.clip(
                tuple(2 * c - b for c, b in zip(candidate, base))
            )
            self._enqueue(extrapolation, PATTERN)
        self._pump()

    def note_accept(self, new_base: Point, previous: Point, step: int) -> None:
        """An exploratory/pattern move was accepted; re-centre speculation.

        The next demanded point is the pattern landing ``2b - p`` — queue
        it (SEED) and its cross (PATTERN_CROSS) so it is likely already
        in flight when the search asks.
        """
        self._retarget()
        landing = self._space.clip(
            tuple(2 * b - p for b, p in zip(new_base, previous))
        )
        self._enqueue(landing, SEED)
        for candidate in self._cross(landing, step):
            self._enqueue(candidate, PATTERN_CROSS)
        self._pump()

    def note_step(self, step: int) -> None:
        """The step was halved: speculation at the old step is stale."""
        self._cancel_frontier()
        self._pump()

    def seed_points(self, points: Sequence[Sequence[int]]) -> None:
        """Queue known-future evaluations (e.g. multistart start list)."""
        for point in points:
            self._enqueue(tuple(int(x) for x in point), SEED)
        self._pump()

    def demand(self, point: Point) -> None:
        """Block until ``point``'s value is merged into the cache.

        The search's evaluation choke point: if the point is already in
        flight its completion is awaited (merging everything else that
        arrives meanwhile); otherwise it is submitted immediately at
        DEMAND priority.  On return ``point in cache.values`` holds.
        """
        key = tuple(int(x) for x in point)
        self._absorb_ready()
        if key in self._cache.values:
            return
        self._demanded.add(key)
        self._discard_queued(key)
        while key not in self._cache.values:
            if key not in self._inflight:
                # Not in flight (or its speculative run was lost):
                # submit at demand priority.
                self._submit(key, speculative=False)
            done = self._pool.poll(timeout=None)
            if done is None:
                raise SearchError(
                    f"pool drained without completing demanded point {key}"
                )
            self._merge(done)
            self._refill()
        self._demanded.discard(key)

    def finish(self) -> None:
        """Drain every in-flight task and merge its result.  Idempotent.

        Called when the search ends (normally or on budget exhaustion):
        speculation already paid for is banked into the cache so
        best-so-far and the persistent store see it.
        """
        self._speculation_open = False
        self._cancel_frontier()
        while self._inflight:
            done = self._pool.poll(timeout=None)
            if done is None:
                break
            self._merge(done)

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _cross(self, point: Point, step: int) -> List[Point]:
        out = []
        for axis in range(self._space.dimensions):
            for direction in (+1, -1):
                candidate = list(point)
                candidate[axis] += direction * step
                candidate_t = tuple(candidate)
                if candidate_t in self._space:
                    out.append(candidate_t)
        return out

    def _retarget(self) -> None:
        """New neighbourhood: cancel stale speculation."""
        self._cancel_frontier()
        self._absorb_ready()

    def _cancel_frontier(self) -> None:
        self.cancelled += len(self._queued)
        self._frontier.clear()
        self._queued.clear()

    def _discard_queued(self, key: Point) -> None:
        if key in self._queued:
            self._queued.discard(key)
            self._frontier = [
                entry for entry in self._frontier if entry[2] != key
            ]
            heapq.heapify(self._frontier)

    def _enqueue(self, key: Point, priority: int) -> None:
        if (
            key in self._cache.values
            or key in self._inflight
            or key in self._queued
        ):
            return
        self._queued.add(key)
        heapq.heappush(self._frontier, (priority, next(self._ticket), key))

    def _room(self) -> int:
        """Evaluations the caps still allow to be *started*."""
        committed = self._cache.evaluations + len(self._inflight)
        return max(0, self._max_evaluations - committed)

    def _submit(self, key: Point, speculative: bool) -> None:
        seed = self._seed_for(key) if self._seed_for is not None else None
        eval_id = self._pool.submit(key, seed=seed, speculative=speculative)
        self._inflight[key] = eval_id
        if speculative:
            self.speculated += 1
        else:
            self.demanded_fresh += 1

    def _refill(self) -> None:
        """Top the pool up from the frontier, within budget and caps."""
        if not self._speculation_open:
            return
        while (
            self._frontier
            and self._pool.inflight < self._max_inflight
            and self._room() > 0
        ):
            if self._budget is not None:
                try:
                    self._budget.check(self._cache.evaluations)
                except BudgetExhausted:
                    # Quiet stop: the demand path re-raises with full
                    # best-so-far semantics on the search's next fresh
                    # evaluation.
                    self._speculation_open = False
                    self._cancel_frontier()
                    return
            _, _, key = heapq.heappop(self._frontier)
            self._queued.discard(key)
            if key in self._cache.values or key in self._inflight:
                continue
            self._submit(key, speculative=True)

    def _pump(self) -> None:
        self._absorb_ready()
        self._refill()

    def _absorb_ready(self) -> None:
        """Merge every completion that is already waiting, without blocking."""
        while self._inflight:
            done = self._pool.poll(timeout=0.0)
            if done is None:
                return
            self._merge(done)

    def _speculation_overflows(self) -> bool:
        """Would banking one more *speculative* result breach the caps?

        ``_room()`` stops speculation from being *started* past the
        budget, but a task already on a worker when the cap is reached
        still completes; banking it would hand the store/best-so-far
        more evaluations than the budget allows (and than the sequential
        search could ever have performed).  Room is reserved for demanded
        in-flight points: the search asked for those while within budget,
        so they always merge.
        """
        reserved = sum(1 for key in self._inflight if key in self._demanded)
        if self._cache.evaluations + reserved >= self._max_evaluations:
            return True
        if self._budget is not None:
            try:
                self._budget.check(self._cache.evaluations)
            except BudgetExhausted:
                return True
        return False

    def _merge(self, done: CompletedEval) -> None:
        key = done.key
        self._inflight.pop(key, None)
        if (
            done.speculative
            and key not in self._demanded  # a demand is waiting on it
            and self._speculation_overflows()
        ):
            # Paid for but unbankable: the budget ran out while this was
            # on a worker.  Dropping it keeps the evaluation count (and
            # the store) within the cap the search promised.
            self.dropped += 1
            return
        if done.status == "fatal":
            detail = (done.payload or {}).get("error", "unknown")
            if key in self._demanded:
                raise SearchError(
                    f"pool worker failed evaluating windows {key}: {detail}"
                )
            # Speculative casualties are dropped; a demand would retry.
            return
        if self._cache.prime(key, done.value):
            if done.payload is not None and self._merge_hook is not None:
                self._merge_hook(key, done.payload)
            if self._on_evaluation is not None:
                self._on_evaluation(self._cache)

    # ------------------------------------------------------------------
    @property
    def stats(self) -> Dict[str, int]:
        """Speculation counters for benchmarks and parity diagnostics."""
        return {
            "speculated": self.speculated,
            "demanded_fresh": self.demanded_fresh,
            "cancelled": self.cancelled,
            "dropped": self.dropped,
        }
