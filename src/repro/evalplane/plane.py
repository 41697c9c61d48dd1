"""The unified evaluation plane interface.

Every execution path — the serial objective and the persistent
shared-memory pool — sits behind :class:`EvaluationPlane`, so
:func:`~repro.search.pattern.pattern_search`, ``windim`` and
``windim_multistart`` carry no per-path glue:

* :meth:`~EvaluationPlane.submit` — blocking ``windows -> EvalResult``
  through the shared evaluation cache, with budget/cap enforcement and
  the ``on_evaluation`` hook fired exactly once per fresh evaluation.
  A caller that already solved the point (the pattern search's cross
  packs) passes the value along, and it is gated, counted and stored
  like any other;
* :meth:`~EvaluationPlane.submit_many` — best-effort batch evaluation
  (multistart seed lists), trimmed to the remaining evaluation
  :attr:`~EvaluationPlane.room`;
* :meth:`~EvaluationPlane.close` — releases the backing resources
  (idempotent; the planes are context managers, so every exit path
  closes).  No evaluation is ever in flight between two plane calls,
  so there is nothing to bank first.

The contract certified by the conformance suite (``tests/evalplane/``):
a pattern search driven through any plane makes the same fresh
evaluations, walks the bitwise-identical accepted-move trajectory and
returns the identical optimum as the serial plane, so budgets, caps and
stores count exactly what a serial run counts, and warm seeds propagate
equivalently.  :func:`build_plane` picks the plane for an objective;
the suite builds both planes through it.
"""

from __future__ import annotations

import warnings
from typing import Callable, List, Optional, Sequence, Tuple

from repro.errors import SearchError
from repro.evalplane.result import EvalResult
from repro.resilience.budget import BudgetExhausted, SearchBudget
from repro.resilience.health import DegradationEvent
from repro.search.cache import EvaluationCache, integral_key
from repro.search.space import IntegerBox

__all__ = ["EvaluationPlane", "build_plane"]

Point = Tuple[int, ...]


class EvaluationPlane:
    """Base class: serial-semantics evaluation through a shared cache.

    Parameters
    ----------
    objective:
        The function being minimised — any ``point -> float`` callable;
        a :class:`~repro.core.objective.WindowObjective` additionally
        supplies retained solutions, warm seeds, and pool plumbing.
    cache:
        Shared :class:`~repro.search.cache.EvaluationCache`; created
        fresh when omitted.  Must wrap the same ``objective``.
    space:
        Optional feasible :class:`~repro.search.space.IntegerBox` the
        plane's searches run over.
    budget:
        Optional :class:`~repro.resilience.budget.SearchBudget`; checked
        before every *fresh* evaluation (:class:`BudgetExhausted`
        propagates to the search, which converts it to best-so-far).
    max_evaluations:
        Hard cap on fresh evaluations through this plane: 0 or more, or
        :class:`~repro.errors.SearchError` (a cap of 0 evaluates nothing).
    on_evaluation:
        Fired with the cache after every fresh evaluation — exactly once
        each, whether the value was computed in-process, solved in a
        batch, or merged from a pool worker.  This is
        where the persistent store plugs in; callers do not wire it per
        execution path.
    seed_for:
        Optional ``point -> queue-length matrix or None`` warm-start
        oracle, shipped to pool workers by the persistent plane.
    """

    #: Name of this execution path (``EvalResult.source``); subclasses
    #: override.
    name = "abstract"

    def __init__(
        self,
        objective: Callable[[Point], float],
        cache: Optional[EvaluationCache] = None,
        space: Optional[IntegerBox] = None,
        budget: Optional[SearchBudget] = None,
        max_evaluations: int = 10**9,
        on_evaluation: Optional[Callable[[EvaluationCache], None]] = None,
        seed_for: Optional[Callable[[Point], object]] = None,
    ):
        self._objective = objective
        self.cache = cache if cache is not None else EvaluationCache(objective)
        if self.cache.objective is not objective:
            raise SearchError("plane cache wraps a different objective")
        if max_evaluations < 0:
            raise SearchError(
                f"max_evaluations must be >= 0, got {max_evaluations}"
            )
        self.space = space
        self.budget = budget
        self.max_evaluations = max_evaluations
        self.on_evaluation = on_evaluation
        self.seed_for = seed_for
        self._closed = False
        self._pool_health = None
        #: Degradation-ladder rungs taken so far (empty in healthy runs).
        self.degradations: Tuple[DegradationEvent, ...] = ()

    # ------------------------------------------------------------------
    # core evaluation
    # ------------------------------------------------------------------
    @property
    def objective(self) -> Callable[[Point], float]:
        """The wrapped objective (shared by every plane over one run)."""
        return self._objective

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def evaluations(self) -> int:
        """Fresh evaluations performed through this plane's cache."""
        return self.cache.evaluations

    def _check_open(self) -> None:
        """Refuse work once the plane is closed."""
        if self._closed:
            raise SearchError(f"evaluation plane {self.name!r} is closed")

    def _check_caps(self) -> None:
        """Budget/cap gate before a fresh evaluation (raises when spent)."""
        if self.budget is not None:
            self.budget.check(self.cache.evaluations)
        if self.cache.evaluations >= self.max_evaluations:
            raise BudgetExhausted(
                f"evaluation cap reached ({self.cache.evaluations} >= "
                f"{self.max_evaluations})"
            )

    @property
    def room(self) -> int:
        """Fresh evaluations the plane's and the budget's caps still admit.

        Never below 0.  The budget's clock is not read.
        """
        room = self.max_evaluations - self.cache.evaluations
        if self.budget is not None and self.budget.max_evaluations is not None:
            room = min(room, self.budget.max_evaluations - self.cache.evaluations)
        return max(0, room)

    def _caps_spent(self) -> bool:
        """Quiet variant of :meth:`_check_caps` for best-effort batches."""
        return self.room == 0 or (
            self.budget is not None
            and self.budget.exhausted_reason(self.cache.evaluations) is not None
        )

    def _fulfil(self, key: Point) -> float:
        """Produce the value of an uncached ``key`` and cache it.

        The base implementation solves in-process through the cache;
        pooled planes solve elsewhere and merge with ``cache.prime``.
        """
        return self.cache(key)

    def submit(
        self, windows: Sequence[int], solved: Optional[float] = None, /
    ) -> EvalResult:
        """Evaluate one window vector, blocking until its value is known.

        The single choke point every search flows through: cache hits are
        free (no hooks, no budget), fresh evaluations are gated by the
        budget and the evaluation cap (raising
        :class:`~repro.resilience.budget.BudgetExhausted` *before* any
        work is started) and fire ``on_evaluation`` exactly once.
        ``solved`` is the point's value when the caller already has it
        (a cross pack of :func:`~repro.search.pattern.pattern_search`):
        a fresh point is then primed with it instead of being solved,
        after the same gate; a cached point ignores it.
        """
        self._check_open()
        key = integral_key(windows)
        fresh = key not in self.cache.values
        if fresh:
            self._check_caps()
            if solved is None:
                value = self._fulfil(key)
            else:
                self.cache.prime_key(key, solved)
                value = solved
            if self.on_evaluation is not None:
                self.on_evaluation(self.cache)
        else:
            value = self.cache(key)
        return self._result(key, value, fresh)

    def submit_many(
        self, batch: Sequence[Sequence[int]]
    ) -> List[EvalResult]:
        """Best-effort batch evaluation (e.g. a multistart seed list).

        Unlike :meth:`submit`, caps are honoured *quietly*: the batch is
        trimmed to the remaining evaluation room and the call never
        raises ``BudgetExhausted`` — results are returned for whatever
        was evaluated (plus cache hits, which are always free).  Pooled
        planes override the fulfilment to fan the fresh slice out over
        their workers in one round trip.
        """
        results: List[EvalResult] = []
        for windows in batch:
            key = integral_key(windows)
            if key not in self.cache and self._caps_spent():
                continue
            try:
                results.append(self.submit(key))
            except BudgetExhausted:  # deadline crossed mid-batch
                break
        return results

    def submit_networks(self, networks: Sequence[object]) -> List[EvalResult]:
        """Evaluate a mixed-topology batch of networks (best-effort).

        The heterogeneous counterpart of :meth:`submit_many`: the
        networks need not share the plane objective's topology, so the
        values bypass the window-keyed evaluation cache entirely — each
        result is always ``fresh`` and carries its solution directly.
        The engagement decision (SoA packs vs a serial loop, with
        every declined batch logged) lives in
        :meth:`~repro.core.objective.WindowObjective.
        batch_solve_networks`; plain callables without that method are
        rejected.  Caps are honoured quietly: a spent budget declines
        the whole batch (empty list) rather than raising.
        """
        self._check_open()
        networks = list(networks)
        if not networks or self._caps_spent():
            return []
        solve = getattr(self._objective, "batch_solve_networks", None)
        if solve is None:
            raise SearchError(
                "submit_networks requires an objective with "
                "batch_solve_networks (e.g. WindowObjective); "
                f"{type(self._objective).__name__} has none"
            )
        results: List[EvalResult] = []
        for network, (value, solution) in zip(networks, solve(networks)):
            results.append(
                EvalResult(
                    windows=tuple(int(p) for p in network.populations),
                    value=value,
                    fresh=True,
                    source=self.name,
                    retained=solution,
                    health=self._health_record(),
                )
            )
        return results

    def _result(self, key: Point, value: float, fresh: bool) -> EvalResult:
        """The result at a normalised ``key``; builds no solution.

        The objective's retained entry (a solution or a packed handle)
        rides along, and :attr:`EvalResult.solution` builds it when read.
        """
        retained = getattr(self._objective, "retained", None)
        return EvalResult(
            windows=key,
            value=value,
            fresh=fresh,
            source=self.name,
            retained=retained(key) if retained is not None else None,
            health=self._health_record(),
        )

    def _health_record(self):
        """Per-evaluation health attached to results.

        The degradation-ladder rungs taken so far (None while the plane
        is healthy), so a fault that forced a mid-search mode change is
        visible on every later result.
        """
        return self.degradations or None

    def _record_degradation(
        self, from_mode: str, to_mode: str, reason: str
    ) -> None:
        """Note one degradation-ladder rung and warn the operator."""
        event = DegradationEvent(
            from_mode=from_mode,
            to_mode=to_mode,
            reason=reason,
            evaluations=self.cache.evaluations,
        )
        self.degradations = self.degradations + (event,)
        warnings.warn(
            f"evaluation plane degraded {from_mode} -> {to_mode}: {reason}",
            RuntimeWarning,
            stacklevel=3,
        )

    # ------------------------------------------------------------------
    # shared batch helper
    # ------------------------------------------------------------------
    def _submit_batched(
        self, batch: Sequence[Sequence[int]]
    ) -> List[EvalResult]:
        """:meth:`submit_many` as one ``objective.batch_solve`` call.

        The fresh, deduplicated slice of ``batch`` (trimmed quietly to
        the remaining room) is solved in one call and primed into the
        cache.  Each primed value counts as one fresh evaluation and
        fires ``on_evaluation`` once — identical bookkeeping to an
        in-process solve, which is what keeps stores path-agnostic.
        Each window vector is normalised once, here; a closed plane
        raises :class:`~repro.errors.SearchError` like :meth:`submit`.
        """
        self._check_open()
        keys = [integral_key(w) for w in batch]
        cached = self.cache.values
        seen = dict.fromkeys(key for key in keys if key not in cached)
        fresh = list(seen)[: self.room]
        if fresh and not self._caps_spent():
            values = self._objective.batch_solve(fresh)
            for key, value in zip(fresh, values):
                if (
                    self.cache.prime_key(key, value)
                    and self.on_evaluation is not None
                ):
                    self.on_evaluation(self.cache)
        return [
            self._result(key, cached[key], fresh=key in seen)
            for key in keys
            if key in cached
        ]

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release resources.  Idempotent.

        Captures the backing pool's health snapshot first so
        :attr:`pool_health` stays readable after the workers are gone.
        """
        if self._closed:
            return
        self._pool_health = getattr(self._objective, "pool_health", None)
        self._closed = True
        closer = getattr(self._objective, "close", None)
        if callable(closer):
            closer()

    @property
    def pool_health(self):
        """Live (or, after close, final) pool health; None when unpooled."""
        if self._closed:
            return self._pool_health
        return getattr(self._objective, "pool_health", None)

    def best(self) -> Tuple[Optional[Point], float]:
        """The best cached point so far (``(None, inf)`` when empty)."""
        return self.cache.best()

    def __enter__(self) -> "EvaluationPlane":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return (
            f"<{type(self).__name__} name={self.name!r} {state} "
            f"evaluations={self.cache.evaluations}>"
        )


def build_plane(objective, **wiring) -> EvaluationPlane:
    """Pick the evaluation plane matching an objective's configuration.

    A :class:`~repro.evalplane.persistent.PersistentPlane` for parallel
    objectives, the plain :class:`~repro.evalplane.serial.SerialPlane`
    otherwise.  ``wiring`` is forwarded to the plane constructor (cache,
    space, budget, caps, hooks).
    """
    if getattr(objective, "parallel", False):
        from repro.evalplane.persistent import PersistentPlane

        return PersistentPlane(objective, **wiring)
    from repro.evalplane.serial import SerialPlane

    return SerialPlane(objective, **wiring)
