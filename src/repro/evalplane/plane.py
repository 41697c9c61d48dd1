"""The unified evaluation plane interface.

Every execution path — the serial objective and the persistent
shared-memory pool with its speculative scheduler — sits behind
:class:`EvaluationPlane`, so :func:`~repro.search.pattern.pattern_search`,
``windim`` and ``windim_multistart`` carry no per-path glue:

* :meth:`~EvaluationPlane.submit` — blocking ``windows -> EvalResult``
  through the shared evaluation cache, with budget/cap enforcement and
  the checkpoint hook fired exactly once per fresh evaluation;
* :meth:`~EvaluationPlane.submit_many` — best-effort batch evaluation
  (multistart seed lists), trimmed to the remaining budget room;
* speculation *hints* (:meth:`hint_sweep` / :meth:`hint_accept` /
  :meth:`hint_step`) — never change what a search observes, only let a
  parallel plane warm the cache ahead of demand;
* :meth:`drain` / :meth:`close` lifecycle — every in-flight result is
  banked into the cache before resources are released, on **all** exit
  paths (the planes are context managers; an exceptional exit skips the
  drain so a hung worker cannot block shutdown).

The contract certified by the conformance suite (``tests/evalplane/``):
a pattern search driven through any plane walks the bitwise-identical
accepted-move trajectory and returns the identical optimum as the serial
plane, budgets and checkpoints count the same fresh evaluations, and
warm seeds propagate equivalently.  A new backend is added by
subclassing this class and registering a factory in
:mod:`repro.evalplane.registry` — the battery then certifies it with no
new glue tests.
"""

from __future__ import annotations

import warnings
from typing import Callable, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ModelError, SearchError
from repro.evalplane.result import EvalResult
from repro.resilience.budget import BudgetExhausted, SearchBudget
from repro.resilience.health import DegradationEvent
from repro.search.cache import EvaluationCache
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
        Feasible :class:`~repro.search.space.IntegerBox` (required by
        planes that speculate; optional for purely serial ones).
    budget:
        Optional :class:`~repro.resilience.budget.SearchBudget`; checked
        before every *fresh* evaluation (:class:`BudgetExhausted`
        propagates to the search, which converts it to best-so-far).
    max_evaluations:
        Hard cap on fresh evaluations through this plane.
    on_evaluation:
        Fired with the cache after every fresh evaluation — exactly once
        each, whether the value was computed in-process, prefetched in a
        batch, or merged from a speculative pool completion.  This is
        where checkpointing and the persistent store plug in; callers no
        longer wire them per execution path.
    seed_for:
        Optional ``point -> queue-length matrix or None`` warm-start
        oracle, shipped to pool workers by the persistent plane.
    """

    #: Registry name of this execution path; subclasses override.
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

    def _key(self, windows: Sequence[int]) -> Point:
        # Same strictness as EvaluationCache: a fractional coordinate is
        # rejected rather than silently truncated onto a different key.
        key = []
        for x in windows:
            i = int(x)
            if i != x:
                raise ValueError(
                    f"non-integral coordinate {x!r} in windows "
                    f"{tuple(windows)!r}; window vectors must be "
                    "integer-valued"
                )
            key.append(i)
        return tuple(key)

    def _check_caps(self) -> None:
        """Budget/cap gate before a fresh evaluation (raises when spent)."""
        if self.budget is not None:
            self.budget.check(self.cache.evaluations)
        if self.cache.evaluations >= self.max_evaluations:
            raise BudgetExhausted(
                f"evaluation cap reached ({self.cache.evaluations} >= "
                f"{self.max_evaluations})"
            )

    def _caps_spent(self) -> bool:
        """Quiet variant of :meth:`_check_caps` for speculation paths."""
        if self.cache.evaluations >= self.max_evaluations:
            return True
        if self.budget is not None:
            return self.budget.exhausted_reason(self.cache.evaluations) is not None
        return False

    def _fulfil(self, key: Point) -> Tuple[float, bool]:
        """Produce the value of an uncached ``key``.

        Returns ``(value, hook_fired)``: subclasses that merge through
        ``cache.prime`` with their own ``on_evaluation`` firing (the
        speculative scheduler) return ``hook_fired=True`` so the base
        class does not fire it twice.  The base implementation solves
        in-process through the cache.
        """
        return self.cache(key), False

    def submit(
        self,
        windows: Sequence[int],
        context: Optional[Mapping[str, object]] = None,
    ) -> EvalResult:
        """Evaluate one window vector, blocking until its value is known.

        The single choke point every search flows through: cache hits are
        free (no hooks, no budget), fresh evaluations are gated by the
        budget and the evaluation cap (raising
        :class:`~repro.resilience.budget.BudgetExhausted` *before* any
        work is started) and fire ``on_evaluation`` exactly once.

        ``context`` is optional caller metadata (e.g. ``{"phase":
        "sweep"}``); the built-in planes ignore it, custom backends may
        route on it.
        """
        if self._closed:
            raise SearchError(f"evaluation plane {self.name!r} is closed")
        key = self._key(windows)
        fresh = key not in self.cache
        if fresh:
            self._check_caps()
            value, hook_fired = self._fulfil(key)
            if not hook_fired and self.on_evaluation is not None:
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
            key = self._key(windows)
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
        if self._closed:
            raise SearchError(f"evaluation plane {self.name!r} is closed")
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
            warm_seed = None
            if solution is not None and getattr(solution, "converged", False):
                warm_seed = solution.queue_lengths
            results.append(
                EvalResult(
                    windows=tuple(int(p) for p in network.populations),
                    value=value,
                    fresh=True,
                    source=self.name,
                    solution=solution,
                    warm_seed=warm_seed,
                    health=self._health_record(),
                )
            )
        return results

    def _result(self, key: Point, value: float, fresh: bool) -> EvalResult:
        solution = None
        getter = getattr(self._objective, "cached_solution", None)
        if getter is not None:
            try:
                solution = getter(key)
            except ModelError:  # pragma: no cover - foreign-shape key
                solution = None
        warm_seed = None
        if solution is not None and getattr(solution, "converged", False):
            warm_seed = solution.queue_lengths
        return EvalResult(
            windows=key,
            value=value,
            fresh=fresh,
            source=self.name,
            solution=solution,
            warm_seed=warm_seed,
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
        in-process solve, which is what keeps checkpoints and stores
        path-agnostic.
        """
        keys = [self._key(w) for w in batch]
        seen = set()
        fresh: List[Point] = []
        for key in keys:
            if key in self.cache or key in seen:
                continue
            seen.add(key)
            fresh.append(key)
        room = self.max_evaluations - self.cache.evaluations
        fresh = fresh[: max(0, room)]
        if fresh and not self._caps_spent():
            values = self._objective.batch_solve(fresh)
            for key, value in zip(fresh, values):
                if self.cache.prime(key, value) and self.on_evaluation is not None:
                    self.on_evaluation(self.cache)
        return [
            self._result(key, self.cache.values[key], fresh=key in seen)
            for key in keys
            if key in self.cache
        ]

    # ------------------------------------------------------------------
    # speculation hints (no-ops on serial planes)
    # ------------------------------------------------------------------
    def hint_sweep(self, point: Sequence[int], value: float, step: int) -> None:
        """An exploratory sweep around ``point`` (value, step) is starting."""

    def hint_accept(
        self,
        new_base: Sequence[int],
        previous: Sequence[int],
        value: float,
        step: int,
    ) -> None:
        """A move to ``new_base`` (from ``previous``) was just accepted."""

    def hint_step(self, step: int) -> None:
        """The exploration step was halved to ``step``."""

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def drain(self) -> None:
        """Bank every in-flight result into the cache.  Idempotent.

        After this returns no paid-for evaluation is lost: best-so-far
        selection, checkpoints and the persistent store all see it.
        Serial planes have nothing in flight; pooled planes override.
        """

    def close(self, drain: bool = True) -> None:
        """Drain (unless told otherwise) and release resources.

        Idempotent.  Captures the backing pool's health snapshot first so
        :attr:`pool_health` stays readable after the workers are gone.
        ``drain=False`` is the exceptional-exit path: shutdown must not
        block on a wedged worker.
        """
        if self._closed:
            return
        if drain:
            self.drain()
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

    def __exit__(self, exc_type, _exc, _tb) -> None:
        # A clean exit banks in-flight speculation; an exceptional one
        # (KeyboardInterrupt, SearchError) must never block on the pool.
        self.close(drain=exc_type is None)

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
