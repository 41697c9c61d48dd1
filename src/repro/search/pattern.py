"""Integer Hooke–Jeeves pattern search (thesis §4.3 and the APL ``WINDIM``).

Pattern search alternates two kinds of moves:

* **Exploratory move** — perturb one coordinate at a time by the current
  step, keeping each change that reduces the objective (Fig. 4.2).
* **Pattern move** — after a successful exploration, leap from the new base
  point along the line from the previous base point, doubling the
  established direction (Fig. 4.3), and explore around the landing point.
  Successful patterns extend themselves, giving the accelerated
  ridge-following behaviour of Fig. 4.4.

When exploration around the current base fails, the step size is halved
(the APL ``Y <- 0.5 x Y``) and a new pattern is started; the search stops
once the integer step would drop below one, or after ``max_halvings``
reductions.  Because window sizes are integers, steps are integers here —
"since we are interested only in integral window settings … the Pattern
Search suffices" (§4.1).

All evaluations flow through an
:class:`~repro.evalplane.plane.EvaluationPlane`: the search demands
each value with :meth:`~repro.evalplane.plane.EvaluationPlane.submit`
and needs it before it picks the next point.  Which execution path
sits behind that call — in-process serial or the persistent
shared-memory fleet — is entirely the plane's business; the
conformance suite (``tests/evalplane/``) certifies that both make the
same evaluations and walk the same trajectory.  Budget/cap enforcement
and the ``on_evaluation`` store hook live in the plane, at the single
choke point every fresh evaluation passes through.

Before each exploratory move the search also tells the plane which
points that move can demand — its centre and the in-box ``±step``
cross around it (:func:`_cross`) — through
:meth:`~repro.evalplane.plane.EvaluationPlane.solve_ahead`.  That is
a hint, never a demand: the serial plane may solve the cross as one
SoA pack and bank the values, but a banked value is counted, stored and
becomes best-so-far only when :meth:`submit` asks for it, so the
search's evaluations, lookups and trajectory do not depend on it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Sequence, Tuple

from repro.errors import SearchError
from repro.resilience.budget import BudgetExhausted, SearchBudget
from repro.search.cache import EvaluationCache
from repro.search.result import SearchResult
from repro.search.space import IntegerBox

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.evalplane.plane import EvaluationPlane

__all__ = ["pattern_search"]

Point = Tuple[int, ...]

Evaluator = Callable[[Point], float]


def _cross(space: IntegerBox, centre: Point, step: int) -> Iterator[Point]:
    """``centre`` and its in-box ``±step`` cross, in :func:`_explore`'s order.

    Every point an exploratory move around ``centre`` can probe before
    it first improves.  Lazy, so a plane that ignores the hint never
    builds it (a 120-chain cross is 241 points).
    """
    yield centre
    for axis in range(space.dimensions):
        for direction in (+1, -1):
            candidate = list(centre)
            candidate[axis] += direction * step
            candidate_t = tuple(candidate)
            if candidate_t in space:
                yield candidate_t


def _explore(
    evaluate: Evaluator,
    ahead: Callable[[Iterable[Point]], None],
    space: IntegerBox,
    point: Point,
    value: Optional[float],
    step: int,
) -> Tuple[Point, float]:
    """One exploratory move (Fig. 4.2): perturb each coordinate by ±step.

    ``value`` is the objective at ``point``, or None for a pattern
    landing point the move evaluates first.  Before any evaluation the
    move hands ``ahead`` (the plane's
    :meth:`~repro.evalplane.plane.EvaluationPlane.solve_ahead`) the
    points it can demand, :func:`_cross`; what it then demands, and in
    which order, is the thesis move's alone.
    """
    ahead(_cross(space, point, step))
    if value is None:
        value = evaluate(point)
    current = list(point)
    current_value = value
    for axis in range(space.dimensions):
        for direction in (+1, -1):
            candidate = list(current)
            candidate[axis] += direction * step
            candidate_t = tuple(candidate)
            if candidate_t not in space:
                continue
            candidate_value = evaluate(candidate_t)
            if candidate_value < current_value:
                current = candidate
                current_value = candidate_value
                break  # keep the improvement; next axis
    return tuple(current), current_value


def pattern_search(
    objective: Callable[[Point], float],
    start: Sequence[int],
    space: IntegerBox,
    initial_step: int = 2,
    max_halvings: int = 8,
    max_evaluations: int = 100_000,
    cache: Optional[EvaluationCache] = None,
    budget: Optional[SearchBudget] = None,
    on_evaluation: Optional[Callable[[EvaluationCache], None]] = None,
    plane: Optional["EvaluationPlane"] = None,
) -> SearchResult:
    """Minimise ``objective`` over ``space`` by integer pattern search.

    Parameters
    ----------
    objective:
        Function of an integer tuple returning the value to minimise
        (WINDIM passes ``1/power``).
    start:
        Initial window vector (the thesis uses the per-chain hop counts);
        clipped into ``space`` if outside.
    space:
        Integer box of feasible points.
    initial_step:
        Starting exploration step (>= 1).
    max_halvings:
        The APL ``KMAX``: number of step halvings before stopping.  With
        integer steps the search also stops as soon as the step underflows
        below one.
    max_evaluations:
        Safety budget of distinct objective evaluations (ignored when a
        ``plane`` is supplied — the plane's own cap governs).
    cache:
        Optional pre-populated evaluation cache to share across runs (e.g.
        across sweep points that revisit the same windows, or seeded from
        an evaluation store).
    budget:
        Optional wall-clock/evaluation budget; when it runs out the search
        returns its best-so-far flagged ``status="budget_exhausted"``.
    on_evaluation:
        Called with the cache after every fresh evaluation (the store
        hook); cache hits do not fire it.
    plane:
        The :class:`~repro.evalplane.plane.EvaluationPlane` to evaluate
        through.  When omitted, a
        :class:`~repro.evalplane.serial.SerialPlane` is built from the
        wiring arguments above (in-process evaluation — the reference
        semantics).  When supplied, it must wrap ``objective``, the
        wiring arguments must be left unset (the plane already carries
        them), and the caller keeps ownership: the search never closes
        it.  Every plane makes the same fresh evaluations as a serial
        run, so the accepted-move trajectory and the optimum are
        bitwise-identical to it.  Each exploratory move hands the plane
        its cross (:meth:`~repro.evalplane.plane.EvaluationPlane.
        solve_ahead`), which it may solve ahead but never counts.

    Returns
    -------
    SearchResult
        The best point found and the search trajectory.
    """
    if initial_step < 1:
        raise SearchError(f"initial_step must be >= 1, got {initial_step}")
    if max_halvings < 0:
        raise SearchError(f"max_halvings must be >= 0, got {max_halvings}")
    if plane is None:
        from repro.evalplane.serial import SerialPlane

        plane = SerialPlane(
            objective,
            cache=cache,
            space=space,
            budget=budget,
            max_evaluations=max_evaluations,
            on_evaluation=on_evaluation,
        )
    else:
        if plane.objective is not objective:
            raise SearchError("plane wraps a different objective")
        if (
            cache is not None and cache is not plane.cache
        ) or budget is not None or on_evaluation is not None:
            raise SearchError(
                "pass evaluation wiring (cache/budget/on_evaluation) "
                "either on the plane or to pattern_search, not both"
            )
    cache = plane.cache

    def evaluate(point: Point) -> float:
        return plane.submit(point).value

    base = space.clip(start)
    trajectory = [base]
    step = initial_step
    halvings = 0
    status = "completed"
    stop_reason = ""
    base_value = float("inf")

    try:
        plane.solve_ahead(_cross(space, base, step))
        base_value = evaluate(base)
        while step >= 1 and halvings <= max_halvings:
            probe, probe_value = _explore(
                evaluate, plane.solve_ahead, space, base, base_value, step
            )
            if probe_value < base_value:
                # Pattern phase: ride the established direction.
                previous = base
                base, base_value = probe, probe_value
                trajectory.append(base)
                while True:
                    pattern_point = space.clip(
                        tuple(2 * b - p for b, p in zip(base, previous))
                    )
                    probe2, probe2_value = _explore(
                        evaluate, plane.solve_ahead, space, pattern_point,
                        None, step,
                    )
                    if probe2_value < base_value:
                        previous = base
                        base, base_value = probe2, probe2_value
                        trajectory.append(base)
                    else:
                        break
            else:
                step //= 2
                halvings += 1
    except BudgetExhausted as exc:
        status = "budget_exhausted"
        stop_reason = exc.reason
        # Best-so-far: the cache may hold a better explored-but-not-yet-
        # accepted point than the current base (or the start may never
        # have been evaluated at all under a zero budget).
        cached_best, cached_value = plane.best()
        if cached_best is None:
            base_value = float("inf")
        elif not trajectory or cached_value < base_value:
            base, base_value = cached_best, cached_value
            if not trajectory or trajectory[-1] != base:
                trajectory.append(base)

    return SearchResult(
        best_point=base,
        best_value=base_value,
        evaluations=cache.evaluations,
        lookups=cache.lookups,
        base_points=trajectory,
        method="pattern-search",
        status=status,
        stop_reason=stop_reason,
    )
