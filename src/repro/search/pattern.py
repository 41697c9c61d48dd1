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

The moves run as a stepper, :func:`_steps`: a generator that yields
each point it demands and is sent its value, which it needs before it
picks the next point.  Before each exploratory move it also yields the
move's cross (:func:`_cross`): the centre and its in-box ``±step``
points, all the move can demand before it first improves.

:func:`pattern_search` drives it, demanding every value through an
:class:`~repro.evalplane.plane.EvaluationPlane`'s ``submit``: the one
gate where budgets, caps and the ``on_evaluation`` store hook act, on
the serial and the pooled path alike (``tests/evalplane/`` certifies
that both walk the same trajectory).  Where a whole cross is at most
:data:`CROSS_COLUMNS` columns wide — ``(2R + 1) * R``, so up to 10
chains — on a non-parallel ``soa_batchable`` objective, the driver
solves a cross's uncached points as one pack through
``objective.batch_solve`` and banks the values uncounted.  A banked
value is handed to ``submit`` only when its point is demanded, and is
gated, counted and stored there like an in-process solve, so every
observable of the search is that of a run without packs, bit for bit;
only the number of fixed points run changes.
"""

from __future__ import annotations

import warnings
from typing import TYPE_CHECKING, Callable, Dict, Generator, Iterator, List
from typing import Optional, Sequence, Tuple, Union

from repro.errors import ConvergenceWarning, ReproError, SearchError
from repro.resilience.budget import BudgetExhausted, SearchBudget
from repro.search.cache import EvaluationCache
from repro.search.result import SearchResult
from repro.search.space import IntegerBox

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.evalplane.plane import EvaluationPlane

__all__ = ["pattern_search", "CROSS_COLUMNS"]

Point = Tuple[int, ...]

#: A stepper yields a point it demands now (a tuple, sent back its
#: value) or a cross it may demand next (an iterator, sent None), and
#: returns the last base point and its value.
Stepper = Generator[
    Union[Point, Iterator[Point]], Optional[float], Tuple[Point, float]
]

#: Widest ``±step`` cross, in pack columns (``(2R + 1) * R`` for R
#: chains), that the search solves ahead.  A cross pack costs 1.3-2.6
#: serial solves up to 12 chains, but the search uses a smaller share of
#: a wider cross.  In every probe up to 10 chains (210 columns) whole
#: campaigns ran faster with cross packs than without; from 11 chains on
#: some ran slower, capped 25- and 120-chain searches among them
#: (EXPERIMENTS.md A23).
CROSS_COLUMNS = 210


def _axis_moves(
    space: IntegerBox, point: Point, axis: int, step: int
) -> Iterator[Point]:
    """``point`` moved by ``+step``, then ``-step``, along ``axis``; in-box only."""
    for direction in (+1, -1):
        candidate = list(point)
        candidate[axis] += direction * step
        candidate_t = tuple(candidate)
        if candidate_t in space:
            yield candidate_t


def _cross(space: IntegerBox, centre: Point, step: int) -> Iterator[Point]:
    """``centre`` and its in-box ``±step`` cross, in :func:`_explore`'s order.

    Every point an exploratory move around ``centre`` can probe before
    it first improves.  Lazy, so a driver that packs no cross never
    builds it (a 120-chain cross is 241 points).
    """
    yield centre
    for axis in range(space.dimensions):
        yield from _axis_moves(space, centre, axis, step)


def _explore(
    space: IntegerBox, point: Point, value: Optional[float], step: int
) -> Stepper:
    """One exploratory move (Fig. 4.2): perturb each coordinate by ±step.

    ``value`` is the objective at ``point``, or None for a pattern
    landing point the move demands first.  The move yields its
    :func:`_cross` before any demand; what it then demands, and in
    which order, is the thesis move's alone.
    """
    yield _cross(space, point, step)
    if value is None:
        value = yield point
    current, current_value = point, value
    for axis in range(space.dimensions):
        for candidate in _axis_moves(space, current, axis, step):
            candidate_value = yield candidate
            if candidate_value < current_value:
                current, current_value = candidate, candidate_value
                break  # keep the improvement; next axis
    return current, current_value


def _steps(
    space: IntegerBox,
    base: Point,
    step: int,
    max_halvings: int,
    trajectory: List[Point],
) -> Stepper:
    """The thesis moves from ``base`` (Figs. 4.2-4.3), one request at a time.

    Each accepted base point, the start first, is appended to
    ``trajectory`` as it is accepted, so a driver stopped by a budget
    still reads the trajectory so far.
    """
    trajectory.append(base)
    yield _cross(space, base, step)
    base_value = yield base
    halvings = 0
    while step >= 1 and halvings <= max_halvings:
        probe, probe_value = yield from _explore(space, base, base_value, step)
        if not probe_value < base_value:  # NaN included
            step //= 2
            halvings += 1
        # Pattern phase: ride the established direction while it improves.
        while probe_value < base_value:
            previous, base, base_value = base, probe, probe_value
            trajectory.append(base)
            pattern_point = space.clip(
                tuple(2 * b - p for b, p in zip(base, previous))
            )
            probe, probe_value = yield from _explore(
                space, pattern_point, None, step
            )
    return base, base_value


def _packs_crosses(objective) -> bool:
    """True when the driver solves ``objective``'s crosses ahead.

    Asks ``soa_batchable``, which logs nothing: a declined cross is not
    a declined batch.
    """
    if getattr(objective, "parallel", False) or not getattr(
        objective, "soa_batchable", False
    ):
        return False
    chains = objective.network.num_chains
    return (2 * chains + 1) * chains <= CROSS_COLUMNS


def _solve_ahead(
    plane: "EvaluationPlane", bank: Dict[Point, float], cross: Iterator[Point]
) -> int:
    """Solve the uncached, unbanked points of ``cross`` as one pack.

    Only the first points the plane's remaining room
    (:attr:`~repro.evalplane.plane.EvaluationPlane.room`) admits are
    solved, and only when at least two are left; returns how many were.
    The budget's clock is not read, so deadlines fire on the same checks
    as in a run without packs.  The pack's convergence warnings are held
    back and an unconverged member is not banked (its demand solves it
    again and warns then); a pack that raises banks nothing.
    """
    cached = plane.cache.values
    fresh = [p for p in cross if p not in cached and p not in bank]
    del fresh[plane.room:]
    if len(fresh) < 2:
        return 0
    objective = plane.objective
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConvergenceWarning)
            values = objective.batch_solve(fresh)
    except ReproError:
        return 0
    for key, value in zip(fresh, values):
        solution = objective.retained(key)
        if solution is not None and solution.converged:
            bank[key] = value
    return len(fresh)


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
        bitwise-identical to it.

    Returns
    -------
    SearchResult
        The best point found and the search trajectory, with the cross
        pack counts ``solved_ahead`` and ``ahead_used``.
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

    packs = _packs_crosses(objective)
    bank: Dict[Point, float] = {}
    solved_ahead = ahead_used = 0
    trajectory: List[Point] = []
    stepper = _steps(
        space, space.clip(start), initial_step, max_halvings, trajectory
    )
    status, stop_reason = "completed", ""
    value: Optional[float] = None
    try:
        while True:
            request = stepper.send(value)
            if isinstance(request, tuple):
                banked = bank.pop(request, None)
                value = plane.submit(request, banked).value
                # A banked point is fresh: only its demand caches it.
                ahead_used += banked is not None
            else:
                value = None
                if packs:
                    solved_ahead += _solve_ahead(plane, bank, request)
    except StopIteration as done:
        base, base_value = done.value
    except BudgetExhausted as exc:
        status = "budget_exhausted"
        stop_reason = exc.reason
        # Best-so-far: the cache may hold a better explored-but-not-yet-
        # accepted point than the current base (or the start may never
        # have been evaluated at all under a zero budget).
        base = trajectory[-1]
        base_value = cache.values.get(base, float("inf"))
        cached_best, cached_value = plane.best()
        if cached_value < base_value:
            base, base_value = cached_best, cached_value
            if trajectory[-1] != base:
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
        solved_ahead=solved_ahead,
        ahead_used=ahead_used,
    )
