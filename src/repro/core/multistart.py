"""Multi-start WINDIM.

Pattern search is a local method; on the flat-topped power surfaces of
window dimensioning it can park one step away from the global optimum
(the thesis only claims "good" settings, §4.1).  Running the search from
several principled starting points — all three initial-window strategies
plus corner probes — and keeping the best answer removes nearly all of
that gap at a small multiple of the cost, with the evaluation cache
shared so repeated visits are free.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple, Union

from repro.core.initializers import INITIAL_WINDOW_STRATEGIES, initial_windows
from repro.core.objective import Solver, WindowObjective
from repro.core.power import power_report
from repro.core.windim import WindimResult
from repro.errors import ModelError
from repro.evalplane import build_plane
from repro.queueing.network import ClosedNetwork
from repro.search.cache import EvaluationCache
from repro.search.pattern import pattern_search
from repro.search.result import SearchResult
from repro.search.space import IntegerBox
from repro.search.store import EvaluationStore, model_fingerprint

__all__ = ["windim_multistart"]


def windim_multistart(
    network: ClosedNetwork,
    solver: Union[str, Solver] = "mva-heuristic",
    backend: Optional[str] = None,
    workers: Optional[int] = None,
    extra_starts: Optional[Sequence[Sequence[int]]] = None,
    max_window: int = 64,
    initial_step: int = 2,
    max_halvings: int = 8,
    max_evaluations: int = 20_000,
    reuse: bool = False,
    store_path: Optional[str] = None,
) -> WindimResult:
    """Run WINDIM from several starts and keep the best windows.

    Starting points: every named strategy of
    :data:`~repro.core.initializers.INITIAL_WINDOW_STRATEGIES`, a
    mid-range probe, plus any ``extra_starts``.  All runs share one
    evaluation cache, so overlapping trajectories cost nothing.

    ``backend`` selects the solver kernel and ``workers`` a process-pool
    size (as in :func:`repro.core.windim.windim`).  With workers, the
    whole deduplicated seed list is batch-solved up front in one
    :meth:`~repro.core.objective.WindowObjective.batch_solve` call over
    one long-lived worker fleet, which then serves every start's
    demanded points (created once, shared by the seed batch and all
    starts).

    ``reuse`` and ``store_path`` behave as in
    :func:`repro.core.windim.windim` — and pay off even more here, since
    every restarted search warm-starts from the accumulated evaluations
    of all previous starts.

    Returns
    -------
    WindimResult
        As :func:`repro.core.windim.windim`; ``search`` is the run that
        produced the winner, with cache-wide evaluation totals.
    """
    objective = WindowObjective(
        network,
        solver,
        backend=backend,
        workers=workers,
        reuse=reuse,
    )
    space = IntegerBox.windows(network.num_chains, max_window)
    cache = EvaluationCache(objective)

    store: Optional[EvaluationStore] = None
    recorded_history = 0
    if store_path is not None:
        solver_label = solver if isinstance(solver, str) else getattr(
            solver, "primary_name", getattr(solver, "__name__", "custom")
        )
        store = EvaluationStore.open(
            store_path, model_fingerprint(network, str(solver_label))
        )
        for point, value in store.values.items():
            cache.values.setdefault(point, value)
        for point, seed in store.seeds.items():
            objective.prime_seed(point, seed)

    def persist_evaluation(live_cache: EvaluationCache) -> None:
        nonlocal recorded_history
        history = live_cache.history
        while recorded_history < len(history):
            point, value = history[recorded_history]
            recorded_history += 1
            if store is None or point in store.values:
                continue
            solution = objective.cached_solution(point)
            seed = (
                solution.queue_lengths
                if solution is not None and solution.converged
                else None
            )
            store.record(point, value, seed)

    starts: List[Tuple[int, ...]] = []
    for strategy in INITIAL_WINDOW_STRATEGIES:
        starts.append(initial_windows(network, strategy))
    midpoint = tuple(
        max(1, min(max_window, max_window // 4)) for _ in range(network.num_chains)
    )
    starts.append(midpoint)
    if extra_starts is not None:
        for start in extra_starts:
            if len(start) != network.num_chains:
                raise ModelError(
                    f"start {tuple(start)} has wrong dimension "
                    f"(expected {network.num_chains})"
                )
            starts.append(tuple(int(w) for w in start))

    best_search: Optional[SearchResult] = None
    best_start: Tuple[int, ...] = starts[0]
    unique_starts = [space.clip(s) for s in dict.fromkeys(starts)]
    # One plane serves every start: the shared cache makes overlapping
    # trajectories free, a pooled plane shares one worker fleet across
    # the seed batch and all starts, and the context manager closes it
    # on every exit path — an exhausted evaluation cap (or a raising
    # solver) mid-loop can no longer return early with the pool alive.
    plane = build_plane(
        objective,
        cache=cache,
        space=space,
        max_evaluations=max_evaluations,
        on_evaluation=persist_evaluation if store is not None else None,
        seed_for=objective.seed_for if reuse else None,
    )
    try:
        with plane:
            if objective.parallel or objective.soa_batchable:
                # Warm the shared cache with every seed in one batch
                # (trimmed to the evaluation cap, never raising): fanned
                # over the pool when parallel, or as one cross-network
                # SoA pass when the serial objective is batchable — the
                # SoA pass is bit-identical to per-key solves, so
                # trajectories are unchanged.
                plane.submit_many(unique_starts)
            for start in dict.fromkeys(unique_starts):
                run = pattern_search(
                    objective,
                    start,
                    space,
                    initial_step=initial_step,
                    max_halvings=max_halvings,
                    plane=plane,
                )
                if best_search is None or run.best_value < best_search.best_value:
                    best_search = run
                    best_start = start
    finally:
        if store is not None:
            store.close()
    pool_health = plane.pool_health

    assert best_search is not None
    solution = objective.solution(best_search.best_point)
    report = power_report(solution)
    combined = SearchResult(
        best_point=best_search.best_point,
        best_value=best_search.best_value,
        evaluations=cache.evaluations,
        lookups=cache.lookups,
        base_points=best_search.base_points,
        method="pattern-search-multistart",
    )
    return WindimResult(
        windows=best_search.best_point,
        power=report.power,
        report=report,
        solution=solution,
        search=combined,
        initial_windows=best_start,
        store_seeded=store.loaded if store is not None else 0,
        reuse_stats=objective.reuse_stats,
        pool_health=pool_health,
    )
