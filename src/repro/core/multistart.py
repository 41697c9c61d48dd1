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
from repro.core.windim import WindimResult, _run, start_windows
from repro.queueing.network import ClosedNetwork
from repro.search.space import IntegerBox

__all__ = ["windim_multistart"]


def windim_multistart(
    network: ClosedNetwork,
    solver: Union[str, Solver] = "mva-heuristic",
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

    ``workers`` is a process-pool size (as in
    :func:`repro.core.windim.windim`).  With workers, the
    whole deduplicated seed list is batch-solved up front in one
    :meth:`~repro.core.objective.WindowObjective.batch_solve` call over
    one long-lived worker fleet, which then serves every start's
    demanded points (created once, shared by the seed batch and all
    starts).

    ``reuse`` and ``store_path`` behave as in
    :func:`repro.core.windim.windim` — and pay off even more here, since
    every restarted search warm-starts from the accumulated evaluations
    of all previous starts.  The searches run on ``windim``'s own run
    path, so the store, plane and result fields mean what they mean
    there.

    Returns
    -------
    WindimResult
        As :func:`repro.core.windim.windim`; ``search`` is the run that
        produced the winner, with cache-wide evaluation totals and the
        ``status``/``stop_reason`` of the first start that the
        evaluation cap stopped.
    """
    starts: List[Tuple[int, ...]] = [
        initial_windows(network, strategy)
        for strategy in INITIAL_WINDOW_STRATEGIES
    ]
    starts.append(
        tuple(
            max(1, min(max_window, max_window // 4))
            for _ in range(network.num_chains)
        )
    )
    starts.extend(start_windows(network, start) for start in extra_starts or ())

    space = IntegerBox.windows(network.num_chains, max_window)
    objective = WindowObjective(
        network,
        solver,
        workers=workers,
        reuse=reuse,
    )
    return _run(
        objective,
        [space.clip(s) for s in dict.fromkeys(starts)],
        solver=solver,
        space=space,
        initial_step=initial_step,
        max_halvings=max_halvings,
        max_evaluations=max_evaluations,
        reuse=reuse,
        store_path=store_path,
    )
