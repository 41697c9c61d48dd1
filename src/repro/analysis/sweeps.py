"""Parameter sweeps reproducing the thesis experiment grids.

Three sweep shapes cover every table and figure of §4.5:

* :func:`optimal_window_sweep` — run WINDIM at each load point
  (Tables 4.7, 4.8, 4.12).
* :func:`power_curve` — power versus load for *fixed* windows
  (Fig. 4.9's family of curves).
* :func:`window_grid_power` — power over a grid of window vectors at a
  fixed load (global-optimality probes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple, Union

from repro.core.objective import Solver, WindowObjective
from repro.core.power import network_power
from repro.core.windim import WindimResult, windim
from repro.queueing.network import ClosedNetwork
from repro.search.space import IntegerBox
from repro.solvers import solver_name

__all__ = [
    "SweepPoint",
    "optimal_window_sweep",
    "power_curve",
    "window_grid_power",
]

NetworkFactory = Callable[..., ClosedNetwork]


@dataclass(frozen=True)
class SweepPoint:
    """One load point of an optimal-window sweep."""

    rates: Tuple[float, ...]
    result: WindimResult

    @property
    def total_rate(self) -> float:
        """Total offered load (msg/s)."""
        return sum(self.rates)

    @property
    def windows(self) -> Tuple[int, ...]:
        """Optimal window vector found at this load."""
        return self.result.windows

    @property
    def power(self) -> float:
        """Optimal network power at this load."""
        return self.result.power


def optimal_window_sweep(
    factory: NetworkFactory,
    rate_vectors: Sequence[Sequence[float]],
    solver: Union[str, Solver] = "mva-heuristic",
    max_window: int = 32,
    **windim_kwargs,
) -> List[SweepPoint]:
    """Run WINDIM at each arrival-rate vector.

    Parameters
    ----------
    factory:
        Function mapping per-class rates to a :class:`ClosedNetwork`
        (e.g. ``canadian_two_class``).
    rate_vectors:
        The load points (one rate per class each).
    solver / max_window / windim_kwargs:
        Forwarded to :func:`repro.core.windim.windim`.

    Notes
    -----
    With ``workers > 1`` (named solvers only) the whole campaign shares
    **one** worker fleet: the pool is created for the first load point
    and re-targeted at each subsequent scenario by an in-place
    shared-memory model rewrite — worker processes survive the entire
    sweep instead of being respawned per run.  Every :class:`SweepPoint`'s ``result.pool_health`` then
    reports the same fleet (cumulative counters).
    """
    workers = windim_kwargs.get("workers") or 0
    name = solver_name(solver)
    share_pool = (
        workers > 1
        and name is not None
        and windim_kwargs.get("shared_pool") is None
        and not windim_kwargs.get("resilient")
    )
    points = []
    campaign_pool = None
    try:
        for rates in rate_vectors:
            network = factory(*rates)
            kwargs = dict(windim_kwargs)
            if share_pool:
                if campaign_pool is None:
                    from repro.parallel.pool import PersistentEvalPool

                    campaign_pool = PersistentEvalPool(network, name, workers=workers)
                kwargs["shared_pool"] = campaign_pool
            result = windim(
                network, solver=solver, max_window=max_window, **kwargs
            )
            points.append(
                SweepPoint(rates=tuple(float(r) for r in rates), result=result)
            )
    finally:
        if campaign_pool is not None:
            campaign_pool.close()
    return points


def power_curve(
    factory: NetworkFactory,
    rate_vectors: Sequence[Sequence[float]],
    windows: Sequence[int],
    solver: Union[str, Solver] = "mva-heuristic",
) -> List[Tuple[Tuple[float, ...], float]]:
    """Power at each load point for one fixed window vector (Fig. 4.9).

    The load points are independent networks (the factory may change
    demands — or topology — with the rates), so the curve is evaluated
    as one batch through
    :meth:`~repro.core.objective.WindowObjective.batch_solve_networks`:
    SoA packs when the solver has a batched kernel, bit-identical to
    serial solves, and otherwise a serial loop whose decline is logged
    with its reason.  A load point whose solve fails has power 0.
    """
    networks = [
        factory(*rates).with_populations([int(w) for w in windows])
        for rates in rate_vectors
    ]
    if not networks:
        return []
    objective = WindowObjective(networks[0], solver)
    return [
        (
            tuple(float(r) for r in rates),
            network_power(solution) if solution is not None else 0.0,
        )
        for rates, (_value, solution) in zip(
            rate_vectors, objective.batch_solve_networks(networks)
        )
    ]


def window_grid_power(
    network: ClosedNetwork,
    space: IntegerBox,
    solver: Union[str, Solver] = "mva-heuristic",
) -> Dict[Tuple[int, ...], float]:
    """Power at every window vector of an integer box (optimality probe).

    Evaluations flow through a
    :class:`~repro.evalplane.serial.SerialPlane` — the same choke point
    the pattern search uses — so a grid probe and a search over the same
    box are fed by identical values.  The whole grid goes through the
    plane's ``submit_many``, so batchable solvers run it as one
    cross-network SoA tensor pass (bit-identical to per-point solves;
    see :mod:`repro.mva.soa`) instead of ``|box|`` separate fixed points.
    """
    from repro.evalplane.serial import SerialPlane

    objective = WindowObjective(network, solver)
    grid: Dict[Tuple[int, ...], float] = {}
    with SerialPlane(objective, space=space) as plane:
        points = [tuple(point) for point in space.points()]
        values = {res.windows: res.value for res in plane.submit_many(points)}
        for point in points:
            value = values[point]
            grid[point] = (
                1.0 / value if value > 0 and value != float("inf") else 0.0
            )
    return grid
