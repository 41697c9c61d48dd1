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

from repro.core.objective import Solver, WindowObjective, resolve_solver
from repro.core.power import network_power
from repro.core.windim import WindimResult, windim
from repro.queueing.network import ClosedNetwork
from repro.search.space import IntegerBox

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
    solver_name = solver if isinstance(solver, str) else None
    share_pool = (
        workers > 1
        and solver_name is not None
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

                    campaign_pool = PersistentEvalPool(
                        network,
                        solver_name,
                        backend=windim_kwargs.get("backend"),
                        workers=workers,
                    )
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
    backend: Union[str, None] = None,
) -> List[Tuple[Tuple[float, ...], float]]:
    """Power at each load point for one fixed window vector (Fig. 4.9).

    The load points are independent networks (the factory may change
    demands — or topology — with the rates), so when the named solver
    has a batched SoA kernel the whole curve is solved as heterogeneous
    packs (:func:`repro.mva.soa.solve_networks_batched`, engagement
    decided by :func:`repro.mva.autobatch.assess`) instead of a
    per-point Python loop; batched values are bit-identical to serial
    solves.  Declined batches are logged with the reason
    and fall back to the serial loop.
    """
    networks = [
        factory(*rates).with_populations([int(w) for w in windows])
        for rates in rate_vectors
    ]
    labels = [tuple(float(r) for r in rates) for rates in rate_vectors]
    solutions = None
    if isinstance(solver, str) and len(networks) >= 2:
        from repro.mva import autobatch

        per_network = max(n.num_chains * n.num_stations for n in networks)
        engage, reason = autobatch.assess(
            solver, False, backend, per_network, len(networks)
        )
        if engage:
            from repro.mva.soa import solve_networks_batched

            autobatch.record_engaged(len(networks))
            solutions = solve_networks_batched(
                networks, solver=solver, backend=backend
            )
        else:
            autobatch.record_declined(reason, len(networks))
    if solutions is None:
        solve = resolve_solver(solver)
        kwargs = {"backend": backend} if isinstance(solver, str) else {}
        solutions = [solve(network, **kwargs) for network in networks]
    return [
        (label, network_power(solution))
        for label, solution in zip(labels, solutions)
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
