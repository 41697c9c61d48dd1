"""Routing chains (customer classes) for closed multichain networks.

In the thesis model, imposing an end-to-end window ``E_r`` on virtual channel
``r`` closes its open routing chain: customers cycle through the forward-route
link queues, are absorbed at the sink, and the acknowledgement re-enters the
"source queue" whose service time is the reciprocal of the external Poisson
rate ``S_r`` (§3.4, §4.2).  A :class:`ClosedChain` is therefore a *cyclic*
sequence of station visits plus a fixed population (the window).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral
from typing import Dict, Optional, Sequence, Tuple

from repro.errors import ModelError

__all__ = ["ClosedChain", "OpenChain"]


@dataclass(frozen=True)
class ClosedChain:
    """One closed routing chain (one flow-controlled traffic class).

    Parameters
    ----------
    name:
        Identifier, unique within a network.
    visits:
        Station names visited in one cycle, in order.  A station may appear
        more than once; each appearance adds one visit per cycle.
    service_times:
        Mean service time (seconds) for this chain at each visit, aligned
        with ``visits``.
    population:
        Number of customers circulating in the chain — the end-to-end window
        size ``E_r``.
    source_station:
        Name of the station modelling the traffic source (the re-entrant
        queue from sink to source).  It must appear in ``visits``.  Delay at
        this station is *excluded* from the network delay used in the power
        metric (thesis eq. 4.19: ``V(r) = Q(r) - source``).  ``None`` means
        every visited station counts toward delay.
    """

    name: str
    visits: Tuple[str, ...]
    service_times: Tuple[float, ...]
    population: int
    source_station: Optional[str] = field(default=None)

    def __post_init__(self) -> None:
        if not self.name:
            raise ModelError("chain name must be non-empty")
        if len(self.visits) == 0:
            raise ModelError(f"chain {self.name!r}: route must visit at least one station")
        if len(self.service_times) != len(self.visits):
            raise ModelError(
                f"chain {self.name!r}: got {len(self.service_times)} service times "
                f"for {len(self.visits)} visits"
            )
        if any(s <= 0 for s in self.service_times):
            raise ModelError(f"chain {self.name!r}: service times must be positive")
        if self.population < 0:
            raise ModelError(
                f"chain {self.name!r}: population must be >= 0, got {self.population}"
            )
        if self.source_station is not None and self.source_station not in self.visits:
            raise ModelError(
                f"chain {self.name!r}: source station {self.source_station!r} "
                "is not on the route"
            )

    def with_population(self, population: int) -> "ClosedChain":
        """Return a copy of this chain with a different window size.

        Only the population is checked: the route fields are carried over
        from this already-validated, frozen chain, so a window sweep pays
        for one integer test per copy, not a full re-validation.
        """
        if not isinstance(population, Integral) or population < 0:
            raise ModelError(
                f"chain {self.name!r}: population must be an integer >= 0, "
                f"got {population!r}"
            )
        # Field by field, not through the copy's ``__dict__``: touching
        # that would give every copy a full dict of its own (about 64
        # bytes more a chain, and a sweep keeps thousands).
        chain = object.__new__(ClosedChain)
        for name, value in self.__dict__.items():
            object.__setattr__(chain, name, value)
        object.__setattr__(chain, "population", population)
        return chain

    @property
    def hop_count(self) -> int:
        """Number of forward hops (visits excluding the source station).

        This is Kleinrock's suggested window size and the WINDIM initial
        window (thesis §4.4).
        """
        if self.source_station is None:
            return len(self.visits)
        return sum(1 for v in self.visits if v != self.source_station)

    def demand_by_station(self) -> Dict[str, float]:
        """Total mean service demand per cycle at each visited station.

        Stations visited multiple times accumulate demand.  The demand at a
        fixed-rate station equals ``visit_ratio * mean_service_time`` and is
        the quantity that actually enters product-form solutions.
        """
        demand: Dict[str, float] = {}
        for station, service in zip(self.visits, self.service_times):
            demand[station] = demand.get(station, 0.0) + service
        return demand

    @classmethod
    def from_route(
        cls,
        name: str,
        route: Sequence[str],
        service_times: Sequence[float],
        window: int,
        source_station: Optional[str] = None,
    ) -> "ClosedChain":
        """Build a chain from parallel route/service-time sequences."""
        return cls(
            name=name,
            visits=tuple(route),
            service_times=tuple(float(s) for s in service_times),
            population=window,
            source_station=source_station,
        )


@dataclass(frozen=True)
class OpenChain:
    """One open routing chain, driven by an exogenous Poisson stream.

    Used by the open/mixed-network solvers of :mod:`repro.exact` (Chapter 3);
    the WINDIM networks themselves contain only closed chains.

    Parameters
    ----------
    name:
        Identifier, unique within a network.
    visits / service_times:
        As for :class:`ClosedChain`.
    arrival_rate:
        Exogenous Poisson arrival rate (customers/second).
    """

    name: str
    visits: Tuple[str, ...]
    service_times: Tuple[float, ...]
    arrival_rate: float

    def __post_init__(self) -> None:
        if not self.name:
            raise ModelError("chain name must be non-empty")
        if len(self.visits) == 0:
            raise ModelError(f"chain {self.name!r}: route must visit at least one station")
        if len(self.service_times) != len(self.visits):
            raise ModelError(
                f"chain {self.name!r}: got {len(self.service_times)} service times "
                f"for {len(self.visits)} visits"
            )
        if any(s <= 0 for s in self.service_times):
            raise ModelError(f"chain {self.name!r}: service times must be positive")
        if self.arrival_rate <= 0:
            raise ModelError(
                f"chain {self.name!r}: arrival rate must be positive, got {self.arrival_rate}"
            )

    def demand_by_station(self) -> Dict[str, float]:
        """Total mean service demand per passage at each visited station."""
        demand: Dict[str, float] = {}
        for station, service in zip(self.visits, self.service_times):
            demand[station] = demand.get(station, 0.0) + service
        return demand
