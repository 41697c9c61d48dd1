"""Queueing-network data model (thesis Chapter 3 model class).

Public names:

* :class:`~repro.queueing.station.Station`, :class:`~repro.queueing.station.Discipline`
* :class:`~repro.queueing.chain.ClosedChain`, :class:`~repro.queueing.chain.OpenChain`
* :class:`~repro.queueing.network.ClosedNetwork`
* traffic-equation helpers in :mod:`repro.queueing.routing`
* capacity-function helpers in :mod:`repro.queueing.capacity`
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "Station": "repro.queueing.station",
    "Discipline": "repro.queueing.station",
    "ClosedChain": "repro.queueing.chain",
    "OpenChain": "repro.queueing.chain",
    "ClosedNetwork": "repro.queueing.network",
    "open_chain_arrival_rates": "repro.queueing.routing",
    "closed_chain_visit_ratios": "repro.queueing.routing",
    "cyclic_routing_matrix": "repro.queueing.routing",
    "validate_routing_matrix": "repro.queueing.routing",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS, globals())
