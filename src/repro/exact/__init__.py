"""Exact solution methods for product-form queueing networks (Chapter 3).

* :func:`~repro.exact.ctmc.solve_ctmc` — brute-force global balance
  (ground truth for tiny networks).
* :func:`~repro.exact.buzen.buzen` — single-chain convolution constants.
* :func:`~repro.exact.gordon_newell.solve_gordon_newell` — single-chain
  closed networks.
* :func:`~repro.exact.convolution.solve_convolution` — multichain
  convolution (Reiser–Kobayashi).
* :func:`~repro.exact.mva_exact.solve_mva_exact` — exact multichain MVA.
* :func:`~repro.exact.jackson.solve_jackson` — open Jackson networks.
* :func:`~repro.exact.mixed.solve_mixed` — mixed open/closed networks.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "aggregate_single_chain": "repro.exact.aggregation",
    "flow_equivalent_rates": "repro.exact.aggregation",
    "buzen": "repro.exact.buzen",
    "buzen_stations": "repro.exact.buzen",
    "BuzenResult": "repro.exact.buzen",
    "solve_convolution": "repro.exact.convolution",
    "normalization_constants": "repro.exact.convolution",
    "solve_ctmc": "repro.exact.ctmc",
    "solve_mmmk": "repro.exact.finite_buffer",
    "FiniteQueueResult": "repro.exact.finite_buffer",
    "solve_gordon_newell": "repro.exact.gordon_newell",
    "solve_jackson": "repro.exact.jackson",
    "OpenNetworkResult": "repro.exact.jackson",
    "OpenStationResult": "repro.exact.jackson",
    "solve_mixed": "repro.exact.mixed",
    "MixedNetworkResult": "repro.exact.mixed",
    "solve_mva_exact": "repro.exact.mva_exact",
    "solve_semiclosed": "repro.exact.semiclosed",
    "SemiclosedResult": "repro.exact.semiclosed",
    "solve_open_multiclass": "repro.exact.open_multiclass",
    "open_view_of_network": "repro.exact.open_multiclass",
    "OpenMulticlassResult": "repro.exact.open_multiclass",
    "complement_constants": "repro.exact.marginals",
    "station_composition_distribution": "repro.exact.marginals",
    "station_queue_distribution": "repro.exact.marginals",
    "compositions": "repro.exact.states",
    "lattice_size": "repro.exact.states",
    "population_vectors": "repro.exact.states",
    "population_vectors_by_total": "repro.exact.states",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS, globals())

# ``buzen`` is also the name of a submodule, and importing that submodule
# sets this package's ``buzen`` attribute to the module.  Binding the
# function here, once the submodule is loaded, keeps ``repro.exact.buzen``
# the function in any import order.
from repro.exact.buzen import buzen  # noqa: E402
