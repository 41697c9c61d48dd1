"""WINDIM — window dimensioning for message-switched networks.

A full reproduction of J. Y. K. Chan, *Dimensioning of Message-Switched
Computer-Communication Networks with End-to-End Window Flow Control*
(University of Ottawa, 1979): closed multichain queueing models, exact
product-form solvers, the Reiser–Lavenberg MVA heuristic, integer pattern
search, the WINDIM dimensioning algorithm, and a discrete-event simulator
of store-and-forward networks with end-to-end, local and isarithmic flow
control.

Quickstart::

    from repro import canadian_two_class, windim

    network = canadian_two_class(s1=18.0, s2=18.0)
    result = windim(network)
    print(result.summary())

Every package's names resolve on first use (:mod:`repro._exports`), so
a program imports only the modules it reads names from.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "__version__": "repro._version",
    # core
    "windim": "repro.core.windim",
    "WindimResult": "repro.core.windim",
    "network_power": "repro.core.power",
    "inverse_power": "repro.core.power",
    "power_report": "repro.core.power",
    "PowerReport": "repro.core.power",
    "WindowObjective": "repro.core.objective",
    "initial_windows": "repro.core.initializers",
    "hop_count_windows": "repro.core.kleinrock",
    # model
    "Station": "repro.queueing.station",
    "Discipline": "repro.queueing.station",
    "ClosedChain": "repro.queueing.chain",
    "OpenChain": "repro.queueing.chain",
    "ClosedNetwork": "repro.queueing.network",
    "NetworkSolution": "repro.solution",
    # solvers
    "solve_mva_heuristic": "repro.mva.heuristic",
    "solve_schweitzer": "repro.mva.schweitzer",
    "solve_linearizer": "repro.mva.linearizer",
    "solve_single_chain": "repro.mva.single_chain",
    "IterationControl": "repro.mva.convergence",
    "solve_mva_exact": "repro.exact.mva_exact",
    "solve_convolution": "repro.exact.convolution",
    "solve_ctmc": "repro.exact.ctmc",
    "solve_gordon_newell": "repro.exact.gordon_newell",
    "solve_jackson": "repro.exact.jackson",
    "solve_mixed": "repro.exact.mixed",
    "solve_semiclosed": "repro.exact.semiclosed",
    "station_queue_distribution": "repro.exact.marginals",
    # search
    "pattern_search": "repro.search.pattern",
    "exhaustive_search": "repro.search.exhaustive",
    "coordinate_descent": "repro.search.coordinate",
    "EvaluationCache": "repro.search.cache",
    "IntegerBox": "repro.search.space",
    "SearchResult": "repro.search.result",
    # netmodel
    "Topology": "repro.netmodel.topology",
    "Channel": "repro.netmodel.topology",
    "Duplex": "repro.netmodel.topology",
    "TrafficClass": "repro.netmodel.traffic",
    "build_closed_network": "repro.netmodel.builder",
    "canadian_topology": "repro.netmodel.examples",
    "canadian_two_class": "repro.netmodel.examples",
    "canadian_four_class": "repro.netmodel.examples",
    "arpanet_fragment": "repro.netmodel.examples",
    "tandem_network": "repro.netmodel.examples",
    # errors
    "ReproError": "repro.errors",
    "ModelError": "repro.errors",
    "SolverError": "repro.errors",
    "ConvergenceError": "repro.errors",
    "StabilityError": "repro.errors",
    "SearchError": "repro.errors",
    "SimulationError": "repro.errors",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS, globals())
