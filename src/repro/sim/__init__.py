"""Discrete-event simulation of store-and-forward networks (Chapter 2).

* :class:`~repro.sim.engine.NetworkSimulator` /
  :func:`~repro.sim.engine.simulate` — the simulator.
* :class:`~repro.sim.flowcontrol.FlowControlConfig` — end-to-end windows,
  local buffer limits, isarithmic permits, in any combination.
* :class:`~repro.sim.results.SimulationResult` — measured statistics.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "NetworkSimulator": "repro.sim.engine",
    "simulate": "repro.sim.engine",
    "FlowControlConfig": "repro.sim.flowcontrol",
    "FlowControlState": "repro.sim.flowcontrol",
    "Message": "repro.sim.messages",
    "SimulationResult": "repro.sim.results",
    "ClassStats": "repro.sim.results",
    "ChannelStats": "repro.sim.results",
    "RandomStreams": "repro.sim.rng",
    "TallyStatistic": "repro.sim.stats",
    "TimeWeightedStatistic": "repro.sim.stats",
    "batch_means": "repro.sim.stats",
    "EventKind": "repro.sim.trace",
    "TraceCollector": "repro.sim.trace",
    "TraceEvent": "repro.sim.trace",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS, globals())
