"""Message-switched network modelling (topology → queueing model).

* :class:`~repro.netmodel.topology.Topology`,
  :class:`~repro.netmodel.topology.Channel` — the physical network.
* :class:`~repro.netmodel.traffic.TrafficClass` — virtual channels.
* :func:`~repro.netmodel.builder.build_closed_network` — topology +
  classes → :class:`~repro.queueing.network.ClosedNetwork`.
* :mod:`~repro.netmodel.examples` — the thesis networks.
* :mod:`~repro.netmodel.generator` — seeded random instances.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "Topology": "repro.netmodel.topology",
    "Channel": "repro.netmodel.topology",
    "Duplex": "repro.netmodel.topology",
    "TrafficClass": "repro.netmodel.traffic",
    "build_closed_network": "repro.netmodel.builder",
    "source_station_name": "repro.netmodel.builder",
    "shortest_path": "repro.netmodel.routes",
    "route_all_pairs": "repro.netmodel.routes",
    "parse_spec": "repro.netmodel.spec",
    "load_spec": "repro.netmodel.spec",
    "network_from_spec": "repro.netmodel.spec",
    "canadian_topology": "repro.netmodel.examples",
    "canadian_two_class": "repro.netmodel.examples",
    "canadian_four_class": "repro.netmodel.examples",
    "arpanet_fragment": "repro.netmodel.examples",
    "tandem_network": "repro.netmodel.examples",
    "ring_topology": "repro.netmodel.generator",
    "line_topology": "repro.netmodel.generator",
    "random_mesh_topology": "repro.netmodel.generator",
    "random_traffic_classes": "repro.netmodel.generator",
    "random_network": "repro.netmodel.generator",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS, globals())
