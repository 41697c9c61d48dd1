"""Message-switched network topologies (nodes and channels).

A topology is the physical layer of the thesis model: switching nodes
joined by communication channels.  Channels may be *half-duplex* — a single
transmission resource alternating between the two directions, modelled as
one FCFS queue shared by both directions (this sharing is what couples the
chains of the thesis examples) — or *full-duplex*, modelled as one queue
per direction.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ModelError

__all__ = ["Duplex", "Channel", "Topology"]


class Duplex(enum.Enum):
    """Channel transmission modes."""

    HALF = "half"
    FULL = "full"


@dataclass(frozen=True)
class Channel:
    """A communication channel between two switching nodes.

    Parameters
    ----------
    name:
        Identifier, unique within a topology.
    node_a / node_b:
        The endpoints (order is irrelevant for half-duplex channels).
    capacity_bps:
        Transmission capacity in bits per second.
    duplex:
        Half (one shared queue) or full (one queue per direction).
    """

    name: str
    node_a: str
    node_b: str
    capacity_bps: float
    duplex: Duplex = Duplex.HALF

    def __post_init__(self) -> None:
        if not self.name:
            raise ModelError("channel name must be non-empty")
        if self.node_a == self.node_b:
            raise ModelError(f"channel {self.name!r} connects a node to itself")
        if self.capacity_bps <= 0:
            raise ModelError(
                f"channel {self.name!r}: capacity must be positive, "
                f"got {self.capacity_bps}"
            )

    @property
    def endpoints(self) -> FrozenSet[str]:
        """The unordered endpoint pair."""
        return frozenset((self.node_a, self.node_b))

    def queue_name(self, from_node: str, to_node: str) -> str:
        """Name of the queueing station serving the given direction.

        Half-duplex channels expose a single station (the channel name);
        full-duplex channels expose one per direction.
        """
        if {from_node, to_node} != set(self.endpoints):
            raise ModelError(
                f"channel {self.name!r} does not join {from_node!r} and {to_node!r}"
            )
        if self.duplex is Duplex.HALF:
            return self.name
        return f"{self.name}:{from_node}->{to_node}"

    def service_time(self, message_bits: float) -> float:
        """Transmission time of a message of the given mean length."""
        if message_bits <= 0:
            raise ModelError(f"message length must be positive, got {message_bits}")
        return message_bits / self.capacity_bps


class Topology:
    """A network of switching nodes and channels.

    Parameters
    ----------
    nodes:
        Switching-node names.
    channels:
        The channels; endpoints must be declared nodes and names unique.
    """

    def __init__(self, nodes: Iterable[str], channels: Sequence[Channel]):
        self._nodes: Tuple[str, ...] = tuple(nodes)
        if len(set(self._nodes)) != len(self._nodes):
            raise ModelError("duplicate node names in topology")
        if not self._nodes:
            raise ModelError("topology needs at least one node")
        names = set()
        node_set = set(self._nodes)
        for channel in channels:
            if channel.name in names:
                raise ModelError(f"duplicate channel name {channel.name!r}")
            names.add(channel.name)
            for endpoint in channel.endpoints:
                if endpoint not in node_set:
                    raise ModelError(
                        f"channel {channel.name!r} endpoint {endpoint!r} "
                        "is not a declared node"
                    )
        self._channels: Tuple[Channel, ...] = tuple(channels)
        self._adjacency: Dict[str, List[Tuple[str, Channel]]] = {
            node: [] for node in self._nodes
        }
        # Both directions of every node pair to the channel joining it, or
        # None where several do.
        self._between: Dict[Tuple[str, str], Optional[Channel]] = {}
        for channel in self._channels:
            self._adjacency[channel.node_a].append((channel.node_b, channel))
            self._adjacency[channel.node_b].append((channel.node_a, channel))
            for pair in (
                (channel.node_a, channel.node_b),
                (channel.node_b, channel.node_a),
            ):
                self._between[pair] = None if pair in self._between else channel

    # ------------------------------------------------------------------
    @property
    def nodes(self) -> Tuple[str, ...]:
        """Node names in declaration order."""
        return self._nodes

    @property
    def channels(self) -> Tuple[Channel, ...]:
        """Channels in declaration order."""
        return self._channels

    def neighbors(self, node: str) -> List[str]:
        """Nodes adjacent to ``node``."""
        self._require_node(node)
        return [other for other, _channel in self._adjacency[node]]

    def channel_between(self, node_a: str, node_b: str) -> Channel:
        """The channel joining two nodes (raises if absent or ambiguous)."""
        try:
            channel = self._between[node_a, node_b]
        except KeyError:
            self._require_node(node_a)
            self._require_node(node_b)
            raise ModelError(f"no channel between {node_a!r} and {node_b!r}") from None
        if channel is None:
            raise ModelError(
                f"multiple channels between {node_a!r} and {node_b!r}; "
                "look channels up by name"
            )
        return channel

    def has_channel(self, node_a: str, node_b: str) -> bool:
        """True if some channel joins the two nodes."""
        try:
            self.channel_between(node_a, node_b)
            return True
        except ModelError:
            return False

    def validate_path(self, path: Sequence[str]) -> None:
        """Check that consecutive path nodes are joined by channels."""
        if len(path) < 2:
            raise ModelError("a path needs at least two nodes")
        for here, there in zip(path, path[1:]):
            self.channel_between(here, there)

    def path_channels(self, path: Sequence[str]) -> List[Channel]:
        """Channels traversed by a node path, in order."""
        self.validate_path(path)
        return [self.channel_between(a, b) for a, b in zip(path, path[1:])]

    def is_connected(self) -> bool:
        """True if every node is reachable from the first node."""
        seen = {self._nodes[0]}
        frontier = [self._nodes[0]]
        while frontier:
            node = frontier.pop()
            for other in self.neighbors(node):
                if other not in seen:
                    seen.add(other)
                    frontier.append(other)
        return len(seen) == len(self._nodes)

    def _require_node(self, node: str) -> None:
        if node not in self._adjacency:
            raise ModelError(f"unknown node {node!r}")

    def __repr__(self) -> str:
        return (
            f"Topology({len(self._nodes)} nodes, {len(self._channels)} channels)"
        )
