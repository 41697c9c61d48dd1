"""The network "power" performance criterion (thesis §4.3, [5]).

    P = lambda / T

where ``lambda`` is total network throughput (msg/s) and ``T`` the mean
network delay (s).  Power rewards high throughput *and* low delay; it rises
along the uncongested part of the throughput-delay trade-off and collapses
once queueing delay explodes, which is what makes it a sensible criterion
for dimensioning flow-control windows: too small a window starves
throughput, too large a window lets delay grow without throughput gain
(Fig. 4.9).

Delay excludes each chain's source queue (the set ``V(r) = Q(r) - source``
of eq. 4.19): waiting in the source queue is admission throttling, not
network transit time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Tuple

import numpy as np

from repro.solution import NetworkSolution

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mva.soa import PackResult

__all__ = [
    "PowerReport",
    "network_power",
    "inverse_power",
    "pack_power",
    "inverse_pack_power",
    "power_report",
]


@dataclass(frozen=True)
class PowerReport:
    """Power and its ingredients for one solved network.

    Attributes
    ----------
    power:
        ``lambda / T`` (msg/s²).
    throughput:
        Total network throughput ``lambda`` (msg/s).
    delay:
        Mean network delay ``T`` (s), source queues excluded.
    class_throughputs / class_delays:
        Per-chain breakdowns.
    """

    power: float
    throughput: float
    delay: float
    class_throughputs: Tuple[float, ...]
    class_delays: Tuple[float, ...]

    def summary(self) -> str:
        """One-line report."""
        return (
            f"power={self.power:.2f} (throughput={self.throughput:.3f} msg/s, "
            f"delay={self.delay * 1e3:.2f} ms)"
        )


def network_power(solution: NetworkSolution) -> float:
    """Network power ``P = lambda / T`` of a solved network.

    Returns 0.0 for a network with zero throughput (all windows zero).
    """
    throughput = solution.network_throughput
    if throughput <= 0:
        return 0.0
    delay = solution.mean_network_delay
    if delay <= 0 or not np.isfinite(delay):
        return 0.0
    return throughput / delay


def inverse_power(solution: NetworkSolution) -> float:
    """Objective value ``F = 1/P`` minimised by WINDIM (thesis §4.3).

    Degenerate solutions (zero throughput / infinite delay) map to
    ``float('inf')`` so optimisers steer away from them.
    """
    power = network_power(solution)
    if power <= 0:
        return float("inf")
    return 1.0 / power


def pack_power(result: "PackResult") -> np.ndarray:
    """:func:`network_power` of every network of a pack result, ``(B,)``.

    Computed from the result's arrays, without building any
    :class:`NetworkSolution`, and bit-identical to ``network_power`` of
    each element: per topology, each network's throughputs and its
    delay-mask slots (in the dense mask's chain-major order) are
    gathered into the rows of C-contiguous arrays and summed with
    ``sum(axis=1)``, which adds a row exactly as ``ndarray.sum`` adds
    the vector ``network_power`` sums (see :mod:`repro.mva.soa`).
    """
    throughput = np.empty(len(result))
    queued = np.empty(len(result))
    for network, rows in result.groups():
        layout = network.route_layout
        counted = network.delay_mask()[layout.chain_index, layout.station_index]
        starts = result.chain_offsets[rows][:, None]
        throughput[rows] = result.throughputs[
            starts + np.arange(layout.num_chains)
        ].sum(axis=1)
        queued[rows] = result.queue_lengths[
            layout.slot_index[counted], starts + layout.chain_index[counted]
        ].sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        delay = queued / throughput
        power = throughput / delay
    return np.where(
        (throughput > 0) & (delay > 0) & np.isfinite(delay), power, 0.0
    )


def inverse_pack_power(result: "PackResult") -> np.ndarray:
    """:func:`inverse_power` of every network of a pack result, ``(B,)``."""
    power = pack_power(result)
    with np.errstate(divide="ignore"):
        return np.where(power > 0, 1.0 / power, float("inf"))


def power_report(solution: NetworkSolution) -> PowerReport:
    """Full power breakdown for reporting and benchmarks."""
    return PowerReport(
        power=network_power(solution),
        throughput=solution.network_throughput,
        delay=solution.mean_network_delay,
        class_throughputs=tuple(float(x) for x in solution.throughputs),
        class_delays=tuple(float(x) for x in solution.chain_delays),
    )
