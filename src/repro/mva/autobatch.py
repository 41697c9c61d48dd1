"""Counters and decline log for cross-network SoA batching.

Packs are route-compacted (:mod:`repro.mva.layout`), so a pack of B
networks costs about what their B serial solves cost in arithmetic and
saves B - 1 dispatch loops.  From thesis networks to the 500-chain
fixture no pack measurably lost to serial solves; the smallest margin,
two small-window networks at 500 chains, broke even (EXPERIMENTS.md
A17).  The engagement decision is therefore structural only, and lives
next to the solvers it names: :func:`repro.mva.soa.assess`.

Every batching path (``batch_solve``, ``batch_solve_networks``, the
serial plane, the campaign sweeps) asks
:meth:`~repro.core.objective.WindowObjective.engages_packs`, which logs
each decline with its reason through :func:`record_declined`, so a
declined batch is never silent and never counted twice;
:func:`batch_stats` exposes the running engaged/declined counters for
solver-mix reporting.  :mod:`logging` is imported only when a decline
is logged, so a search whose batches all engage never loads it.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict

__all__ = [
    "record_engaged",
    "record_declined",
    "batch_stats",
    "reset_stats",
]

#: Running engagement counters (reset with :func:`reset_stats`).
_STATS: Dict[str, object] = {
    "engaged_batches": 0,
    "engaged_networks": 0,
    "declined_batches": 0,
    "declined_networks": 0,
    "declined_reasons": Counter(),
}


def record_engaged(networks: int) -> None:
    """Count one engaged batch of ``networks`` solves."""
    _STATS["engaged_batches"] += 1
    _STATS["engaged_networks"] += networks


def record_declined(reason: str, networks: int) -> None:
    """Count — and log — one declined batch of ``networks`` solves."""
    _STATS["declined_batches"] += 1
    _STATS["declined_networks"] += networks
    _STATS["declined_reasons"][reason.split(":")[0]] += 1
    import logging

    logging.getLogger(__name__).info(
        "SoA batching declined for %d networks: %s", networks, reason
    )


def batch_stats() -> Dict[str, object]:
    """Running engagement counters (solver-mix observability)."""
    return {
        "engaged_batches": _STATS["engaged_batches"],
        "engaged_networks": _STATS["engaged_networks"],
        "declined_batches": _STATS["declined_batches"],
        "declined_networks": _STATS["declined_networks"],
        "declined_reasons": dict(_STATS["declined_reasons"]),
    }


def reset_stats() -> None:
    """Zero the engagement counters (benchmark/test isolation)."""
    _STATS["engaged_batches"] = 0
    _STATS["engaged_networks"] = 0
    _STATS["declined_batches"] = 0
    _STATS["declined_networks"] = 0
    _STATS["declined_reasons"] = Counter()
