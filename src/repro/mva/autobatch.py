"""Engagement decision for cross-network SoA batching.

Packs are route-compacted (:mod:`repro.mva.layout`), so a pack of B
networks costs about what their B serial solves cost in arithmetic and
saves B - 1 dispatch loops.  From thesis networks to the 500-chain
fixture no pack measurably lost to serial solves; the smallest margin,
two small-window networks at 500 chains, broke even (EXPERIMENTS.md
A17).  The decision is therefore structural only: a solver with a
batched fixed point, no reuse engine, the vectorized backend and at
least two networks.

:func:`assess` is that decision; its one caller is
:meth:`repro.core.objective.WindowObjective.soa_assessment`.  Every
batching path (``batch_solve``, ``batch_solve_networks``, the serial
plane, the campaign sweeps) asks
:meth:`~repro.core.objective.WindowObjective.engages_packs`, which logs
each decline with its reason through :func:`record_declined`, so a
declined batch is never silent and never counted twice;
:func:`batch_stats` exposes the running engaged/declined counters for
solver-mix reporting.
"""

from __future__ import annotations

import logging
from collections import Counter
from typing import Dict, Optional, Tuple

__all__ = [
    "assess",
    "record_engaged",
    "record_declined",
    "batch_stats",
    "reset_stats",
]

logger = logging.getLogger("repro.mva.autobatch")

#: Running engagement counters (reset with :func:`reset_stats`).
_STATS: Dict[str, object] = {
    "engaged_batches": 0,
    "engaged_networks": 0,
    "declined_batches": 0,
    "declined_networks": 0,
    "declined_reasons": Counter(),
}


def assess(
    solver_name: Optional[str],
    has_reuse: bool,
    backend: Optional[str],
    batch_size: int,
) -> Tuple[bool, str]:
    """The single SoA engagement decision: ``(engage, reason)``.

    ``reason`` explains the decision either way; callers pass declines to
    :func:`record_declined` so every batch that stays serial is logged.
    """
    from repro.backend import resolve_backend
    from repro.mva.soa import BATCHABLE_SOLVERS

    if solver_name not in BATCHABLE_SOLVERS:
        return False, (
            f"solver {solver_name!r} has no batched SoA kernel "
            f"(batchable: {list(BATCHABLE_SOLVERS)})"
        )
    if has_reuse:
        return False, (
            "reuse engine active: warm starts are per-key (a solve may "
            "seed from a neighbour in the same batch), so batches stay "
            "serial"
        )
    resolved = resolve_backend(backend)
    if resolved != "vectorized":
        return False, f"backend {resolved!r} runs the scalar reference loops"
    if batch_size < 2:
        return False, "batch of one network: nothing to batch"
    return True, f"{batch_size} networks packed on the vectorized kernel"


def record_engaged(networks: int) -> None:
    """Count one engaged batch of ``networks`` solves."""
    _STATS["engaged_batches"] += 1
    _STATS["engaged_networks"] += networks
    logger.debug("SoA batching engaged for %d networks", networks)


def record_declined(reason: str, networks: int) -> None:
    """Count — and log — one declined batch of ``networks`` solves."""
    _STATS["declined_batches"] += 1
    _STATS["declined_networks"] += networks
    _STATS["declined_reasons"][reason.split(":")[0]] += 1
    logger.info("SoA batching declined for %d networks: %s", networks, reason)


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
