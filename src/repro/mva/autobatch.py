"""Auto-engagement gate for cross-network SoA batching.

Batching B networks into one pack wins while a single network's
per-iteration arrays are small enough that NumPy dispatch overhead
dominates; once one network's state is itself cache-sized, stacking B
of them only evicts the cache (the 120-chain fixture ran at 0.5x
batched, measured on dense state).  :data:`CROSSOVER` is that boundary
in per-network dense ``R*L`` elements.  It depends on the host's
caches, but a timing probe for it answered 2048 or 8192 from run to run
on one host, and no workload sits between those values, so the gate is
fixed (EXPERIMENTS.md A13).  Packs now hold route-compacted ``K*R``
slots (:mod:`repro.mva.layout`); the gate has not been re-measured
against that count, so it still takes ``R*L``.

:func:`assess` is the single engagement decision every caller consults
— ``WindowObjective``, the evaluation planes, and the campaign sweeps.
It returns ``(engage, reason)`` so a declined batch is never silent:
callers log the reason through :func:`record_declined`, and
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
    "CROSSOVER",
]

logger = logging.getLogger("repro.mva.autobatch")

#: Per-network ``R*L`` elements up to which batching auto-engages.
CROSSOVER = 8_192

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
    per_network_elements: int,
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
    if per_network_elements <= CROSSOVER:
        return True, (
            f"{per_network_elements} elements/network <= crossover "
            f"{CROSSOVER}"
        )
    return False, (
        f"{per_network_elements} elements/network > crossover "
        f"{CROSSOVER}: per-network tensors are compute-bound and stacking "
        "them would evict the cache"
    )


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
        "crossover": CROSSOVER,
    }


def reset_stats() -> None:
    """Zero the engagement counters (benchmark/test isolation)."""
    _STATS["engaged_batches"] = 0
    _STATS["engaged_networks"] = 0
    _STATS["declined_batches"] = 0
    _STATS["declined_networks"] = 0
    _STATS["declined_reasons"] = Counter()
