"""State-space enumeration helpers for the exact solvers.

Exact product-form algorithms walk lattices of population vectors
(convolution, exact MVA) or full customer-placement state spaces (the
global-balance solver).  These generators centralise that combinatorics.
"""

from __future__ import annotations

import itertools
from typing import Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "population_vectors",
    "population_vectors_by_total",
    "compositions",
    "lattice_size",
    "EXACT_LATTICE_LIMIT",
    "exact_applicability",
]

#: Largest population lattice handed to the exact recursive solvers as
#: a last resort (the ladder's exact rung) or under the fuzzer (the
#: oracle): far below their own module limits, so neither hangs.
EXACT_LATTICE_LIMIT = 250_000


def lattice_size(limits: Sequence[int]) -> int:
    """Number of population vectors ``0 <= d <= limits`` componentwise.

    This is ``prod_r (E_r + 1)`` — the operation count of the exact
    solvers that the thesis heuristic avoids (§4.2).
    """
    size = 1
    for limit in limits:
        if limit < 0:
            raise ValueError(f"population limits must be >= 0, got {limit}")
        size *= limit + 1
    return size


def exact_applicability(network, limit: int = EXACT_LATTICE_LIMIT) -> Optional[str]:
    """Why the exact lattice solvers should not take ``network`` (None = they can).

    They need fixed-rate stations and a population lattice of at most
    ``limit`` vectors.
    """
    if not network.is_fixed_rate():
        return "needs fixed-rate single-server / IS stations"
    size = lattice_size([int(p) for p in network.populations])
    if size > limit:
        return f"population lattice too large ({size} > {limit})"
    return None


def population_vectors(limits: Sequence[int]) -> Iterator[Tuple[int, ...]]:
    """All integer vectors ``0 <= d <= limits``, in mixed-radix order."""
    ranges = [range(limit + 1) for limit in limits]
    for vector in itertools.product(*ranges):
        yield vector


def population_vectors_by_total(limits: Sequence[int]) -> Iterator[Tuple[int, ...]]:
    """All vectors ``0 <= d <= limits`` ordered by increasing total.

    Exact MVA must process vectors in this order so that every predecessor
    ``d - u_r`` has been solved before ``d``.
    """
    limits = list(limits)
    grand_total = sum(limits)
    buckets: List[List[Tuple[int, ...]]] = [[] for _ in range(grand_total + 1)]
    for vector in population_vectors(limits):
        buckets[sum(vector)].append(vector)
    for bucket in buckets:
        for vector in bucket:
            yield vector


def compositions(total: int, parts: int) -> Iterator[Tuple[int, ...]]:
    """All non-negative integer tuples of length ``parts`` summing to ``total``.

    Used to enumerate the placements of a chain's customers over its route
    in the global-balance solver (thesis §3.3.3 feasible state sets).
    """
    if parts < 0:
        raise ValueError("parts must be >= 0")
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in compositions(total - head, parts - 1):
            yield (head,) + tail
