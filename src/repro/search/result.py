"""Common result record for the integer optimisers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

__all__ = ["SearchResult"]

Point = Tuple[int, ...]


@dataclass(frozen=True)
class SearchResult:
    """Outcome of an optimisation run.

    Attributes
    ----------
    best_point:
        The minimiser found (for WINDIM: the optimal window vector).
    best_value:
        Objective value at ``best_point`` (for WINDIM: ``1/power``).
    evaluations:
        Distinct objective evaluations performed (cache misses).
    lookups:
        Total objective requests including cache hits.
    base_points:
        Sequence of accepted base points, ending at ``best_point`` —
        the search trajectory (thesis Fig. 4.4).
    method:
        Optimiser name.
    status:
        ``"completed"`` for a full run; ``"budget_exhausted"`` when a
        :class:`~repro.resilience.budget.SearchBudget` (or the legacy
        ``max_evaluations`` cap) stopped the search early — the result is
        then the best point seen so far, not a certified local optimum.
    stop_reason:
        Human-readable cause when ``status != "completed"``.
    solved_ahead / ahead_used:
        Points the search solved ahead in cross packs, and how many of
        them it then demanded (:mod:`repro.search.pattern`); both 0 when
        it packed no cross.  Only the used ones count in
        ``evaluations``.
    """

    best_point: Point
    best_value: float
    evaluations: int
    lookups: int
    base_points: List[Point] = field(default_factory=list)
    method: str = ""
    status: str = "completed"
    stop_reason: str = ""
    solved_ahead: int = 0
    ahead_used: int = 0

    @property
    def budget_exhausted(self) -> bool:
        """True when the search stopped on a budget rather than completing."""
        return self.status == "budget_exhausted"

    def summary(self) -> str:
        """One-line human-readable result."""
        line = (
            f"{self.method}: best {list(self.best_point)} "
            f"value {self.best_value:.6g} "
            f"({self.evaluations} evaluations, {self.lookups} lookups)"
        )
        if self.status != "completed":
            line += f" [{self.status}: {self.stop_reason}]"
        return line
