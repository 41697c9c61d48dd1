"""The unit of currency of the evaluation plane: one finished evaluation.

Every execution path — serial objective call or persistent shared-memory
fleet — answers a :meth:`~repro.evalplane.plane.EvaluationPlane.submit`
with the same :class:`EvalResult`, so callers (and the conformance suite)
never need to know which execution path produced a number.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Tuple, Union

from repro.mva.soa import PackedSolution
from repro.solution import NetworkSolution

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.resilience.health import DegradationEvent

__all__ = ["EvalResult"]

Point = Tuple[int, ...]


@dataclass(frozen=True)
class EvalResult:
    """One completed objective evaluation, whichever plane produced it.

    Attributes
    ----------
    windows:
        The integer window vector that was evaluated (the cache key).
    value:
        Objective value ``F = 1/power`` (``inf`` where the solver failed).
    fresh:
        True when this submit paid for a new solve; False when the value
        was served from the shared :class:`~repro.search.cache.
        EvaluationCache` (a hit costs nothing and fires no hooks).
    source:
        Name of the plane that produced the value (``"serial"`` or
        ``"persistent"``).
    retained:
        What the objective retained for this evaluation: a
        :class:`~repro.solution.NetworkSolution`, a
        :class:`~repro.mva.soa.PackedSolution` handle of a packed batch
        (read through :attr:`solution`), or None for plain callables,
        failed solves and evicted points.
    health:
        Per-evaluation health annotation: the tuple of
        :class:`~repro.resilience.health.DegradationEvent` rungs taken
        once the degradation ladder has fired.  None for healthy runs.
    """

    windows: Point
    value: float
    fresh: bool
    source: str
    retained: Union[NetworkSolution, PackedSolution, None] = field(
        default=None, repr=False, compare=False
    )
    health: Optional[Tuple["DegradationEvent", ...]] = None

    @property
    def ok(self) -> bool:
        """True when the solve produced a finite objective value."""
        return self.value != float("inf")

    @property
    def solution(self) -> Optional[NetworkSolution]:
        """The full solution (built now, once, from a packed handle)."""
        if isinstance(self.retained, PackedSolution):
            return self.retained.get()
        return self.retained

    @property
    def warm_seed(self) -> Optional["np.ndarray"]:
        """Converged queue-length matrix usable as a warm-start seed.

        None when the solve failed, did not converge, or the objective
        retains no solutions.  This is the same matrix the reuse engine
        and the persistent store harvest.
        """
        solution = self.solution
        if solution is not None and getattr(solution, "converged", False):
            return solution.queue_lengths
        return None
