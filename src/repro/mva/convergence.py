"""Iteration control for fixed-point solvers.

The thesis heuristic (§4.2 STEP 6) iterates until "the stopping condition
(e.g. convergence criterion) is met"; the APL program uses the Euclidean
norm of the change in class throughputs (``CRIT`` in ``FCT``).  This module
centralises that policy — tolerance, iteration budget, optional damping —
so every iterative solver in :mod:`repro.mva` behaves consistently.

``CRIT`` has one definition, :meth:`IterationControl.residuals`: the
norms of many networks' throughput changes at once, one per contiguous
segment of a packed vector.  A SoA pack (:mod:`repro.mva.soa`) takes
every network's stopping decision of a sweep in that one call, and
:meth:`IterationControl.residual` is its one-segment case, so the
heuristic, Schweitzer, Linearizer, asymptotic and reference loops
all round ``CRIT`` the same way.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass, replace

import numpy as np

from repro.errors import ConvergenceError, ConvergenceWarning, ModelError

__all__ = ["IterationControl"]

#: ``starts`` of a vector that is one segment.
_WHOLE = np.zeros(1, dtype=np.intp)


@dataclass(frozen=True)
class IterationControl:
    """Policy for a fixed-point iteration.

    Parameters
    ----------
    tolerance:
        Convergence threshold on the Euclidean norm of the change in the
        iterate (class throughput vector for the MVA heuristics), as
        :meth:`residuals` computes it — per network, for a pack of
        several.
    max_iterations:
        Hard budget; behaviour on exhaustion is set by ``raise_on_failure``.
    damping:
        New iterate = ``damping * proposed + (1-damping) * previous``.
        ``1.0`` (default) reproduces the undamped thesis iteration; values
        in ``(0, 1)`` help strongly coupled networks converge.
    raise_on_failure:
        If True, exhausting the budget raises
        :class:`~repro.errors.ConvergenceError`; if False the solver returns
        its last iterate flagged ``converged=False``.
    """

    tolerance: float = 1e-8
    max_iterations: int = 10_000
    damping: float = 1.0
    raise_on_failure: bool = False

    def __post_init__(self) -> None:
        if self.tolerance <= 0:
            raise ModelError(f"tolerance must be positive, got {self.tolerance}")
        if self.max_iterations < 1:
            raise ModelError(
                f"max_iterations must be >= 1, got {self.max_iterations}"
            )
        if not 0.0 < self.damping <= 1.0:
            raise ModelError(f"damping must be in (0, 1], got {self.damping}")

    def residuals(
        self, current: np.ndarray, previous: np.ndarray, starts: np.ndarray
    ) -> np.ndarray:
        """Euclidean norm of the iterate change per segment (the APL ``CRIT``).

        ``current`` and ``previous`` are 1-d vectors cut into contiguous,
        non-empty segments that begin at the ascending offsets ``starts``
        (a pack's ``chain_offsets[:-1]``); entry ``j`` of the result is
        ``sqrt(sum(d * d))`` over segment ``j`` of ``d = current -
        previous``.  ``np.add.reduceat`` sums each segment on its own, in
        an order fixed by the segment's length alone, so a network's
        residual does not depend on where it sits in the pack: a pack
        and its networks' serial solves stop on the same sweeps.
        """
        d = np.asarray(current) - np.asarray(previous)
        return np.sqrt(np.add.reduceat(d * d, starts))

    def residual(self, current: np.ndarray, previous: np.ndarray) -> float:
        """:meth:`residuals` of a vector that is one segment."""
        return float(self.residuals(current, previous, _WHOLE)[0])

    def has_converged(self, current: np.ndarray, previous: np.ndarray) -> bool:
        """True when the residual falls below the tolerance."""
        return self.residual(current, previous) < self.tolerance

    def apply_damping(self, proposed: np.ndarray, previous: np.ndarray) -> np.ndarray:
        """Blend the proposed iterate with the previous one."""
        if self.damping >= 1.0:
            return proposed
        return self.damping * proposed + (1.0 - self.damping) * previous

    def on_exhausted(self, solver: str, iterations: int, residual: float) -> None:
        """Handle budget exhaustion according to ``raise_on_failure``.

        When not raising, a :class:`~repro.errors.ConvergenceWarning` is
        emitted so the non-converged iterate is never returned silently;
        the ``converged=False`` flag on the solution carries the same fact
        programmatically.  The warning points at the first frame outside
        :mod:`repro.mva` — the code that called the solver — however many
        solver frames (pack entry points, chunking) lie in between.
        """
        if self.raise_on_failure:
            raise ConvergenceError(
                f"{solver} did not converge within {iterations} iterations "
                f"(residual {residual:.3e} > tolerance {self.tolerance:.3e})",
                iterations=iterations,
                residual=residual,
            )
        warnings.warn(
            f"{solver} did not converge within its {self.max_iterations}-"
            "iteration budget; returning the last (non-converged) iterate",
            ConvergenceWarning,
            stacklevel=_caller_level(),
        )

    def damped(self, damping: float) -> "IterationControl":
        """A copy of this policy with a different damping factor."""
        return replace(self, damping=damping)


def _caller_level() -> int:
    """``warnings.warn`` stacklevel of the first frame outside repro.mva.

    Called from :meth:`IterationControl.on_exhausted`, whose own frame is
    stacklevel 1.
    """
    frame, level = sys._getframe(2), 2
    while frame.f_back is not None and frame.f_globals.get(
        "__name__", ""
    ).startswith("repro.mva."):
        frame, level = frame.f_back, level + 1
    return level
