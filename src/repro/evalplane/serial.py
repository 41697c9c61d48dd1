"""The serial evaluation plane — the reference semantics.

Every other plane is certified against this one: a fresh submit solves
in-process through the shared cache.  It wraps *any* ``point -> float``
callable, which is what lets :func:`~repro.search.pattern.pattern_search`
keep its plain-function interface.  It answers demands only: the cross
packs that solve a search's next points ahead belong to the search's
driver (:mod:`repro.search.pattern`), which hands each banked value to
:meth:`~repro.evalplane.plane.EvaluationPlane.submit` when it demands
the point.

``submit_many`` has a cross-network SoA fast path: when the wrapped
objective is a :class:`~repro.core.objective.WindowObjective` whose
solver and reuse settings allow packing (the one decision is
:meth:`~repro.core.objective.WindowObjective.engages_packs`; network
size plays no part), the fresh slice of a seed list goes to
:meth:`~repro.core.objective.WindowObjective.batch_solve` and is solved
in packs (:func:`repro.mva.soa.solve_windows_batched`) instead of a
per-point loop.  Packs are bit-identical to the per-point solves, so the
plane's reference semantics are unchanged — only the dispatch count
drops.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.evalplane.plane import EvaluationPlane
from repro.evalplane.result import EvalResult

__all__ = ["SerialPlane"]


class SerialPlane(EvaluationPlane):
    """In-process evaluation; the conformance suite's oracle plane."""

    name = "serial"

    def submit_many(self, batch: Sequence[Sequence[int]]) -> List[EvalResult]:
        """Batch evaluation, as one SoA tensor pass where the objective allows.

        Falls back to the base per-point loop for plain callables and for
        non-batchable solver or reuse configurations.  Caps are honoured
        quietly either way (trim to room, never raise).
        """
        engages_packs = getattr(self._objective, "engages_packs", None)
        if engages_packs is not None and len(batch) >= 2 and engages_packs(
            len(batch)
        ):
            return self._submit_batched(batch)
        return super().submit_many(batch)
