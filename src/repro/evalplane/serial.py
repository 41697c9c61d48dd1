"""The serial evaluation plane — the reference semantics.

Every other plane is certified against this one: a fresh submit solves
in-process through the shared cache.  It wraps *any* ``point -> float``
callable, which is what lets :func:`~repro.search.pattern.pattern_search`
keep its plain-function interface.

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

Cross packs
-----------
Before each exploratory move the search hands the plane the points
the move can demand: its centre and ``±step`` cross
(:meth:`SerialPlane.solve_ahead`).  Where a whole cross is at most
:data:`CROSS_COLUMNS` columns wide — ``(2R + 1) * R``, so up to 10
chains — on an objective that
:attr:`~repro.core.objective.WindowObjective.soa_batchable`, the
uncached points are solved as one pack through ``batch_solve`` and
their values kept in a bank that nothing counts.  A banked value enters
the cache only when :meth:`submit` demands it: the budget and cap are
checked first, then ``cache.prime_key`` and ``on_evaluation`` run
exactly as for an in-process solve.  So evaluations, lookups, cache
history, stores, caps and trajectories are the serial ones bit for bit;
only the number of fixed points run changes.  Wider networks, reuse
runs, scalar kernels, parallel objectives and plain callables never
bank.
"""

from __future__ import annotations

import warnings
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.errors import ConvergenceWarning, ReproError
from repro.evalplane.plane import EvaluationPlane
from repro.evalplane.result import EvalResult

__all__ = ["SerialPlane", "CROSS_COLUMNS"]

Point = Tuple[int, ...]

#: Widest ``±step`` cross, in pack columns (``(2R + 1) * R`` for R
#: chains), that the serial plane solves ahead.  A cross pack costs
#: 1.3-2.6 serial solves up to 12 chains, but the search uses a smaller
#: share of a wider cross.  In every probe up to 10 chains (210
#: columns) whole campaigns ran faster with cross packs than without;
#: from 11 chains on some ran slower, capped 25- and 120-chain searches
#: among them (EXPERIMENTS.md A23).
CROSS_COLUMNS = 210


def _packs_crosses(objective) -> bool:
    """True when the serial plane solves ``objective``'s crosses ahead.

    Asks ``soa_batchable``, which logs nothing: a declined cross is not
    a declined batch.
    """
    if getattr(objective, "parallel", False):
        return False
    if not getattr(objective, "soa_batchable", False):
        return False
    chains = objective.network.num_chains
    return (2 * chains + 1) * chains <= CROSS_COLUMNS


class SerialPlane(EvaluationPlane):
    """In-process evaluation; the conformance suite's oracle plane.

    Attributes
    ----------
    solved_ahead:
        Points solved ahead in cross packs (:meth:`solve_ahead`).
    ahead_used:
        How many of them the search then demanded; each counted as one
        fresh evaluation when it was.
    """

    name = "serial"

    def __init__(self, objective, **wiring):
        super().__init__(objective, **wiring)
        self._bank: Dict[Point, float] = {}
        self._crosses = _packs_crosses(objective)
        self.solved_ahead = 0
        self.ahead_used = 0

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

    def solve_ahead(self, points: Iterable[Point]) -> None:
        """Solve the uncached ``points`` as one cross pack and bank them.

        Only the first points that the remaining evaluation room could
        still admit are solved, and only when at least two are left.
        Nothing is counted: :meth:`_fulfil` primes a banked value when
        the search demands it.  A member that did not converge is not
        banked (its demand re-solves it and warns, as a serial run
        does), and a pack that raises banks nothing.  The budget's
        clock is not read here, so deadlines fire on the same checks as
        in a serial run.
        """
        self._check_open()
        if not self._crosses:
            return
        cached, bank = self.cache.values, self._bank
        fresh = [p for p in points if p not in cached and p not in bank]
        room = self.max_evaluations - self.cache.evaluations
        if self.budget is not None and self.budget.max_evaluations is not None:
            room = min(room, self.budget.max_evaluations - self.cache.evaluations)
        del fresh[max(0, room):]
        if len(fresh) < 2:
            return
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ConvergenceWarning)
                values = self._objective.batch_solve(fresh)
        except ReproError:
            return
        self.solved_ahead += len(fresh)
        retained = self._objective.retained
        for key, value in zip(fresh, values):
            solution = retained(key)
            if solution is not None and solution.converged:
                bank[key] = value

    def _fulfil(self, key: Point) -> float:
        """A banked value primed as a fresh evaluation, or an in-process solve."""
        value = self._bank.pop(key, None)
        if value is None:
            return super()._fulfil(key)
        self.ahead_used += 1
        self.cache.prime_key(key, value)
        return value
