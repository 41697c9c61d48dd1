"""Aitken acceleration for warm-started MVA fixed points.

The thesis heuristic and Schweitzer-Bard both iterate an undamped
successive substitution ``q <- G(q)`` whose error contracts linearly with
some dominant ratio ``rho`` (empirically ~0.4 on the ARPANET fragment).
A warm start shrinks the *initial* error but cannot change ``rho`` — and
with a 1e-8 stopping tolerance the contraction rate, not the seed, is
what bounds iterations-to-converge.

This module supplies the missing half of the reuse engine's solver-level
win: Steffensen-style vector Aitken extrapolation.  After every
``period`` plain iterations the dominant error ratio is estimated from
two successive iterate differences (a Rayleigh quotient) and the
dominant geometric error mode is summed to its limit in one step:

    rho   = <dq_k, dq_{k-1}> / <dq_{k-1}, dq_{k-1}>
    q_acc = q_k + rho / (1 - rho) * dq_k

The Rayleigh estimate is only meaningful once the iteration is in its
asymptotic linear regime, and a converged neighbour's queue lengths do
not guarantee that: on Table 4.12 row 8, seeds from converged
neighbours start solves on which unguarded extrapolation locks the
iterate into a limit cycle that never meets the tolerance, although the
plain iteration from the same seed converges in under 30 sweeps.  So
the accelerator checks its own work.  It records the plain step length
``|q_k - q_{k-1}|`` just before each extrapolation; when the next
cycle's plain step is not shorter, the extrapolation did not pay, and
the accelerator switches itself off for the rest of the solve.  The
solve then carries on as the plain thesis iteration from its current
iterate, with the same stopping criterion and iteration budget, and
records the switch under :data:`SWITCHED_OFF` in the solution's
``extras``.

Extrapolation is only engaged for *warm-started* solves.  A cold
balanced start is far from the linear regime, and the parity wall needs
the cold path to remain bit-for-bit the plain thesis iteration, so
reuse can be switched off to reproduce every archived trajectory
exactly.

The extrapolated iterate is a linear combination of two valid iterates,
so per-chain mass conservation (``sum_i q_ri == E_r``, Little's law) is
preserved exactly; negatives (possible when ``rho`` is overestimated)
are clipped, and the stopping criterion still requires a *plain*
``G``-application's residual to fall below tolerance, so a converged
solution is always a genuine fixed-point evaluation within the same
tolerance as the cold solve.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

__all__ = ["AitkenAccelerator", "SWITCHED_OFF", "solve_extras"]

#: ``NetworkSolution.extras`` key (value 1.0) of a solve whose guard
#: switched the accelerator off.
SWITCHED_OFF = "aitken_switched_off"


class AitkenAccelerator:
    """Periodic vector-Aitken extrapolation of a fixed-point iterate.

    Parameters
    ----------
    period:
        Plain iterations between extrapolations.  Two is the Steffensen
        minimum (an estimate needs two fresh differences) and empirically
        optimal here: the dominant mode is re-eliminated as soon as it is
        re-estimable.
    max_ratio:
        Reject estimates at or above this value; extrapolating a
        near-unit ratio would divide by almost zero and catapult the
        iterate far outside the contraction basin.
    """

    def __init__(self, period: int = 2, max_ratio: float = 0.95) -> None:
        self._period = max(2, int(period))
        self._max_ratio = float(max_ratio)
        self._previous: Optional[np.ndarray] = None
        self._delta: Optional[np.ndarray] = None
        self._since_reset = 0
        # Squared plain step length just before the last extrapolation.
        self._step_before: Optional[float] = None
        #: Number of extrapolations actually applied (introspection/tests).
        self.applied = 0
        #: True once an extrapolation failed to shorten the plain step;
        #: the accelerator then stays off for the rest of the solve.
        self.switched_off = False

    def push(self, iterate: np.ndarray) -> Optional[np.ndarray]:
        """Observe the latest plain iterate; maybe return a better one.

        Returns the extrapolated iterate when a trustworthy ratio
        estimate is available this step, else ``None`` (caller continues
        with the plain iterate).  After an extrapolation the accelerated
        point becomes the new difference base — both subsequent deltas
        are genuine ``G``-steps taken *from* it, so the next ratio
        estimate never mixes pre- and post-extrapolation state (classic
        Steffensen: two map applications per extrapolation cycle).  If
        the last of those steps is not shorter than the step before the
        extrapolation, the accelerator switches itself off and returns
        ``None`` from then on.
        """
        if self.switched_off:
            return None
        if self._previous is None:
            self._previous = iterate
            return None
        delta = iterate - self._previous
        self._previous = iterate
        previous_delta, self._delta = self._delta, delta
        self._since_reset += 1
        if self._since_reset < self._period or previous_delta is None:
            return None

        step = float(np.dot(delta.ravel(), delta.ravel()))
        if self._step_before is not None and step >= self._step_before:
            self.switched_off = True
            return None
        self._step_before = None

        denominator = float(np.dot(previous_delta.ravel(), previous_delta.ravel()))
        if denominator <= 0.0:
            return None
        ratio = float(np.dot(delta.ravel(), previous_delta.ravel())) / denominator
        if not 0.0 < ratio < self._max_ratio:
            return None

        accelerated = np.clip(iterate + (ratio / (1.0 - ratio)) * delta, 0.0, None)
        self._previous = accelerated
        self._delta = None
        self._since_reset = 0
        self._step_before = step
        self.applied += 1
        return accelerated


def solve_extras(
    residual: float, accelerator: Optional[AitkenAccelerator]
) -> Dict[str, float]:
    """``NetworkSolution.extras`` of a fixed-point solve.

    The final residual, plus :data:`SWITCHED_OFF` when the solve's
    accelerator switched itself off.
    """
    extras = {"residual": residual}
    if accelerator is not None and accelerator.switched_off:
        extras[SWITCHED_OFF] = 1.0
    return extras
