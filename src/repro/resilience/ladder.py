"""Solver escalation ladder: retry with damping, then switch algorithms.

The thesis §4.2 heuristic is an undamped fixed-point iteration; on strongly
coupled chains it can cycle or diverge, and one bad window vector inside a
WINDIM pattern search then poisons the whole run.  :class:`ResilientSolver`
wraps any backend behind the standard ``ClosedNetwork -> NetworkSolution``
interface and contains such failures:

1. **Damping schedule** — the primary backend is retried with progressively
   heavier damping (default 1.0 -> 0.5 -> 0.25 via
   :class:`~repro.mva.convergence.IterationControl`), which restores
   convergence for most oscillating fixed points.
2. **Algorithm escalation** — if every damped retry fails, the ladder
   switches backend: heuristic -> Schweitzer-Bard -> Linearizer -> exact
   MVA (the last only when the population lattice is small enough to be
   tractable: :func:`repro.exact.states.exact_applicability`, the
   oracle's gate too).  Every backend name is an entry of
   :data:`repro.solvers.SOLVERS`.
3. **Structured health records** — every attempt (tried or skipped) is
   logged in a :class:`~repro.resilience.health.SolveHealth`, retrievable
   via :attr:`ResilientSolver.last_health` / :attr:`health_log`.

The ladder never switches algorithm by network size: every solve starts
on the primary backend, at 2 chains or at 500.  (At 500 chains a cold
heuristic solve takes about a fourteenth of the CLT/asymptotic solver's
time, and their throughputs differ by up to 43%, EXPERIMENTS.md A17.)
``"asymptotic"`` runs only when named, as the primary or in
``escalation``.

A rung *fails* when it raises ``SolverError`` (including convergence and
stability errors), returns ``converged=False``, or returns non-finite
throughputs/queue lengths.  ``ModelError`` — a broken model, not a broken
solve — propagates immediately: no amount of retrying fixes a bad input.
"""

from __future__ import annotations

import time
import warnings
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import (
    ConvergenceWarning,
    LadderExhaustedError,
    ModelError,
    SolverError,
)
from repro.exact.states import EXACT_LATTICE_LIMIT, exact_applicability
from repro.mva.convergence import IterationControl
from repro.queueing.network import ClosedNetwork
from repro.solution import NetworkSolution
from repro.solvers import SOLVERS, solver_keywords

from repro.resilience.health import AttemptOutcome, SolveAttempt, SolveHealth

__all__ = [
    "DEFAULT_DAMPING_SCHEDULE",
    "DEFAULT_ESCALATION",
    "ResilientSolver",
    "solve_resilient",
]

#: Damping factors tried on the primary backend, in order.
DEFAULT_DAMPING_SCHEDULE: Tuple[float, ...] = (1.0, 0.5, 0.25)

#: Backend escalation order after the damping schedule is exhausted.
DEFAULT_ESCALATION: Tuple[str, ...] = (
    "mva-heuristic",
    "schweitzer",
    "linearizer",
    "mva-exact",
)

Solver = Callable[..., NetworkSolution]


def _rung(name: str) -> Solver:
    """The named solver for ladder backend ``name``: any but ``"resilient"``."""
    if name == "resilient" or name not in SOLVERS:
        raise ModelError(
            f"unknown ladder backend {name!r}; expected one of "
            f"{sorted(set(SOLVERS) - {'resilient'})}"
        )
    return SOLVERS[name]


def _judge(solution: NetworkSolution) -> Optional[Tuple[str, str]]:
    """Inspect a returned solution; None when healthy, else (outcome, detail)."""
    if not (
        np.all(np.isfinite(solution.throughputs))
        and np.all(np.isfinite(solution.queue_lengths))
    ):
        return (
            AttemptOutcome.NAN_OUTPUT,
            "solver returned non-finite throughputs or queue lengths",
        )
    if not solution.converged:
        return (
            AttemptOutcome.NON_CONVERGED,
            f"stopped at iteration budget (iterations={solution.iterations})",
        )
    return None


class ResilientSolver:
    """A ``ClosedNetwork -> NetworkSolution`` backend that refuses to die.

    Parameters
    ----------
    solver:
        Primary backend: a name from :data:`repro.solvers.SOLVERS` other
        than ``"resilient"``, or any solver callable.  A solver that takes
        a ``control`` keyword (:func:`repro.solvers.solver_keywords`) gets
        the damping schedule; others are simply retried once per rung
        (useful for transiently flaky backends).
    damping_schedule:
        Damping factors tried on the primary backend, in order.
    escalation:
        Backend names tried after the primary is exhausted (the primary is
        skipped if it reappears here), checked against the same table when
        the ladder is built.  ``"mva-exact"`` is attempted only when the
        population lattice is within ``exact_lattice_limit``.
    control:
        Base iteration policy; tolerance/max_iterations are kept, damping
        is overridden per rung, and failures always raise internally so
        the ladder sees them (``raise_on_failure`` is forced True).
    exact_lattice_limit:
        State-space gate for the exact-MVA rung.
    max_health_records:
        Cap on :attr:`health_log` (oldest dropped first) so a very long
        pattern search cannot grow memory without bound.

    Notes
    -----
    The wrapper is itself registry-compatible: pass an instance anywhere a
    solver callable is accepted (``WindowObjective``, ``windim``, the
    verification oracle).
    """

    def __init__(
        self,
        solver: Union[str, Solver] = "mva-heuristic",
        damping_schedule: Sequence[float] = DEFAULT_DAMPING_SCHEDULE,
        escalation: Optional[Sequence[str]] = None,
        control: Optional[IterationControl] = None,
        exact_lattice_limit: int = EXACT_LATTICE_LIMIT,
        max_health_records: int = 10_000,
    ):
        if not damping_schedule:
            raise ModelError("damping_schedule must not be empty")
        self._primary = _rung(solver) if isinstance(solver, str) else solver
        self.primary_name = getattr(self._primary, "__name__", "custom")
        self._primary_keywords = solver_keywords(self._primary)
        self.damping_schedule = tuple(float(d) for d in damping_schedule)
        self.escalation = tuple(
            DEFAULT_ESCALATION if escalation is None else escalation
        )
        for name in self.escalation:
            _rung(name)  # a typo fails here, not at the first escalation
        base = control if control is not None else IterationControl()
        if not base.raise_on_failure:
            # The ladder must *see* convergence failures to act on them.
            from dataclasses import replace

            base = replace(base, raise_on_failure=True)
        self._control = base
        self.exact_lattice_limit = exact_lattice_limit
        self.max_health_records = max_health_records
        self.health_log: List[SolveHealth] = []

    # ------------------------------------------------------------------
    @property
    def last_health(self) -> Optional[SolveHealth]:
        """Health record of the most recent solve (None before any)."""
        return self.health_log[-1] if self.health_log else None

    def health_statistics(self) -> Dict[str, float]:
        """Aggregate retry/escalation statistics over :attr:`health_log`."""
        total = len(self.health_log)
        if total == 0:
            return {
                "solves": 0,
                "retried": 0,
                "escalated": 0,
                "failed": 0,
                "retry_rate": 0.0,
                "escalation_rate": 0.0,
            }
        retried = sum(1 for h in self.health_log if h.retries > 0)
        escalated = sum(1 for h in self.health_log if h.escalated)
        failed = sum(1 for h in self.health_log if not h.succeeded)
        return {
            "solves": total,
            "retried": retried,
            "escalated": escalated,
            "failed": failed,
            "retry_rate": retried / total,
            "escalation_rate": escalated / total,
        }

    # ------------------------------------------------------------------
    def _record(self, health: SolveHealth) -> None:
        self.health_log.append(health)
        if len(self.health_log) > self.max_health_records:
            del self.health_log[: -self.max_health_records]

    def _attempt(
        self,
        health: SolveHealth,
        name: str,
        solver: Solver,
        keywords: frozenset,
        network: ClosedNetwork,
        damping: float,
        reuse: Dict[str, object],
    ) -> Optional[NetworkSolution]:
        """Run one rung; record the outcome; return the solution if healthy.

        The rung gets the damped control and the ``reuse`` accelerators,
        each only if its ``keywords`` name it.
        """
        started = time.perf_counter()
        iterations = 0
        kwargs = {k: v for k, v in reuse.items() if k in keywords}
        if "control" in keywords:
            kwargs["control"] = self._control.damped(damping)
        try:
            # Non-converged iterates must surface as ConvergenceError here,
            # not as a ConvergenceWarning the ladder cannot catch.
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", ConvergenceWarning)
                solution = solver(network, **kwargs)
            iterations = solution.iterations
        except SolverError as exc:
            health.record(
                SolveAttempt(
                    solver=name,
                    damping=damping,
                    outcome=AttemptOutcome.ERROR,
                    detail=f"{type(exc).__name__}: {exc}",
                    iterations=getattr(exc, "iterations", 0),
                    duration=time.perf_counter() - started,
                )
            )
            return None
        verdict = _judge(solution)
        if verdict is not None:
            outcome, detail = verdict
            health.record(
                SolveAttempt(
                    solver=name,
                    damping=damping,
                    outcome=outcome,
                    detail=detail,
                    iterations=iterations,
                    duration=time.perf_counter() - started,
                )
            )
            return None
        health.record(
            SolveAttempt(
                solver=name,
                damping=damping,
                outcome=AttemptOutcome.OK,
                iterations=iterations,
                duration=time.perf_counter() - started,
            )
        )
        return solution

    def __call__(
        self,
        network: ClosedNetwork,
        warm_start: Optional[np.ndarray] = None,
        lattice_cache=None,
    ) -> NetworkSolution:
        """Solve ``network``, climbing the ladder until a rung holds.

        ``warm_start`` (a queue-length seed, see
        :mod:`repro.mva.warmstart`) is forwarded to every rung whose
        solver iterates from a seed; ``lattice_cache`` to the exact-MVA
        rung.  Both are pure accelerators — rung outcomes and the ladder's
        escalation decisions are judged on the same convergence criteria
        either way.

        Raises
        ------
        LadderExhaustedError
            When every rung failed; ``.health`` carries the full record.
        """

        reuse = {
            key: value
            for key, value in (("warm_start", warm_start), ("lattice_cache", lattice_cache))
            if value is not None
        }
        health = SolveHealth(
            windows=tuple(int(p) for p in network.populations)
        )
        self._record(health)

        # The primary backend under the damping schedule.  A backend that
        # cannot be damped gets exactly one retry (transient faults), not
        # the whole schedule.
        keywords = self._primary_keywords
        if "control" in keywords:
            primary_dampings: Tuple[float, ...] = self.damping_schedule
        else:
            primary_dampings = (1.0,) * min(2, len(self.damping_schedule))
        for damping in primary_dampings:
            solution = self._attempt(
                health, self.primary_name, self._primary, keywords, network,
                damping, reuse,
            )
            if solution is not None:
                return solution

        # Escalation rungs — switch algorithms.
        for name in self.escalation:
            if name == self.primary_name:
                continue
            if name == "mva-exact":
                reason = exact_applicability(network, self.exact_lattice_limit)
                if reason is not None:
                    health.record(
                        SolveAttempt(
                            solver=name,
                            damping=1.0,
                            outcome=AttemptOutcome.SKIPPED,
                            detail=reason,
                        )
                    )
                    continue
            solver = SOLVERS[name]
            keywords = solver_keywords(solver)
            # Escalation backends start damped: an undamped retry of a
            # *different* AMVA on a network that already defeated one
            # undamped iteration is the least promising rung to spend on.
            damping = self.damping_schedule[-1] if "control" in keywords else 1.0
            solution = self._attempt(
                health, name, solver, keywords, network, damping, reuse
            )
            if solution is not None:
                return solution

        raise LadderExhaustedError(
            "resilient solve failed on every rung:\n" + health.summary(),
            health=health,
        )


def solve_resilient(
    network: ClosedNetwork,
    solver: Union[str, Solver] = "mva-heuristic",
    warm_start: Optional[np.ndarray] = None,
    lattice_cache=None,
    **kwargs: object,
) -> NetworkSolution:
    """One-shot functional form of :class:`ResilientSolver`.

    ``warm_start`` / ``lattice_cache`` are call-time reuse accelerators
    (forwarded to the solve); everything else configures the ladder.
    """
    return ResilientSolver(solver, **kwargs)(
        network, warm_start=warm_start, lattice_cache=lattice_cache
    )
