"""Exception hierarchy for the :mod:`repro` package.

Every error raised intentionally by this library derives from
:class:`ReproError`, so callers can catch one base class.  The subclasses
distinguish the three broad failure domains: model construction, numerical
solution, and optimisation.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ModelError(ReproError):
    """An invalid queueing-network or topology specification.

    Raised during model construction/validation, e.g. a chain routed over a
    non-existent station, a non-positive service time, or an empty route.
    """


class SolverError(ReproError):
    """A numerical solution failed (divergence, instability, overflow)."""


class ConvergenceError(SolverError):
    """An iterative solver exhausted its iteration budget before converging.

    Attributes
    ----------
    iterations:
        Number of iterations performed before giving up.
    residual:
        Final residual (solver-specific norm) when iteration stopped.
    """

    def __init__(self, message: str, iterations: int = 0, residual: float = float("nan")):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


class StabilityError(SolverError):
    """An open (sub)network is unstable: some station has utilisation >= 1."""


class LadderExhaustedError(SolverError):
    """Every rung of a resilient escalation ladder failed.

    Attributes
    ----------
    health:
        The :class:`repro.resilience.health.SolveHealth` record describing
        every attempt that was made, for post-mortem inspection.
    """

    def __init__(self, message: str, health: object = None):
        super().__init__(message)
        self.health = health


class ConvergenceWarning(RuntimeWarning):
    """An iterative solver stopped at its budget and returned the last iterate.

    Emitted (via :mod:`warnings`) when ``IterationControl.raise_on_failure``
    is False, so a non-converged result is never silently indistinguishable
    from a converged one.
    """


class SearchError(ReproError):
    """An optimisation run was mis-specified or failed."""


class PoolFailure(SearchError):
    """A worker pool is broken beyond its retry budget.

    Raised by :class:`repro.parallel.pool.PersistentEvalPool` when the
    respawn budget is exhausted (respawn storms, watchdog kill loops).
    The persistent evaluation plane catches it and steps down its ladder
    (persistent → serial) instead of failing the run.
    """


class SimulationError(ReproError):
    """A discrete-event simulation was mis-specified or reached a bad state."""
