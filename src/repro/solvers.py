"""The named solvers: one table from a solver's name to its function.

WINDIM evaluates ``F = 1/P`` (thesis Ch. 4) through a solver picked by
name: the §4.2 heuristic, Schweitzer, Linearizer, exact MVA, convolution,
the CLT/asymptotic limit or the escalation ladder.  :data:`SOLVERS` is
the one place those names are declared.  The objective, the CLI, the
worker pool, the ladder's rungs and the verification oracle all read it.

Each entry is a :class:`NamedSolver`, a small picklable callable.  On
every call it looks its function up by module attribute, so a wrapper
installed on that attribute later (a tracer, a test's monkeypatch) is
the one that runs.  It passes on only the keywords that function
accepts: convolution, for one, never sees ``warm_start=``.

:func:`solver_keywords` says which of :data:`KEYWORDS` a solver takes,
for named solvers and custom callables alike.  It reads a signature once
per function, never per call.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from typing import Callable, Dict, Optional, Tuple

from repro.errors import ModelError

__all__ = [
    "KEYWORDS",
    "NamedSolver",
    "SOLVERS",
    "resolve_solver",
    "solver_keywords",
    "solver_name",
]

#: The optional keywords a caller may offer a solver: the damping policy
#: (:class:`~repro.mva.convergence.IterationControl`) and the two reuse
#: accelerators (:mod:`repro.mva.warmstart`, :mod:`repro.exact.lattice_cache`).
KEYWORDS = frozenset({"control", "warm_start", "lattice_cache"})


def _accepted(function: Callable) -> Optional[frozenset]:
    """Keyword names ``function`` accepts; None when ``**kwargs`` takes any."""
    try:
        parameters = inspect.signature(function).parameters.values()
    except (TypeError, ValueError):
        return frozenset()
    if any(p.kind is p.VAR_KEYWORD for p in parameters):
        return None
    return frozenset(
        p.name for p in parameters if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)
    )


class NamedSolver:
    """The solver ``name``: ``module.function``, looked up on each call."""

    def __init__(self, name: str, module: str, function: str) -> None:
        self.__name__ = name
        self.module = module
        self.function = function
        # The function last found and the keywords it accepts, as one
        # tuple so that a concurrent call never pairs one with the other's.
        self._bound: Tuple[Optional[Callable], Optional[frozenset]] = (None, None)

    def _lookup(self) -> Tuple[Callable, Optional[frozenset]]:
        """The function now at ``module.function`` and its accepted keywords."""
        module = sys.modules.get(self.module) or importlib.import_module(self.module)
        function = getattr(module, self.function)
        bound = self._bound
        if bound[0] is not function:
            bound = self._bound = (function, _accepted(function))
        return bound

    def __call__(self, network, **kwargs):
        function, accepted = self._lookup()
        if accepted is not None:
            kwargs = {k: v for k, v in kwargs.items() if k in accepted}
        return function(network, **kwargs)

    def __reduce__(self):
        return (NamedSolver, (self.__name__, self.module, self.function))

    def __repr__(self) -> str:
        return f"NamedSolver({self.__name__!r}, {self.module}.{self.function})"


#: Named solvers accepted by :func:`resolve_solver`, the CLI and the
#: ladder (every name but ``"resilient"`` is a ladder rung).
SOLVERS: Dict[str, NamedSolver] = {
    name: NamedSolver(name, module, function)
    for name, module, function in (
        ("mva-heuristic", "repro.mva.heuristic", "solve_mva_heuristic"),
        ("mva-exact", "repro.exact.mva_exact", "solve_mva_exact"),
        ("convolution", "repro.exact.convolution", "solve_convolution"),
        ("schweitzer", "repro.mva.schweitzer", "solve_schweitzer"),
        ("linearizer", "repro.mva.linearizer", "solve_linearizer"),
        ("asymptotic", "repro.mva.asymptotic", "solve_asymptotic"),
        ("resilient", "repro.resilience.ladder", "solve_resilient"),
    )
}


def resolve_solver(solver: "str | Callable") -> Callable:
    """Map a solver name (or pass through a callable) to a solver."""
    if callable(solver):
        return solver
    try:
        return SOLVERS[solver]
    except KeyError:
        raise ModelError(
            f"unknown solver {solver!r}; expected one of {sorted(SOLVERS)} "
            "or a callable"
        ) from None


def solver_name(solver: "str | Callable") -> Optional[str]:
    """The :data:`SOLVERS` name of ``solver``, or None for a custom callable.

    A name is its own; a :class:`NamedSolver` standing for an entry's
    function (the entry itself, or a copy unpickled from it) has the
    entry's name.
    """
    if isinstance(solver, str):
        return solver
    if isinstance(solver, NamedSolver):
        entry = SOLVERS.get(solver.__name__)
        if entry is not None and (entry.module, entry.function) == (
            solver.module,
            solver.function,
        ):
            return solver.__name__
    return None


def solver_keywords(solver: Callable) -> frozenset:
    """Which of :data:`KEYWORDS` ``solver`` takes, read from its signature.

    A named solver answers for the function its name stands for; a
    ``**kwargs`` catch-all takes them all.
    """
    if isinstance(solver, NamedSolver):
        accepted = solver._lookup()[1]
    else:
        accepted = _accepted(solver)
    return KEYWORDS if accepted is None else accepted & KEYWORDS
