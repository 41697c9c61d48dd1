"""Solver kernel backend selection.

Every MVA-family solver in :mod:`repro.mva` and :mod:`repro.exact` ships
interchangeable kernel implementations:

``"scalar"``
    The reference implementation: per-chain Python loops over dense
    ``(R, L)`` state, mirroring the thesis recurrences line by line.
    Kept verbatim so the fast paths always have an executable
    specification to be diffed against (the parity test wall pins
    agreement to ≤ 1e-8 relative error).
``"vectorized"``
    Batched NumPy kernels that replace the per-chain loops with array
    operations.  The heuristic and Schweitzer fixed points carry their
    state route-compacted and slot-major — one column per chain, one row
    per station on its route (:mod:`repro.mva.layout`) — so a sweep costs
    the routes' total length rather than chains × stations, and the same
    code solves one network or a pack of many bit-identically
    (:mod:`repro.mva.soa`).  Route sums run slot by slot where the
    scalar loops sum pairwise over all stations, so the two agree to
    rounding rather than bit for bit.

The process-wide default is ``"vectorized"``; it can be overridden per
call (every solver takes a ``backend=`` keyword), per process via the
``REPRO_SOLVER_BACKEND`` environment variable, or from the CLI via
``--solver-backend``.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.errors import ModelError

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "default_backend",
    "resolve_backend",
]

#: The recognised kernel backends.
BACKENDS = ("scalar", "vectorized")

#: Library-wide default when neither the call site nor the environment
#: chooses one.
DEFAULT_BACKEND = "vectorized"

#: Environment variable consulted by :func:`default_backend`.
BACKEND_ENV_VAR = "REPRO_SOLVER_BACKEND"


def default_backend() -> str:
    """The backend used when a solver is called with ``backend=None``.

    ``REPRO_SOLVER_BACKEND`` overrides the library default (useful for
    running an entire test suite or CI job against one kernel family
    without touching call sites).
    """
    chosen = os.environ.get(BACKEND_ENV_VAR, "").strip()
    if not chosen:
        return DEFAULT_BACKEND
    if chosen not in BACKENDS:
        raise ModelError(
            f"{BACKEND_ENV_VAR}={chosen!r} is not a valid backend; "
            f"expected one of {BACKENDS}"
        )
    return chosen


def resolve_backend(backend: Optional[str]) -> str:
    """Validate an explicit backend choice (None = process default)."""
    if backend is None:
        return default_backend()
    if backend not in BACKENDS:
        raise ModelError(
            f"unknown solver backend {backend!r}; expected one of {BACKENDS}"
        )
    return backend

