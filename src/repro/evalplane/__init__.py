"""Unified evaluation plane: one interface over every execution path.

See :mod:`repro.evalplane.plane` for the contract.  :func:`build_plane`
is the one way to pick a plane: the persistent worker fleet for a
parallel objective, the serial plane otherwise.  The conformance suite
in ``tests/evalplane/`` builds both through it and certifies the
persistent plane against the serial reference.
"""

from repro.evalplane.plane import EvaluationPlane, build_plane
from repro.evalplane.result import EvalResult

__all__ = [
    "EvaluationPlane",
    "EvalResult",
    "build_plane",
]
