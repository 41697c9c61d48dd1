"""Unified evaluation plane: one interface over every execution path.

See :mod:`repro.evalplane.plane` for the contract.  :func:`build_plane`
is the one way to pick a plane: the persistent worker fleet for a
parallel objective, the serial plane otherwise.  The conformance suite
in ``tests/evalplane/`` builds both through it and certifies the
persistent plane against the serial reference.
"""

from repro._exports import lazy_exports

_EXPORTS = {
    "EvaluationPlane": "repro.evalplane.plane",
    "EvalResult": "repro.evalplane.result",
    "build_plane": "repro.evalplane.plane",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS, globals())
