"""Registry of evaluation-plane backends.

Every execution path that wants the conformance suite's certification
registers a :class:`PlaneSpec` here: a factory plus the objective
configuration it needs (parallel workers or not).  The suite in
``tests/evalplane/`` parametrises over :func:`plane_names` and builds
each plane through :func:`create_plane`, so a new backend gets the
whole battery — golden parity, seeded fuzz trajectory equivalence, the
serial plane's evaluation counts, budget/resume semantics, fault
injection — by adding one ``register_plane`` call and zero new test
glue.

The built-in factories lazy-import their plane modules (and those
lazy-import the parallel stack), keeping ``import repro.evalplane``
cheap and cycle-free with :mod:`repro.core`.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Tuple

from repro.errors import SearchError

__all__ = [
    "PlaneSpec",
    "register_plane",
    "unregister_plane",
    "plane_names",
    "plane_specs",
    "get_spec",
    "create_plane",
    "temporary_plane",
]


@dataclass(frozen=True)
class PlaneSpec:
    """How to build (and what to feed) one evaluation-plane backend.

    Attributes
    ----------
    name:
        Registry key; also the ``source`` tag on the plane's results.
    factory:
        ``factory(objective, **wiring) -> EvaluationPlane``.
    description:
        One line for ``repro windim planes`` and the docs.
    needs_parallel:
        The objective must be constructed with ``workers > 1`` and a
        *named* solver (pooled planes ship work to processes).
    """

    name: str
    factory: Callable
    description: str
    needs_parallel: bool = False


_REGISTRY: Dict[str, PlaneSpec] = {}


def register_plane(spec: PlaneSpec, replace: bool = False) -> PlaneSpec:
    """Add ``spec`` to the registry (``replace=True`` to overwrite)."""
    if not replace and spec.name in _REGISTRY:
        raise SearchError(f"evaluation plane {spec.name!r} is already registered")
    _REGISTRY[spec.name] = spec
    return spec


def unregister_plane(name: str) -> None:
    """Remove a backend; unknown names are ignored (idempotent)."""
    _REGISTRY.pop(name, None)


def plane_names() -> Tuple[str, ...]:
    """Registered backend names, registration order (builtins first)."""
    return tuple(_REGISTRY)


def plane_specs() -> Tuple[PlaneSpec, ...]:
    """All registered specs, registration order."""
    return tuple(_REGISTRY.values())


def get_spec(name: str) -> PlaneSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise SearchError(
            f"unknown evaluation plane {name!r}; registered: "
            f"{', '.join(_REGISTRY) or '(none)'}"
        ) from None


def create_plane(name: str, objective, **wiring):
    """Instantiate the registered backend ``name`` for ``objective``."""
    return get_spec(name).factory(objective, **wiring)


@contextmanager
def temporary_plane(spec: PlaneSpec) -> Iterator[PlaneSpec]:
    """Register ``spec`` for the duration of a ``with`` block.

    The conformance suite uses this to certify an in-test custom backend
    without leaking it into other tests; a pre-existing spec of the same
    name is restored on exit.
    """
    previous = _REGISTRY.get(spec.name)
    register_plane(spec, replace=True)
    try:
        yield spec
    finally:
        if previous is not None:
            _REGISTRY[spec.name] = previous
        else:
            _REGISTRY.pop(spec.name, None)


# ----------------------------------------------------------------------
# built-in backends
# ----------------------------------------------------------------------
def _serial_factory(objective, **wiring):
    from repro.evalplane.serial import SerialPlane

    return SerialPlane(objective, **wiring)


def _persistent_factory(objective, **wiring):
    from repro.evalplane.persistent import PersistentPlane

    return PersistentPlane(objective, **wiring)


register_plane(
    PlaneSpec(
        name="serial",
        factory=_serial_factory,
        description="in-process evaluation; the reference semantics",
    )
)
register_plane(
    PlaneSpec(
        name="persistent",
        factory=_persistent_factory,
        description=(
            "persistent shared-memory worker fleet; one demanded point "
            "at a time, batches fanned out"
        ),
        needs_parallel=True,
    )
)
