"""Lazy package exports (PEP 562).

Each package ``__init__`` declares one literal map from a public name to
the module that defines it, and hands it to :func:`lazy_exports`::

    _EXPORTS = {"solve_jackson": "repro.exact.jackson", ...}
    __all__ = list(_EXPORTS)
    __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS, globals())

A name's module is imported the first time the name is read, and the
value is then cached in the package's globals, so later reads are plain
attribute lookups.  ``import repro`` therefore compiles only what a
program actually touches: the quickstart never loads the simulator, the
exact solvers or the verification oracle.

A package must bind eagerly any export that shares its name with one of
the package's own submodules (``repro.core.windim``, ``repro.exact.buzen``).
Importing that submodule makes the import system set the package
attribute to the *module*; a lazily cached function would be overwritten,
and ``__getattr__`` is never consulted for a name already bound.
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, List, Tuple


def lazy_exports(
    package: str, exports: Dict[str, str], namespace: dict
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """Return a package's ``__getattr__`` and ``__dir__`` for ``exports``.

    ``exports`` maps each public name to the module that defines it;
    ``namespace`` is the package's ``globals()``, where each resolved name
    is cached.
    """

    def __getattr__(name: str) -> object:
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
