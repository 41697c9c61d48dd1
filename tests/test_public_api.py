"""The public API surface: every package's ``__all__`` importable, in any
import order, and the README quickstart working verbatim."""

import importlib
import pkgutil

import pytest

import repro
from tests.test_import_cost import run_fresh

#: ``repro`` and every subpackage that declares an ``__all__``.
PACKAGES = ["repro"] + [
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg and hasattr(importlib.import_module(info.name), "__all__")
]

#: The two exports named like a submodule of their own package, and
#: ``repro.windim``, the same function re-exported.
SHADOWED = ("repro.windim", "repro.core.windim", "repro.exact.buzen")

_EVERY_SUBMODULE_FIRST = """
import importlib, json, pkgutil
import repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(info.name)
print(json.dumps([
    type(eval(path, {"repro": repro})).__name__ for path in %r
]))
""" % (SHADOWED,)


class TestPublicSurface:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version_string(self):
        assert repro.__version__.count(".") == 2

    def test_quickstart(self):
        network = repro.canadian_two_class(s1=18.0, s2=18.0)
        result = repro.windim(network)
        assert result.power > 0
        assert "WINDIM" in result.summary()

    def test_error_hierarchy(self):
        assert issubclass(repro.ModelError, repro.ReproError)
        assert issubclass(repro.SolverError, repro.ReproError)
        assert issubclass(repro.ConvergenceError, repro.SolverError)
        assert issubclass(repro.StabilityError, repro.SolverError)
        assert issubclass(repro.SearchError, repro.ReproError)
        assert issubclass(repro.SimulationError, repro.ReproError)


@pytest.mark.parametrize("package", PACKAGES)
class TestPackageExports:
    def test_names_are_their_defining_modules_objects(self, package):
        module = importlib.import_module(package)
        for name in module.__all__:
            defining = importlib.import_module(module._EXPORTS[name])
            assert getattr(module, name) is getattr(defining, name), name

    def test_dir_lists_every_name(self, package):
        module = importlib.import_module(package)
        assert set(module.__all__) <= set(dir(module))

    def test_star_import(self, package):
        namespace = {}
        exec(f"from {package} import *", namespace)
        namespace.pop("__builtins__")
        assert set(namespace) == set(importlib.import_module(package).__all__)

    def test_unknown_name_is_an_attribute_error(self, package):
        with pytest.raises(AttributeError, match="no_such_name"):
            getattr(importlib.import_module(package), "no_such_name")


def test_shadowed_exports_stay_functions_in_any_import_order():
    """``windim`` and ``buzen`` are also submodule names: after every
    submodule is imported, the package attributes are still functions."""
    assert run_fresh(_EVERY_SUBMODULE_FIRST) == ["function"] * len(SHADOWED)
