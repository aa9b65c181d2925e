"""Helpers that no command and no benchmark op reached stay out of the
package: the tests keep their own references in ``helpers`` instead
(``tests/reach.py`` lists what the commands and ops leave unreached)."""

import importlib
import pkgutil

import pytest

import zakfiber
from zakfiber.action import QuasiInvariantAction, WeightedSpace
from zakfiber.group import FiniteAbelianGroup, Subgroup
from zakfiber.ranges import GeneratorSystem

# module-level names, and the methods by their class (by its name when
# the class itself is gone)
FUNCTIONS = ["character_table", "idft", "project", "zak_point",
             "FiberedVector"]
METHODS = [
    (FiniteAbelianGroup, "add"), (FiniteAbelianGroup, "sub"),
    (FiniteAbelianGroup, "neg"), (Subgroup, "__contains__"),
    (QuasiInvariantAction, "sigma"), (QuasiInvariantAction, "jacobian"),
    (QuasiInvariantAction, "jacobian_row"), (QuasiInvariantAction, "apply"),
    (WeightedSpace, "norm_sq"), (WeightedSpace, "inner"),
    ("FiberedVector", "inner"), ("FiberedVector", "n_points"),
    (GeneratorSystem, "fibered"),
]
MODULES = [zakfiber] + [importlib.import_module(f"zakfiber.{m.name}")
                        for m in pkgutil.iter_modules(zakfiber.__path__)]


@pytest.mark.parametrize("name", FUNCTIONS)
def test_removed_function_is_in_no_module(name):
    for module in MODULES:
        assert not hasattr(module, name), module.__name__
        assert name not in getattr(module, "__all__", []), module.__name__


@pytest.mark.parametrize("cls, name", METHODS,
                         ids=[f"{getattr(c, '__name__', c)}.{n}"
                              for c, n in METHODS])
def test_removed_method_is_gone(cls, name):
    if isinstance(cls, str):
        cls = next((getattr(m, cls) for m in MODULES if hasattr(m, cls)),
                   None)
    assert not hasattr(cls, name)
