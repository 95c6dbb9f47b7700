"""The lazy-export contract every package ``__init__`` keeps: a name in
``__all__`` is the object its defining module holds, ``dir()`` and
``import *`` see every name before any loads, and a misspelled name
fails as an attribute error of that package."""

import importlib

import pytest

from tests.test_import_layers import modules_after

PACKAGES = [
    "repro", "repro.analysis", "repro.checkpoint", "repro.compiler",
    "repro.faults", "repro.graph", "repro.machine", "repro.serve",
    "repro.sim", "repro.val", "repro.workloads",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_every_name_is_its_defining_modules_object(name):
    pkg = importlib.import_module(name)
    table = pkg.__getattr__.exports
    for export in pkg.__all__:
        value = getattr(pkg, export)
        if export in table:
            module = importlib.import_module(table[export], name)
            assert value is getattr(module, export), export
        else:       # bound by the package itself
            assert export in vars(pkg), export


@pytest.mark.parametrize("name", PACKAGES)
def test_dir_and_star_import_see_every_name(name):
    pkg = importlib.import_module(name)
    assert set(pkg.__all__) <= set(dir(pkg))
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(pkg.__all__) <= namespace.keys()


@pytest.mark.parametrize("name", PACKAGES)
def test_a_misspelled_name_is_an_attribute_error_of_the_package(name):
    pkg = importlib.import_module(name)
    with pytest.raises(AttributeError, match=f"module '{name}' has no "
                       "attribute 'no_such_name'"):
        pkg.no_such_name


def test_a_name_that_is_also_a_submodule_stays_the_function():
    """``repro.graph.validate`` and ``repro.machine.diagnose`` are both a
    submodule and the function of that name; importing the submodule
    first must not rebind the package attribute to the module."""
    loaded = modules_after("""
import repro.graph.validate, repro.machine.diagnose
import sys
import repro.graph, repro.machine
for pkg, name in ((repro.graph, "validate"), (repro.machine, "diagnose")):
    value = getattr(pkg, name)
    assert callable(value), value
    assert value is getattr(sys.modules[pkg.__name__ + "." + name], name)
""")
    assert "repro.graph.validate" in loaded
