"""API quality gates: public items documented, modules importable, exports
resolvable (deliverable (e): doc comments on every public item)."""

import importlib
import inspect
import pkgutil

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.util",
    "repro.symbolic",
    "repro.mesh",
    "repro.fvm",
    "repro.ir",
    "repro.dsl",
    "repro.codegen",
    "repro.codegen.placement",
    "repro.gpu",
    "repro.runtime",
    "repro.bte",
    "repro.perfmodel",
]


def all_modules():
    names = []
    for pkg_name in PACKAGES:
        pkg = importlib.import_module(pkg_name)
        names.append(pkg_name)
        if hasattr(pkg, "__path__"):
            for info in pkgutil.iter_modules(pkg.__path__):
                names.append(f"{pkg_name}.{info.name}")
    return sorted(set(names))


@pytest.mark.parametrize("module_name", all_modules())
def test_module_imports_and_has_docstring(module_name):
    mod = importlib.import_module(module_name)
    assert mod.__doc__ and mod.__doc__.strip(), f"{module_name} lacks a docstring"


@pytest.mark.parametrize("pkg_name", PACKAGES)
def test_dunder_all_entries_resolve(pkg_name):
    pkg = importlib.import_module(pkg_name)
    for name in getattr(pkg, "__all__", []):
        assert hasattr(pkg, name), f"{pkg_name}.__all__ lists missing {name!r}"


@pytest.mark.parametrize("pkg_name", [p for p in PACKAGES if p != "repro"])
def test_public_classes_and_functions_documented(pkg_name):
    pkg = importlib.import_module(pkg_name)
    undocumented = []
    for name in getattr(pkg, "__all__", []):
        obj = getattr(pkg, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            if not (obj.__doc__ and obj.__doc__.strip()):
                undocumented.append(f"{pkg_name}.{name}")
    assert not undocumented, f"undocumented public items: {undocumented}"


def test_version_is_pep440ish():
    parts = repro.__version__.split(".")
    assert len(parts) >= 2
    assert all(p.isdigit() for p in parts[:2])
