"""Every exported name resolves: `__all__` lists and the package re-exports."""

import importlib
import pkgutil

import pytest

import veilstream

SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(veilstream.__path__))


@pytest.mark.parametrize("name", SUBMODULES)
def test_module_all_names_resolve(name):
    module = importlib.import_module(f"veilstream.{name}")
    exported = module.__all__
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"veilstream.{name}.__all__ names missing objects: {missing}"


def test_package_reexports_are_declared_by_their_modules():
    declared = {}
    for name in SUBMODULES:
        for n in importlib.import_module(f"veilstream.{name}").__all__:
            declared.setdefault(n, []).append(name)
    public = [
        n
        for n, value in vars(veilstream).items()
        if not n.startswith("_") and n not in SUBMODULES
    ]
    assert public
    undeclared = [n for n in public if n not in declared]
    assert not undeclared, f"package re-exports names no __all__ declares: {undeclared}"
