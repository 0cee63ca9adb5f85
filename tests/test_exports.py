"""Every exported name resolves (`__all__` lists and the package
re-exports), and every module-level import of a module is used."""

import ast
import importlib
import pkgutil
from pathlib import Path

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


def _annotation_names(node: ast.AST):
    """Names read by an annotation, inside string annotations too."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            yield from _annotation_names(ast.parse(sub.value, mode="eval"))


def _used_names(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used.update(_annotation_names(node.annotation))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used.update(_annotation_names(node.returns))
        elif isinstance(node, ast.AnnAssign):
            used.update(_annotation_names(node.annotation))
    return used


@pytest.mark.parametrize("name", SUBMODULES)
def test_module_level_imports_are_used(name):
    path = Path(veilstream.__file__).parent / f"{name}.py"
    tree = ast.parse(path.read_text())
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    unused = sorted(set(bound) - _used_names(tree))
    assert not unused, f"veilstream.{name} imports names it never uses: {unused}"
