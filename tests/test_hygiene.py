"""Static hygiene of the package, with the standard library's ``ast``: no
module imports a name it never uses, and every exported name resolves."""

import ast
import importlib
from pathlib import Path

import pytest

import mvdlm

MODULES = sorted(Path(mvdlm.__file__).parent.glob("*.py"))


def _exported(tree):
    """Names listed in a module-level ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(set(imported) - used - _exported(tree))
    assert not unused, [f"{path.name}:{imported[name]} {name}" for name in unused]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_exported_names_resolve(path):
    module = importlib.import_module(f"mvdlm.{path.stem}" if path.stem != "__init__" else "mvdlm")
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing
