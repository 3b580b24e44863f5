"""Static hygiene of the package, with the standard library's ``ast``: no
module imports a name it never uses, every exported name resolves, every
module-level function or class has a reader, and every setting a
configuration parses is read. Also the import weight of the CLI."""

import ast
import importlib
import os
import subprocess
import sys
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


def _referenced(node):
    """Names that ``node`` reads: as a name, an attribute or an import."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.split(".")[-1] for alias in sub.names)
    return names


def test_module_level_definitions_are_read():
    """Every module-level function or class is listed in an ``__all__`` or
    referenced somewhere in the package outside its own definition. A
    helper that only tests call is not part of the program."""
    trees = {path.stem: ast.parse(path.read_text()) for path in MODULES}
    exported = set().union(*(_exported(tree) for tree in trees.values()))
    referenced, defined = set(), []
    for stem, tree in trees.items():
        for node in tree.body:
            names = _referenced(node)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append(f"{stem}.{node.name}")
                names.discard(node.name)
            referenced |= names
    known = referenced | exported
    unread = [name for name in defined if name.split(".")[1] not in known]
    assert not unread, unread


def test_run_config_attributes_are_read():
    """Every attribute RunConfig.__init__ assigns is read: as ``self.<name>``
    in another method of RunConfig, or as ``<config...>.<name>`` in any module.
    A parsed setting that nothing reads is a setting without effect."""
    trees = [ast.parse(path.read_text()) for path in MODULES]
    run_config = next(node for tree in trees for node in ast.walk(tree)
                      if isinstance(node, ast.ClassDef) and node.name == "RunConfig")
    init = next(node for node in run_config.body
                if isinstance(node, ast.FunctionDef) and node.name == "__init__")

    def attributes(root, ctx, owner, skip=()):
        return {
            node.attr for node in ast.walk(root)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ctx)
            and isinstance(node.value, ast.Name) and owner(node.value.id)
            and id(node) not in skip
        }

    assigned = attributes(init, ast.Store, lambda name: name == "self")
    in_init = {id(node) for node in ast.walk(init)}
    loaded = attributes(run_config, ast.Load, lambda name: name == "self", in_init).union(
        *(attributes(tree, ast.Load, lambda name: name.startswith("config")) for tree in trees)
    )
    unread = sorted(assigned - loaded)
    assert assigned and not unread, unread


def test_cli_import_loads_no_heavy_scipy_module():
    """``import mvdlm.cli`` loads none of these scipy subpackages: every
    command would pay their import time and memory (scipy.signal alone took
    the import from 0.30 to 0.65 s and peak RSS from 61 to 103 MB on a
    2-vCPU host)."""
    heavy = ("scipy.stats", "scipy.signal", "scipy.optimize", "scipy.interpolate")
    code = f"import sys, mvdlm.cli; print([m for m in {heavy!r} if m in sys.modules])"
    paths = [str(Path(mvdlm.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    assert result.stdout.strip() == "[]", result.stdout
