"""Static hygiene of the package, with the standard library's ``ast``: no
module imports a name it never uses, every exported name resolves and a
submodule exports only its own names, every module-level function or class
has a reader, every setting a configuration parses is read and every raise
names a library error, and no module calls numpy's general ``solve`` or
``inv``. Also the import weight of the CLI and of the commands that need no
scipy, the scalar gamma draws and the LAPACK calls of the samplers, the one
factor call per block of the scale stack, and the README's package list,
schema example and command-line section against the code."""

import argparse
import ast
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mvdlm
from mvdlm import ModelSpec, Priors, cli, config, errors
from mvdlm.data import write_observations_csv
from mvdlm.distributions import (SingularBetaParams, evolve_precision, singular_beta_sample,
                                 wishart_sample)
from mvdlm.simulate import simulate

MODULES = sorted(Path(mvdlm.__file__).parent.glob("*.py"))
README = Path(__file__).parents[1] / "README.md"


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


def test_submodule_exports_are_defined_in_the_module():
    """A submodule's ``__all__`` lists only names that the module itself
    defines at module level. Re-exporting is the package root's job."""
    foreign = []
    for path in MODULES:
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        defined = {node.name for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        defined |= {target.id for node in tree.body if isinstance(node, ast.Assign)
                    for target in node.targets if isinstance(target, ast.Name)}
        foreign += [f"{path.stem}.{name}" for name in sorted(_exported(tree) - defined)]
    assert not foreign, foreign


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


def test_every_raise_names_a_library_error():
    """Every ``raise X(...)`` (or ``raise X``) in the package names a class of
    ``mvdlm.errors``, so a caller catches every failure of the package as an
    ``MvdlmError``; a bare ``raise`` re-raises and passes."""
    typed = {name for name, value in vars(errors).items()
             if isinstance(value, type) and issubclass(value, errors.MvdlmError)}
    untyped = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if not (isinstance(exc, ast.Name) and exc.id in typed):
                    untyped.append(f"{path.name}:{node.lineno}")
    assert not untyped, untyped


def test_no_general_solve_or_inverse():
    """No module calls numpy's ``linalg.solve`` or ``linalg.inv`` (LU with pivoting):
    every solve in the package runs against a triangular factor it already holds."""
    calls = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
                calls += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                          if alias.name in ("solve", "inv")]
            elif (isinstance(node, ast.Attribute) and node.attr in ("solve", "inv")
                  and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"):
                calls.append(f"{path.name}:{node.lineno} linalg.{node.attr}")
    assert not calls, calls


def test_scale_terms_factor_each_block_once(monkeypatch):
    """A volatility pass makes one batched ``cholesky_upper_stack`` call per block
    of steps, of S_start..S_stop: the factor of S_{t-1} that gives q_t comes from the call
    that factors S_t, and a block after the first factors one scale more."""
    from mvdlm import filter as filter_module
    from mvdlm.diagnostics import posterior_loglik
    stack, shapes = filter_module.cholesky_upper_stack, []
    monkeypatch.setattr(filter_module, "BLOCK_BYTES", 2 * 4 * 3 * 3 * 8)  # 4 steps of 2 rows
    monkeypatch.setattr(filter_module, "cholesky_upper_stack",
                        lambda m: shapes.append(m.shape) or stack(m))
    rng, betas = np.random.default_rng(4), [[0.95] * 3, [0.93, 0.95, 0.97]]
    vol = filter_module.volatility_pass(0.01 * rng.standard_normal((10, 3)), 1.0 + rng.random(10),
                                        betas, 1e-4 * np.eye(3), [20.0, 20.0])
    posterior_loglik(vol, [0, 1])
    assert shapes == [(2, 5, 3, 3), (2, 5, 3, 3), (2, 3, 3, 3)]  # steps 1-4, 5-8, 9-10


def _run_python(code):
    """Standard output of ``python -c code`` in a fresh interpreter that
    imports this package."""
    paths = [str(Path(mvdlm.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True)
    return result.stdout.strip()


def test_cli_import_loads_no_heavy_scipy_module():
    """``import mvdlm.cli`` loads none of these scipy subpackages: every
    command would pay their import time and memory (scipy.signal alone took
    the import from 0.30 to 0.65 s and peak RSS from 61 to 103 MB, and
    scipy.special with scipy.linalg about 0.4 s and 30 MB, on a 2-vCPU
    host)."""
    heavy = ("scipy.stats", "scipy.signal", "scipy.optimize", "scipy.interpolate",
             "scipy.linalg", "scipy.special")
    code = f"import sys, mvdlm.cli; print([m for m in {heavy!r} if m in sys.modules])"
    assert _run_python(code) == "[]"


def _module_level_imports(tree):
    """Import statements that run when the module loads: all but those in
    function bodies."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_module_level_scipy_import(path):
    """scipy is imported where it is used, so that importing the package
    loads none of it."""
    scipy_imports = [
        node.lineno for node in _module_level_imports(ast.parse(path.read_text()))
        if any(name.split(".")[0] == "scipy" for name in (
            [alias.name for alias in node.names] if isinstance(node, ast.Import)
            else [node.module or ""]))
    ]
    assert not scipy_imports, [f"{path.name}:{line}" for line in scipy_imports]


def _scipy_after_commands(checked, then=()):
    """Exit codes of ``main`` on each argv of ``checked``, then of ``then``, in one fresh
    interpreter, and which of scipy.linalg and scipy.special the ``checked`` runs loaded."""
    code = (
        "import contextlib, io, json, sys\n"
        "from mvdlm.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main(argv) for argv in {checked!r}]\n"
        "    loaded = [m for m in ('scipy.linalg', 'scipy.special') if m in sys.modules]\n"
        f"    codes += [main(argv) for argv in {then!r}]\n"
        "print(json.dumps([codes, loaded]))\n"
    )
    return json.loads(_run_python(code))


def _write_inputs(tmp_path, **configs):
    """An 80-step return file and one p = 4 config per keyword (its overrides); returns
    a function that gives the path of a file in ``tmp_path``."""
    rng = np.random.default_rng(3)
    write_observations_csv(tmp_path / "y.csv", 0.01 * rng.standard_normal((80, 4)))
    base = {"p": 4, "d": 1, "design": [1.0], "evolution": "identity",
            "state_discounts": 0.95, "vol_discounts": [0.95] * 4,
            "priors": {"m0": 0.0, "P0": 0.01, "S0": 1e-4, "n0": 1.0},
            "data_kind": "returns", "horizon": 30, "seed": 1}
    for name, overrides in configs.items():
        (tmp_path / f"{name}.json").write_text(json.dumps({**base, **overrides}))
    return lambda name: str(tmp_path / name)


def test_commands_on_an_evolving_model_load_no_scipy(tmp_path):
    """``fit``, ``compare`` and ``diagnose`` of an evolving model run on numpy
    and math alone; ``simulate`` (the samplers) loads scipy as it needs it,
    and still succeeds, as do ``var`` and a constant-volatility ``fit`` run
    after it."""
    weights = {"weights": [0.25] * 4}
    path = _write_inputs(tmp_path, a=weights,
                         b={**weights, "vol_discounts": [0.9, 0.97, 0.97, 0.9]},
                         constant={**weights, "vol_discounts": [1.0] * 4})
    common = ["--config", path("a.json")]
    evolving = [
        ["fit", *common, "--data", path("y.csv"), "--out", path("fit")],
        ["compare", *common, "--config2", path("b.json"), "--data", path("y.csv"),
         "--out", path("lbf.csv")],
        ["diagnose", *common, "--traj", path("fit/trajectory.csv"), "--out", path("d.json")],
    ]
    others = [
        ["var", *common, "--data", path("y.csv"), "--out", path("var.json")],
        ["simulate", *common, "--out", path("sim.csv")],
        ["fit", "--config", path("constant.json"), "--data", path("y.csv"),
         "--out", path("constant")],
    ]
    codes, loaded = _scipy_after_commands(evolving, others)
    assert codes == [0] * 6 and loaded == []


def test_commands_on_a_constant_model_load_no_scipy(tmp_path):
    """A constant-volatility (beta = I) ``fit``, the ``diagnose`` of its
    trajectory and a ``grid`` without weights whose betas hold ``[1, 1, 1, 1]``
    run on numpy alone: the beta = I likelihood factors Sigma_N by numpy's
    Cholesky and solves its errors against that factor."""
    grid = {"deltas": [0.9, 0.95], "betas": [[1.0] * 4, [0.95] * 4]}
    path = _write_inputs(tmp_path, constant={"vol_discounts": [1.0] * 4, "grid": grid})
    common = ["--config", path("constant.json")]
    commands = [
        ["fit", *common, "--data", path("y.csv"), "--out", path("fit")],
        ["diagnose", *common, "--traj", path("fit/trajectory.csv"), "--out", path("d.json")],
        ["grid", *common, "--data", path("y.csv"), "--out", path("grid.csv")],
    ]
    codes, loaded = _scipy_after_commands(commands)
    assert codes == [0] * 3 and loaded == []


def test_var_and_a_weighted_grid_load_no_scipy(tmp_path):
    """``var`` and a ``grid`` with weights over an evolving and a beta = I cell take
    their VaR quantiles from ``math`` and ``statistics``, for both families."""
    grid = {"deltas": [0.95], "betas": [[0.95] * 4, [1.0] * 4]}
    path = _write_inputs(tmp_path, t={"weights": [0.25] * 4, "grid": grid},
                         normal={"weights": [0.25] * 4, "grid": grid,
                                 "var": {"family": "normal", "alphas": [1.0, 99.0]}})
    commands = [[command, "--config", path(f"{family}.json"), "--data", path("y.csv"),
                 "--out", path(f"{command}-{family}.{suffix}")]
                for family in ("t", "normal") for command, suffix in (("var", "json"),
                                                                     ("grid", "csv"))]
    codes, loaded = _scipy_after_commands(commands)
    assert codes == [0] * 4 and loaded == []


class GammaCallCounter:
    """A Generator stand-in: every draw goes to a real generator, and the
    ``shape`` of each ``gamma`` call is recorded."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.gamma_shapes = []

    def gamma(self, shape, scale=1.0, size=None):
        self.gamma_shapes.append(shape)
        return self.rng.gamma(shape, scale, size)

    def __getattr__(self, name):
        return getattr(self.rng, name)


def test_samplers_draw_each_gamma_with_a_scalar_shape():
    """The Bartlett diagonal is drawn one scalar ``gamma`` call per entry: an
    array ``shape`` costs about 20 us per call against about 1.3 us per
    scalar call on a 2-vCPU host, and the stream is the same either way."""
    spec = ModelSpec(p=4, d=2, design=[1.0, 0.0], evolution=np.eye(2),
                     state_discounts=[0.95, 0.95], vol_discounts=[0.95, 0.92, 0.92, 0.95])
    priors = Priors(m0=np.zeros((2, 4)), P0=0.01 * np.eye(2), S0=np.eye(4), n0=1.0)
    draws = {
        "wishart_sample": lambda rng: wishart_sample(5.5, np.eye(4), rng),
        "singular_beta_sample": lambda rng: singular_beta_sample(SingularBetaParams(3.0, 4), rng),
        "evolve_precision": lambda rng: evolve_precision(np.eye(4), [0.9] * 4, 10.0, rng),
        "simulate": lambda rng: simulate(spec, priors, 20, rng=rng).volatilities,
    }
    for name, draw in draws.items():
        counter = GammaCallCounter(5)
        assert np.array_equal(draw(counter), draw(np.random.default_rng(5))), name
        assert counter.gamma_shapes, name
        assert all(np.ndim(shape) == 0 for shape in counter.gamma_shapes), name


def test_simulate_factors_no_matrix_per_step(monkeypatch):
    """The LAPACK ``potrf`` calls of one ``simulate`` do not grow with its
    horizon: every per-step factor comes from a stacked numpy Cholesky."""
    from mvdlm import linalg
    spec = ModelSpec(p=4, d=2, design=[1.0, 0.0], evolution=np.eye(2),
                     state_discounts=[0.95, 0.95], vol_discounts=[0.95, 0.92, 0.92, 0.95])
    priors = Priors(m0=np.zeros((2, 4)), P0=0.01 * np.eye(2), S0=np.eye(4), n0=1.0)
    simulate(spec, priors, 1, seed=0)  # the first LAPACK call rebinds linalg.dpotrf
    potrf, counts = linalg.dpotrf, []
    for n_steps in (10, 100):
        calls = []
        monkeypatch.setattr(linalg, "dpotrf", lambda *a, **k: calls.append(1) or potrf(*a, **k))
        simulate(spec, priors, n_steps, seed=0)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_precision_draws_factor_once_and_solve_once(monkeypatch):
    """LAPACK calls of one draw: ``singular_beta_sample`` factors [T u][T u]'
    once and solves for its root once; ``evolve_precision`` adds only the factor
    of the previous precision (no second solve, no factor of its result)."""
    from mvdlm import linalg
    rng, params = np.random.default_rng(0), SingularBetaParams(shape_a=3.0, p=3)
    singular_beta_sample(params, rng)  # the first LAPACK call rebinds linalg's routines
    for draw, expected in ((lambda: singular_beta_sample(params, rng), (1, 1)),
                           (lambda: evolve_precision(np.eye(3), [0.9, 0.9, 0.95], 10.0, rng),
                            (2, 1))):
        calls = []
        for name in ("dpotrf", "dtrtrs"):
            routine = getattr(linalg, name)
            monkeypatch.setattr(linalg, name, lambda *a, name=name, routine=routine, **k:
                                calls.append(name) or routine(*a, **k))
        draw()
        monkeypatch.undo()
        assert (calls.count("dpotrf"), calls.count("dtrtrs")) == expected


def _subcommands():
    """The subcommand parsers of ``cli.build_parser()``, by name."""
    return next(action for action in cli.build_parser()._actions
                if isinstance(action, argparse._SubParsersAction)).choices


def test_every_subcommand_resolves_to_a_module_level_command():
    """``main`` runs ``cmd_<name>`` of ``cli`` for subcommand ``name``, and
    every ``cmd_*`` function of ``cli`` is a subcommand."""
    commands = {name[4:] for name, value in vars(cli).items()
                if name.startswith("cmd_") and callable(value)}
    assert set(_subcommands()) == commands


def _readme_module_bullets():
    """The README's package list: the text of each ``- `mvdlm.<module>` -``
    bullet, its continuation lines included, by module (a bullet may name
    several)."""
    bullets, current = {}, None
    for line in README.read_text().splitlines():
        if line.startswith("- `mvdlm."):
            head, _, body = line[2:].partition(" - ")
            current = [body]
            bullets.update((module, current) for module in re.findall(r"`mvdlm\.(\w+)`", head))
        elif current is not None and line.startswith("  "):
            current.append(line.strip())
        else:
            current = None
    return {module: " ".join(lines) for module, lines in bullets.items()}


def _name_list(bullet):
    """The bullet's name list: its first parenthesized group whose
    comma-separated items are each one backticked name."""
    for group in re.findall(r"\(([^()]*)\)", bullet):
        items = [re.fullmatch(r"`(\w+)`", item.strip()) for item in group.split(",")]
        if all(items):
            return [item[1] for item in items]
    return []


def test_readme_bullets_name_every_exported_function():
    """Every function in ``mvdlm.__all__`` is named in the README bullet of
    the module that defines it."""
    bullets = _readme_module_bullets()
    missing = []
    for name in mvdlm.__all__:
        value = getattr(mvdlm, name)
        module = getattr(value, "__module__", "").rpartition(".")[2]
        if inspect.isfunction(value) and f"`{name}`" not in bullets.get(module, ""):
            missing.append(f"{module}.{name}")
    assert not missing, missing


def test_readme_bullet_name_lists_resolve():
    """Each name in a README bullet's name list resolves in its module, so a
    removed or renamed function cannot stay listed there."""
    unresolved, listed = [], 0
    for module, bullet in _readme_module_bullets().items():
        owner = importlib.import_module(f"mvdlm.{module}")
        names = _name_list(bullet)
        listed += len(names)
        unresolved += [f"{module}.{name}" for name in names if not hasattr(owner, name)]
    assert listed and not unresolved, unresolved


def _readme_command_line():
    """The README's "Command line" section, up to the next section."""
    text = README.read_text()
    start = text.index("\n## Command line\n")
    return text[start:text.index("\n## ", start + 1)]


def test_readme_schema_example_has_the_config_keys():
    """The README's JSON schema example writes exactly the keys of
    ``config.KEYS``, section by section."""
    example = json.loads(_readme_command_line().split("```json\n")[1].split("```")[0])
    for section, keys in config.KEYS.items():
        assert set(example if section is None else example[section]) == keys, section


def test_readme_names_every_command_line_option():
    """Every option of every subcommand is named in the README's "Command
    line" section."""
    named = set(re.findall(r"--[\w-]+", _readme_command_line()))
    missing = sorted(
        f"{name} {option}" for name, parser in _subcommands().items()
        for action in parser._actions if not isinstance(action, argparse._HelpAction)
        for option in action.option_strings if option not in named
    )
    assert not missing, missing


def test_a_command_replaced_after_the_first_call_is_the_one_that_runs(tmp_path, monkeypatch):
    """The parser is built once per process and holds no function objects,
    so a command replaced on the module (as a tracer or a test does) runs."""
    argv = ["var", "--config", str(tmp_path / "absent.json"), "--data", "y.csv",
            "--out", str(tmp_path / "var.json")]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert cli.build_parser() is cli.build_parser()
    seen = []
    monkeypatch.setattr(cli, "cmd_var", lambda args: seen.append(args.out) or 17)
    assert cli.main(argv) == 17 and seen == [argv[-1]]
