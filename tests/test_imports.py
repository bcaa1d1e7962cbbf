"""The library and its CLI import numpy only: scipy is a test dependency.  And
the library holds no public name that nothing in it calls."""

import ast
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import starsections

PACKAGE = Path(starsections.__file__).resolve().parent

RUN_CLI = """
import json, sys
from starsections.cli import main
code = main(sys.argv[1:])
print(json.dumps(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))))
sys.exit(code)
"""


@pytest.mark.parametrize("argv", [
    ["functional", "--space", "s+:3", "--body", "ball:r=0.7"],
    ["functional", "--space", "e:3", "--body", "ball:r=1.2", "--measure", "gaussian"],
    ["verify", "--theorem", "lune-max"],
])
def test_cli_runs_without_scipy(argv):
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    proc = subprocess.run([sys.executable, "-c", RUN_CLI, *argv], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []


def import_time_statements(node):
    """The statements of a module that run when it is imported: everything
    but the bodies of functions."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from import_time_statements(child)


def scipy_imports(nodes):
    """The scipy modules that the import statements among nodes name."""
    for node in nodes:
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        yield from (name for name in names if name == "scipy" or name.startswith("scipy."))


def test_no_module_level_scipy_import():
    for path in sorted(PACKAGE.glob("*.py")):
        assert not list(scipy_imports(import_time_statements(ast.parse(path.read_text())))), path.name


def test_no_scipy_import_anywhere():
    # not even inside a function: no library path needs scipy
    for path in sorted(PACKAGE.glob("*.py")):
        assert not list(scipy_imports(ast.walk(ast.parse(path.read_text())))), path.name


def random_references(tree):
    """The lines that name np.random or numpy.random, or import a random module."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "random"
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and "random" in (node.module or "").split("."):
            yield node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                "random" in alias.name.split(".") for alias in node.names):
            yield node.lineno


def test_random_draws_only_in_verify():
    # random bodies, the suites and the shape search draw from np.random; any
    # other module decides each property of a body from its data, never by
    # sampling it
    assert list(random_references(ast.parse("import numpy as np\nnp.random.default_rng(0)"))) == [2]
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "verify.py":
            assert list(random_references(ast.parse(path.read_text()))) == [], path.name


# The public names that nothing in src/ calls, each with the reason it stays.
UNCALLED_PUBLIC_NAMES = {
    "radon_quadrature": "the quadrature side of the Funk-Hecke eigenvalue check (acceptance 11)",
    "eval_zonal": "evaluates the zonal harmonics of the Funk-Hecke eigenvalue check",
    "make_vanishing_body": "the vanishing bodies of the benchmark and the acceptance tests",
    "rhs_bound": "one theorem's right side at one body; the suites take the volume from "
                 "volume_and_functional instead",
}


def referenced_names(tree):
    """Every name that a load, an attribute or an import in tree refers to."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_public_name_has_a_caller():
    # a public function or class of a module is used in src/ outside its own
    # definition and __init__.py, or it is on the allowlist; an allowlisted
    # name that gains a caller or is deleted leaves the list too
    trees = [ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "__init__.py"]
    uses = Counter(name for tree in trees for name in referenced_names(tree))
    uncalled = {node.name for tree in trees for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
                and uses[node.name] == Counter(referenced_names(node))[node.name]}
    assert uncalled == set(UNCALLED_PUBLIC_NAMES)


PATH_NAMES = {"arcs", "indicator", "plane", "zonal", "product"}


def docstrings(tree):
    """The docstring nodes of a module and of its classes and functions."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.body and isinstance(node.body[0], ast.Expr) \
                and isinstance(node.body[0].value, ast.Constant) \
                and isinstance(node.body[0].value.value, str):
            yield node.body[0].value


def test_paths_are_chosen_in_one_place():
    # _path returns a path object, and each path's class holds what differs;
    # a path's name as a string in functionals.py is a second place that
    # chooses a path
    tree = ast.parse((PACKAGE / "functionals.py").read_text())
    skip = {id(node) for node in docstrings(tree)}
    names = [(node.lineno, node.value) for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and id(node) not in skip and node.value in PATH_NAMES]
    assert names == []
