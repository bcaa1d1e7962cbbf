"""The library and its CLI import numpy only: scipy is a test dependency.  And
the library holds no public name, method or field that nothing in it uses."""

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
    "make_vanishing_body": "the vanishing bodies of the benchmark and the acceptance tests",
    "striped_cap_subset": "the strips A alone, the half that a striped cone's base keeps; "
                          "the tests and the output dump check them on their own",
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


def library_trees():
    """The parsed modules of the library, but for __init__.py."""
    return [ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))
            if path.name != "__init__.py"]


def test_every_public_name_has_a_caller():
    # a public function or class of a module is used in src/ outside its own
    # definition and __init__.py, or it is on the allowlist; an allowlisted
    # name that gains a caller or is deleted leaves the list too
    trees = library_trees()
    uses = Counter(name for tree in trees for name in referenced_names(tree))
    uncalled = {node.name for tree in trees for node in tree.body
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
                and uses[node.name] == Counter(referenced_names(node))[node.name]}
    assert uncalled == set(UNCALLED_PUBLIC_NAMES)


# The public members of library classes that nothing in src/ loads, each with
# the reason it stays.
UNLOADED_PUBLIC_MEMBERS = {
    "SearchTrace.best_values": "the best profile the search found, the body a caller builds",
}


MUTATING_METHODS = {"append", "extend", "add", "update", "insert", "pop", "clear", "remove",
                    "setdefault"}


def attribute_loads(tree):
    """How often each attribute name is read in tree.  A load whose only use is
    a call of a mutating method on it, as in ``trace.steps.append(step)``,
    writes the member and is no read."""
    written = {id(node.func.value) for node in ast.walk(tree)
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr in MUTATING_METHODS}
    return Counter(node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                   and id(node) not in written)


def unloaded_members(trees):
    """Class.member for each public method or annotated field of a class in
    trees whose name no attribute read in trees names, but within its own
    definition.  A class that reads its fields through ``fields`` reads every
    one of them."""
    loads = sum(map(attribute_loads, trees), Counter())
    for tree in trees:
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            generic = "fields" in set(referenced_names(cls))
            for node in cls.body:
                if isinstance(node, ast.FunctionDef):
                    name = node.name
                elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name) \
                        and not generic:
                    name = node.target.id
                else:
                    continue
                if not name.startswith("_") and loads[name] == attribute_loads(node)[name]:
                    yield f"{cls.name}.{name}"


def test_every_public_member_is_loaded():
    # a public method or field of a library class is read in src/ outside its
    # own definition, or it is on the allowlist, which shrinks as the name
    # list's does
    assert list(unloaded_members([ast.parse(
        "class A:\n    x: int\n    y: int\n    def f(self):\n        return self.x\n")])) == ["A.y", "A.f"]
    # a member that is only appended to is written, never read
    assert list(unloaded_members([ast.parse(
        "class A:\n    x: list\n    y: list\n    def f(self):\n        self.x.append(self.y)\n")])) \
        == ["A.x", "A.f"]
    assert set(unloaded_members(library_trees())) == set(UNLOADED_PUBLIC_MEMBERS)


THEOREM_NAMES = {"Theorem", "THEOREMS", "get_theorem", "InequalityReport"}


def theorem_code(tree):
    """(line, name) for each theorem-table name that a module defines, and for
    each import from ``.verify`` or of ``FORMAT_VERSION``, which only the
    verdict code needs."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in THEOREM_NAMES:
            yield node.lineno, node.name
        elif isinstance(node, ast.Assign):
            yield from ((node.lineno, target.id) for target in node.targets
                        if isinstance(target, ast.Name) and target.id in THEOREM_NAMES)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "verify":
            yield node.lineno, f"from {'.' * node.level}{node.module}"
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from ((node.lineno, alias.name) for alias in node.names
                        if alias.name.split(".")[-1] in ("verify", "FORMAT_VERSION"))


def test_functionals_holds_no_theorem_code():
    # the theorem table, its verdicts and their report format live in
    # verify.py; functionals.py holds the left sides and the closed forms
    # that the table's right sides call
    assert list(theorem_code(ast.parse(
        "from .bodies import FORMAT_VERSION, StarBody\nfrom . import verify\nfrom .verify import x\n"
        "THEOREMS = {}\nclass Theorem:\n    pass\ndef get_theorem():\n    pass\n"))) == [
        (4, "THEOREMS"), (5, "Theorem"), (7, "get_theorem"), (1, "FORMAT_VERSION"), (2, "verify"),
        (3, "from .verify")]
    assert list(theorem_code(ast.parse((PACKAGE / "functionals.py").read_text()))) == []


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


PUBLIC_LEFT_SIDES = {"volume", "section_volume", "busemann_functional", "volume_and_functional",
                     "busemann_functional_with_error"}


def path_classes(tree):
    """The classes of a module that are ``_Product`` or derive from it; a class
    is defined after its bases."""
    names = {"_Product"}
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        if cls.name in names or any(isinstance(base, ast.Name) and base.id in names for base in cls.bases):
            names.add(cls.name)
            yield cls


def left_side_calls(tree):
    """(class, method, name) for each call of a public left side by its name
    in a method of a path class; a path's own methods, called on self, are
    not such calls."""
    for cls in path_classes(tree):
        for method in (node for node in cls.body if isinstance(node, ast.FunctionDef)):
            for node in ast.walk(method):
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                        and node.func.id in PUBLIC_LEFT_SIDES:
                    yield cls.name, method.name, node.func.id


def test_no_path_calls_a_public_left_side():
    # each path method works from the evaluation it makes; a public left side
    # called from one would choose the path and divide by the norm again
    assert list(left_side_calls(ast.parse(
        "class _Product:\n    def f(self):\n        return busemann_functional(self.body)\n"
        "class _A(_Product):\n    def g(self):\n        return self.volume(None) + volume(self.body)\n"
        "class B:\n    def h(self):\n        return volume(self.body)\n"))) == [
        ("_Product", "f", "busemann_functional"), ("_A", "g", "volume")]
    tree = ast.parse((PACKAGE / "functionals.py").read_text())
    assert {cls.name for cls in path_classes(tree)} == {"_Product", "_Zonal", "_Indicator", "_Arcs", "_Plane"}
    assert list(left_side_calls(tree)) == []
