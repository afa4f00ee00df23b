"""Every module of the package uses each name it imports, and every public
function or class of the package has a caller outside the tests.

Package ``__init__`` modules are left out: their imports are re-exports.
A name that appears only in a string annotation, such as
``Optional["TargetState"]`` under ``TYPE_CHECKING``, counts as used.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "radarml"
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")
BENCHMARKS = sorted((ROOT / "benchmarks").glob("*.py"))

# Public names that only documentation and the tests call, with the reason.
UNCALLED = {
    "analytic_envelope": "a per-scan transform README documents",
    "motion_filter": "a per-scan transform README documents",
    "standardize": "a per-scan transform README documents",
    "run_experiment": "README's library example",
    "grid_size": "the acceptance test checks the paper's grid sizes with it",
}


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns


def used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in filter(None, annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= used_names(ast.parse(node.value, mode="eval"))
    return used


def unused_imports(source):
    tree = ast.parse(source)
    return sorted(set(imported_names(tree)) - used_names(tree))


def test_the_check_sees_unused_and_string_annotated_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from typing import Optional\n"
        "from .synth import TargetState, label_of\n"
        "def f(t: Optional['TargetState']) -> int:\n"
        "    return np.sum(t)\n"
    )
    assert unused_imports(source) == ["label_of", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def referenced_names(node):
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def uncalled_names(sources):
    """Sorted (module, name) of each public top-level function or class of
    ``sources`` (module -> source) that no statement references outside
    the name's own definition."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    statements = [(stmt, referenced_names(stmt)) for tree in trees.values() for stmt in tree.body]
    uncalled = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if not any(node.name in names for stmt, names in statements if stmt is not node):
                uncalled.append((module, node.name))
    return sorted(uncalled)


def test_the_caller_check_sees_uncalled_and_self_called_names():
    sources = {
        "a": (
            "def imported(): pass\n"
            "class Attribute: pass\n"
            "def called_here(): pass\n"
            "def uncalled(): called_here()\n"
            "def recursive(n): return recursive(n - 1)\n"
            "def _private(): pass\n"
        ),
        "b": "from a import imported\nimport a\nx = a.Attribute\n",
    }
    assert uncalled_names(sources) == [("a", "recursive"), ("a", "uncalled")]


def test_every_public_name_has_a_caller_outside_the_tests():
    sources = {p: p.read_text() for p in MODULES + BENCHMARKS}
    uncalled = {name for module, name in uncalled_names(sources) if module in MODULES}
    assert uncalled == set(UNCALLED)
