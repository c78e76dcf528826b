"""The package's modules import one another one way only.

An ``ast`` pass over the package sources collects each module's imports of
its siblings, split into those at module level and those inside a function.
"""

import ast
import graphlib
from pathlib import Path

import torus_euler

SRC = Path(torus_euler.__file__).resolve().parent
MODULES = {path.stem for path in SRC.glob("*.py")} - {"__init__"}


def _siblings(node) -> set[str]:
    """The sibling modules that one import statement names."""
    if isinstance(node, ast.Import):
        names = [a.name.split(".")[1] for a in node.names
                 if a.name.startswith("torus_euler.")]
    elif node.level == 1 or node.module == "torus_euler":
        names = [node.module] if node.level and node.module else [a.name for a in node.names]
    elif node.module and node.module.startswith("torus_euler."):
        names = [node.module.split(".")[1]]
    else:
        names = []
    return {name.split(".")[0] for name in names} & MODULES


def _imports(module: str) -> tuple[set[str], set[str]]:
    """The siblings that ``module`` imports at module level, and inside functions."""
    top, inner = set(), set()

    def visit(node, in_function: bool):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                (inner if in_function else top).update(_siblings(child))
            visit(child, in_function or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)))

    visit(ast.parse((SRC / f"{module}.py").read_text()), False)
    return top, inner


IMPORTS = {module: _imports(module) for module in sorted(MODULES)}


def test_the_module_level_import_graph_is_acyclic():
    graph = graphlib.TopologicalSorter({m: top for m, (top, _) in IMPORTS.items()})
    order = list(graph.static_order())  # raises CycleError on a cycle
    assert set(order) == MODULES


def test_only_the_cli_imports_siblings_inside_functions():
    late = {m: inner for m, (_, inner) in IMPORTS.items() if inner}
    assert set(late) <= {"cli"}, late


def test_the_pass_sees_the_imports_it_checks():
    assert IMPORTS["coeffs"] == ({"errors", "lattice"}, set())
    assert {"coeffs", "euler", "lattice", "spectral"} <= IMPORTS["manifest"][0]
    assert {"lattice", "manifest", "verify"} <= IMPORTS["cli"][1]
