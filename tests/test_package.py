"""The package as a whole."""

import ast
import graphlib
from pathlib import Path

import bilatdual

LINE_BUDGET = 3600
SOURCES = sorted(Path(bilatdual.__file__).parent.glob("*.py"))


def test_the_package_stays_within_its_line_budget():
    """New code pays for itself with what it deletes: the sources total at most LINE_BUDGET lines."""
    lines = {path.name: len(path.read_text(encoding="utf-8").splitlines()) for path in SOURCES}
    assert sum(lines.values()) <= LINE_BUDGET, lines


def _package_imports(tree):
    """(import node, package module) for each import of a bilatdual module under the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level == 0:
                if base.split(".")[0] != "bilatdual":
                    continue
                base = base.partition(".")[2]
            if base:
                yield node, base.split(".")[0]
            else:   # from . import a, b
                yield from ((node, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((node, alias.name.split(".")[1]) for alias in node.names
                        if alias.name.startswith("bilatdual."))


def test_the_package_imports_in_one_order():
    """No function body imports a package module, and the module-level imports form no cycle,
    so a cycle cannot hide behind an import made at call time."""
    graph, late = {}, []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        in_functions = {id(node) for fn in ast.walk(tree)
                        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                        for node, _ in _package_imports(fn)}
        graph[path.stem] = set()
        for node, module in _package_imports(tree):
            if id(node) in in_functions:
                late.append((path.name, node.lineno, module))
            else:
                graph[path.stem].add(module)
    assert late == []
    assert "ranked" in graph["piggyback"] and "bridge" not in graph["piggyback"]
    graphlib.TopologicalSorter(graph).prepare()   # raises CycleError on a cycle
