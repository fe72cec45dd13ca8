"""The package as a whole."""

import ast
import graphlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import bilatdual
from bilatdual.distlat import Lattice
from bilatdual.posets import Poset

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


def _calls(node, scope=""):
    """(dotted name of the enclosing class or def, call node) for each call under the node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            yield scope, child
        named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        yield from _calls(child, f"{scope}.{child.name}".lstrip(".") if named else scope)


def test_one_order_validator():
    """check_relation runs in Poset.__init__, and for check_axioms' A6 verdict on the sort
    relations, which need not be orders; nothing can ask Poset or Lattice to skip it, so a
    second private order check fails here instead of creeping back."""
    callers, switches = set(), []
    for path in SOURCES:
        for scope, call in _calls(ast.parse(path.read_text(encoding="utf-8"))):
            callee = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            if callee == "check_relation":
                callers.add(f"{path.stem}.{scope}")
            if callee in ("Poset", "Lattice") and any(kw.arg == "check" for kw in call.keywords):
                switches.append((path.name, call.lineno))
    assert callers == {"posets.Poset.__init__", "multisorted.check_axioms"}
    assert switches == []
    assert all("check" not in inspect.signature(cls).parameters for cls in (Poset, Lattice))


def test_the_command_loads_no_test_oracle():
    """The package root re-exports nothing, so importing the command leaves distlat unloaded."""
    env = dict(os.environ, PYTHONPATH=str(Path(bilatdual.__file__).parents[1]))
    probe = "import sys, bilatdual.cli; print(sorted(m for m in sys.modules if 'distlat' in m))"
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                          check=True, timeout=60)
    assert done.stdout == "[]\n"
