"""One E-step driver: every E-step's statistics are assembled, and its
zero-intensity check made, in one place, whichever kernel each component
runs on."""

import ast
import pathlib

import cascades

MESSAGE = "has zero intensity under every cause"


def _package_trees():
    package = pathlib.Path(cascades.__file__).parent
    return [(path.name, ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted(package.glob("*.py"))]


def _enclosing(tree):
    """(node, name of the innermost enclosing function) for every node."""
    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef,
                                                     ast.AsyncFunctionDef)) else func
            yield child, inner
            yield from visit(child, inner)

    return visit(tree, None)


def test_estep_stats_are_built_in_one_function():
    found = {(name, func) for name, tree in _package_trees()
             for node, func in _enclosing(tree)
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "EStepStats"}
    assert found == {("engine.py", "_estep")}


def test_zero_intensity_is_raised_in_one_place():
    found = [(name, func, node.lineno) for name, tree in _package_trees()
             for node, func in _enclosing(tree)
             if isinstance(node, ast.Raise) and any(
                 isinstance(s, ast.Constant) and isinstance(s.value, str) and MESSAGE in s.value
                 for s in ast.walk(node))]
    assert [hit[:2] for hit in found] == [("engine.py", "_estep")]
