"""One E-step driver: every E-step's statistics are assembled, and its
zero-intensity check made, in one place, whichever kernel each component
runs on. The driver is a function of its model: no flag beside the model
picks a kernel or a truncation, and only the driver builds the scan."""

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


def _functions(name):
    return [(file, node) for file, tree in _package_trees() for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == name]


def test_estep_reads_kernels_and_truncation_from_its_model():
    [(file, driver)] = _functions("_estep")
    args = driver.args
    assert file == "engine.py" and not (args.vararg or args.kwarg or args.kwonlyargs)
    assert [a.arg for a in args.posonlyargs + args.args] == ["model", "scope", "want"]
    assert _functions("fast_estep") == []


def test_no_call_passes_a_kernel_or_truncation_flag():
    found = [(name, node.lineno) for name, tree in _package_trees() for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and any(k.arg in ("scan", "truncated") for k in node.keywords)]
    assert found == []


def test_scan_is_built_only_in_the_driver():
    found = {(name, func) for name, tree in _package_trees()
             for node, func in _enclosing(tree)
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_Scan"}
    assert found == {("engine.py", "_estep")}
