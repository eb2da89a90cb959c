"""One branching process: both simulators run the one offspring queue in
simulate.py, and graphs.py keeps only code about graphs (no JSON
decoding of its own and no copy of fit's LL-decrease tolerance)."""

import ast

from test_estep_driver import _enclosing, _package_trees


def _callers(name):
    """(file, enclosing function) of every call of ``name`` or ``x.name``."""
    return [(file, func) for file, tree in _package_trees()
            for node, func in _enclosing(tree)
            if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]


def test_one_function_runs_the_offspring_queue():
    assert _callers("deque") == [("simulate.py", "_offspring")]


def test_poisson_counts_come_from_the_queue_and_the_two_root_draws():
    assert sorted(_callers("_poisson_count")) == [
        ("graphs.py", "simulate_graph"), ("simulate.py", "_offspring"),
        ("simulate.py", "simulate")]


def test_graphs_decode_no_json_and_keep_no_decrease_tolerance():
    tree = dict(_package_trees())["graphs.py"]
    names = {getattr(node, "attr", getattr(node, "id", None)) for node in ast.walk(tree)}
    assert not names & {"loads", "load", "JSONDecoder"}
    constants = {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)}
    assert 1e-8 not in constants
