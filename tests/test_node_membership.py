"""Who may parent has one home: node membership is derived in events.py
alone (``Dataset.at_nodes``), the engine keeps one pool record per
source restriction (``engine._Pool``) for the E-step and the exposures,
and graph-fit reads both instead of deriving membership again."""

import ast
import pathlib

import cascades

PACKAGE = pathlib.Path(cascades.__file__).parent
# what derives node membership; events.py alone may hold it
MEMBERSHIP = ("node_ids ==", "np.isin(", "node_codes")
# the pool and exposure caches the pool record replaced
GONE = ("_source_mask", "_parent_pool", "_source_entry", "source_pools", "window_exposures",
        "_window_exposure", "_ExposureBase")


def _sources() -> dict[str, str]:
    return {path.name: path.read_text(encoding="utf-8")
            for path in sorted(PACKAGE.glob("*.py"))}


def test_only_events_derives_node_membership():
    found = {(name, token) for name, text in _sources().items() for token in MEMBERSHIP
             if token in text}
    assert {hit for hit in found if hit[0] != "events.py"} == set()
    # the search still sees at_nodes' own derivation, so it is not blind
    assert found == {("events.py", "node_codes")}


def test_the_replaced_pool_and_exposure_caches_are_gone():
    assert [(name, token) for name, text in _sources().items() for token in GONE
            if token in text] == []


def _string_constants(path: pathlib.Path, needle: str) -> set[str]:
    """Names of the functions whose string constants (f-string parts
    included) contain ``needle``."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope + (child.name,) if isinstance(
                child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) else scope
            if (isinstance(child, ast.Constant) and isinstance(child.value, str)
                    and needle in child.value):
                found.add(".".join(scope))
            visit(child, inner)

    visit(ast.parse(path.read_text(encoding="utf-8")), ())
    return found


def test_per_neighbor_components_are_named_where_they_are_built_only():
    # _fit_per_neighbor finds its neighbour components without parsing names
    assert _string_constants(PACKAGE / "graphs.py", "nbr:") == {"node_model"}
