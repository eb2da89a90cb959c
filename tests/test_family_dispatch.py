"""Each model family owns its math: no package module asks which family a
delay, fertility, baseline, transition or mark distribution is, apart
from one output choice."""

import ast
import pathlib
import typing

import cascades
from cascades.delays import DelaySpec
from cascades.engine import BaselineSpec
from cascades.fertility import FertilitySpec
from cascades.transitions import MarkDistribution, TransitionSpec

FAMILIES = {cls.__name__ for union in (DelaySpec, FertilitySpec, BaselineSpec,
                                       TransitionSpec, MarkDistribution)
            for cls in typing.get_args(union)}
# the CSV dump writes categorical matrices only, against a label marginal
ALLOWED = {("cli.py", "_dump_transitions")}


def _family_tests(path: pathlib.Path) -> list[tuple[str, str | None, int]]:
    """(file, enclosing function, line) of each isinstance test against a
    family class in one module."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef,
                                                     ast.AsyncFunctionDef)) else func
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id == "isinstance" and len(child.args) == 2):
                kinds = child.args[1]
                names = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
                if {getattr(n, "id", getattr(n, "attr", None)) for n in names} & FAMILIES:
                    found.append((path.name, inner, child.lineno))
            visit(child, inner)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_no_module_dispatches_on_a_model_family():
    assert {"ExponentialDelay", "CombinedFertility", "PeriodicBaseline",
            "CategoricalMatrix", "LabelMarginal"} <= FAMILIES
    package = pathlib.Path(cascades.__file__).parent
    found = [hit for path in sorted(package.glob("*.py")) for hit in _family_tests(path)]
    assert [hit for hit in found if hit[:2] not in ALLOWED] == []
    # the scan still sees the allowed tests, so it is not blind
    assert {hit[:2] for hit in found} == ALLOWED
