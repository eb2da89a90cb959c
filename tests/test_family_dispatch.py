"""Each model family owns its math, and each mark schema its mark format:
no package module asks which family a delay, fertility, baseline,
transition or mark distribution is, apart from one output choice, and
none asks which schema or mark class it holds, apart from the schemas'
own checks on Mark objects and the checks that a family or command
accepts a schema."""

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

MARK_CLASSES = {"BinarySchema", "LabelSchema", "CompositeSchema", "BinaryMark", "LabelMark",
                "CompositeMark", "Event"}
MARK_ALLOWED = {
    # each schema's check of the Mark objects that arrive at the public edge
    ("events.py", "BinarySchema.mark_columns"), ("events.py", "LabelSchema.mark_columns"),
    ("events.py", "CompositeSchema.mark_columns"),
    # a family or command that accepts some schemas only
    ("cli.py", "cmd_graph_fit"), ("config.py", "_empirical"), ("engine.py", "validate_model"),
    ("fertility.py", "_binary"), ("graphs.py", "fit_round"), ("simulate.py", "simulate"),
    ("transitions.py", "FeaturePrior.check_schema"),
    ("transitions.py", "FeatureMixture.check_schema"), ("transitions.py", "fit_prior")}


def _isinstance_tests(path: pathlib.Path, classes: set) -> list[tuple[str, str, int]]:
    """(file, enclosing class and function names joined by dots, line) of
    each isinstance test against one of ``classes`` in one module."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = (scope + (child.name,) if isinstance(
                child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) else scope)
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id == "isinstance" and len(child.args) == 2):
                kinds = child.args[1]
                names = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
                if {getattr(n, "id", getattr(n, "attr", None)) for n in names} & classes:
                    found.append((path.name, ".".join(scope), child.lineno))
            visit(child, inner)

    visit(ast.parse(path.read_text(encoding="utf-8")), ())
    return found


def _package_tests(classes: set) -> list[tuple[str, str, int]]:
    package = pathlib.Path(cascades.__file__).parent
    return [hit for path in sorted(package.glob("*.py"))
            for hit in _isinstance_tests(path, classes)]


def test_no_module_dispatches_on_a_model_family():
    assert {"ExponentialDelay", "CombinedFertility", "PeriodicBaseline",
            "CategoricalMatrix", "LabelMarginal"} <= FAMILIES
    found = _package_tests(FAMILIES)
    assert [hit for hit in found if hit[:2] not in ALLOWED] == []
    # the scan still sees the allowed tests, so it is not blind
    assert {hit[:2] for hit in found} == ALLOWED


def test_only_the_schemas_read_the_mark_format():
    found = _package_tests(MARK_CLASSES)
    assert [hit for hit in found if hit[:2] not in MARK_ALLOWED] == []
    assert {hit[:2] for hit in found} == MARK_ALLOWED
    assert len(found) == len(MARK_ALLOWED)  # one test in each place
