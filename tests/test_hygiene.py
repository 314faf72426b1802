"""Source rules the package keeps, read from its syntax trees: it imports only
itself and the standard library, no float enters any module (the verdicts
and the Monte Carlo sampler alike are exact rational arithmetic), the
settings of the four GHZ constraints are written in one place, only the
detector readout reads the trigger mode, ``@dataclass`` decorates only
the records that callers copy with ``dataclasses.replace``, the simplex
pivots on integers alone, the evidence checks name nothing from the
simplex and loop over integers alone, only the ring, the outcome tables and
the simplex name ``lcm``, and only the strategy enumeration and the decoder
of a mixture build a ``LocalStrategy``."""

import ast
import sys
from pathlib import Path

import pytest

import ghzsim

PACKAGE = Path(ghzsim.__file__).resolve().parent
SOURCES = sorted(PACKAGE.glob("*.py"))


def _tree(path: Path) -> ast.AST:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_the_rules_see_every_module():
    names = {path.name for path in SOURCES}
    assert {"fock.py", "circuit.py", "measurement.py", "simplex.py", "lhv.py",
            "events.py", "sampler.py", "cli.py", "__init__.py"} <= names


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_are_the_package_or_the_standard_library(path):
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            roots = [alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots = [node.module.partition(".")[0]]
        else:  # a relative import names the package itself
            continue
        for root in roots:
            assert root == "ghzsim" or root in sys.stdlib_module_names, (
                f"{path.name}:{node.lineno} imports {root}"
            )


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_float_enters_an_exact_module(path):
    name = path.name
    for node in ast.walk(_tree(path)):
        assert not (isinstance(node, ast.Name) and node.id == "float"), (
            f"{name}:{node.lineno} names float"
        )
        assert not (isinstance(node, ast.Constant) and isinstance(node.value, float)), (
            f"{name}:{node.lineno} has the float literal {node.value!r}"
        )


def test_each_ghz_constraint_setting_is_written_once():
    # the paradox and the Mermin functional read one table of the four constraints
    codes = ("xxx", "xyy", "yxy", "yyx")
    places = [
        (node.value, f"{path.name}:{node.lineno}")
        for path in SOURCES
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Constant) and node.value in codes
    ]
    assert sorted(code for code, _ in places) == sorted(codes), places


def test_only_the_detector_readout_names_the_trigger_mode():
    # measurement.read_pattern is the one rule that counts trigger photons
    places = {
        path.name
        for path in SOURCES
        for node in ast.walk(_tree(path))
        if (isinstance(node, ast.Name) and node.id == "TRIGGER")
        or (isinstance(node, ast.alias) and node.name == "TRIGGER")
        or (isinstance(node, ast.Attribute) and node.attr == "TRIGGER")
    }
    assert places == {"fock.py", "measurement.py"}


def test_only_the_ring_the_tables_and_the_simplex_name_lcm():
    # every other module puts its weights over one denominator through
    # measurement.over_one_denominator
    places = {
        path.name
        for path in SOURCES
        for node in ast.walk(_tree(path))
        if getattr(node, "id", getattr(node, "attr", getattr(node, "name", None))) == "lcm"
    }
    assert places == {"fock.py", "measurement.py", "simplex.py"}


def test_strategies_are_built_only_by_the_enumeration_and_the_mixture_decoder():
    def statement_name(node: ast.stmt) -> str:
        if isinstance(node, ast.Assign):
            return node.targets[0].id
        return node.name

    places = {
        f"{path.name}:{statement_name(statement)}"
        for path in SOURCES
        for statement in _tree(path).body
        for node in ast.walk(statement)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "LocalStrategy"
    }
    assert places == {"lhv.py:enumerate_strategies", "lhv.py:DISTRIBUTION"}


# Generating a dataclass costs about a millisecond at import, paid by every
# CLI run; value types derive from ``fock.Record`` instead.  These four stay
# dataclasses because tests and the benchmark copy them with ``replace``.
REPLACEABLE_RECORDS = {
    "lhv.py:Certificate",
    "lhv.py:FeasibilityOutcome",
    "sampler.py:SampledEvent",
    "simplex.py:FeasibilityResult",
}


def _is_dataclass_decorator(node: ast.expr) -> bool:
    target = node.func if isinstance(node, ast.Call) else node
    return getattr(target, "id", getattr(target, "attr", None)) == "dataclass"


def test_only_the_replaceable_records_are_dataclasses():
    decorated = {
        f"{path.name}:{node.name}"
        for path in SOURCES
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.ClassDef)
        and any(map(_is_dataclass_decorator, node.decorator_list))
    }
    assert decorated == REPLACEABLE_RECORDS


def _names_fraction(node: ast.AST) -> bool:
    return any(
        (isinstance(sub, ast.Name) and sub.id == "Fraction")
        or (isinstance(sub, ast.Attribute) and sub.attr == "Fraction")
        for sub in ast.walk(node)
    )


def test_the_simplex_kernel_is_integer_only():
    # Fraction is for reading the system in and the result out, never for a pivot
    functions = {
        node.name: node
        for node in ast.walk(_tree(PACKAGE / "simplex.py"))
        if isinstance(node, ast.FunctionDef)
    }
    pivot_loops = [
        node for node in ast.walk(functions["solve_feasibility"]) if isinstance(node, ast.While)
    ]
    assert len(pivot_loops) == 1
    assert not _names_fraction(functions["_eliminate"])
    assert not _names_fraction(pivot_loops[0])


def _functions(path: Path) -> dict:
    return {node.name: node for node in _tree(path).body if isinstance(node, ast.FunctionDef)}


def test_the_evidence_checks_are_solver_free_and_integer_looped():
    # verify_verdict, evaluate_certificate and every package function they call
    # name nothing from the solver and build only the values they return as Fractions
    functions = {**_functions(PACKAGE / "measurement.py"), **_functions(PACKAGE / "lhv.py")}
    solver = {"simplex"} | {
        alias.asname or alias.name
        for node in ast.walk(_tree(PACKAGE / "lhv.py"))
        if isinstance(node, ast.ImportFrom) and node.module == "simplex"
        for alias in node.names
    }
    checks, todo = set(), ["verify_verdict", "evaluate_certificate"]
    while todo:
        name = todo.pop()
        if name not in checks:
            checks.add(name)
            todo += [node.func.id for node in ast.walk(functions[name])
                     if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                     and node.func.id in functions]
    assert {"_cell_rows", "_incidence", "over_one_denominator"} < checks
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    for name in checks:
        for node in ast.walk(functions[name]):
            named = getattr(node, "id", getattr(node, "attr", None))
            assert named not in solver, f"{name}:{node.lineno} names {named}"
            assert not (isinstance(node, loops) and _names_fraction(node)), (
                f"{name}:{node.lineno} names Fraction in a loop"
            )
