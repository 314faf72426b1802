"""Source rules the package keeps, read from its syntax trees: it imports only
itself and the standard library, no float enters any module (the verdicts
and the Monte Carlo sampler alike are exact rational arithmetic), the
settings of the four GHZ constraints are written in one place, and only the
detector readout reads the trigger mode."""

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
            "events.py", "cli.py", "__init__.py"} <= names


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
