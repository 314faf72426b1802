"""Source rules the package keeps, read from its syntax trees: it imports only
itself and the standard library, no float enters any module (the verdicts
and the Monte Carlo sampler alike are exact rational arithmetic), the
settings of the four GHZ constraints are written in one place, only the
detector readout reads the trigger mode, ``fock.Record`` is the one record
type (no ``NamedTuple``, and ``@dataclass`` decorates only the three records
that callers copy with ``dataclasses.replace``, generating no ``__init__``,
``==`` or ``repr``), only the sampler reads its tables, the simplex pivots
on integers alone, the evidence checks name nothing from the simplex and
loop over integers alone, only the ring and the simplex name ``lcm``, only
the strategy enumeration and the decoder of a mixture build a
``LocalStrategy``, only the tables' integer check raises their sign and sum
errors, only ``fock`` tests for an exact value by hand (every other module
calls ``fock.exact``), only ``fock`` computes a Born weight (no other module
names ``factorial`` or calls the ring's ``abs_squared``, ``inverse`` or
``to_fraction``), no source line is over 100 columns, ``as_pattern``,
``multiply`` and ``substitute`` sort a pattern only through the one
canonicaliser, ``fock._canonical``, and every module-level function and
method has a caller.  Rules on the loaded classes:
a mode and every enum member hash through ``object.__hash__``, in C, so the
detector readout keys its tables by mode, not by mode name; every other
record hashes as its tuple, in C, and holds no instance ``__dict__``; and
every class with ``_fields`` is a ``fock.Record``."""

import ast
import importlib
import sys
from collections import Counter
from enum import Enum
from pathlib import Path

import pytest

import ghzsim
from ghzsim.fock import Mode, Record

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
    # events.read_pattern is the one rule that counts trigger photons
    places = {
        path.name
        for path in SOURCES
        for node in ast.walk(_tree(path))
        if (isinstance(node, ast.Name) and node.id == "TRIGGER")
        or (isinstance(node, ast.alias) and node.name == "TRIGGER")
        or (isinstance(node, ast.Attribute) and node.attr == "TRIGGER")
    }
    assert places == {"fock.py", "events.py"}


# the sampler's private table layout: its tables' word-sized cut points and tie
# break, the all-lost draw, the detection-table cache and the word size
SAMPLER_INTERNALS = {"_leading", "_settle", "_ALL_LOST", "_output_table", "WORD"}


def test_only_the_sampler_reads_its_tables():
    # sample_events checks its arguments and leaves every draw to _Sampler.draw
    places = {
        path.name
        for path in SOURCES
        for node in ast.walk(_tree(path))
        if getattr(node, "id", getattr(node, "attr", getattr(node, "name", None)))
        in SAMPLER_INTERNALS
    }
    assert places == {"sampler.py"}


def test_only_the_ring_the_tables_and_the_simplex_name_lcm():
    # every other module, the tables included, puts its weights over one
    # denominator through fock.over_one_denominator or fock.over_common_denominator
    places = {
        path.name
        for path in SOURCES
        for node in ast.walk(_tree(path))
        if getattr(node, "id", getattr(node, "attr", getattr(node, "name", None))) == "lcm"
    }
    assert places == {"fock.py", "simplex.py"}


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


# Every value type is a ``fock.Record``, a tuple that copies with ``_replace``.
# These three records are also decorated with ``@dataclass``, only because the
# benchmark's own tests (perfbench/test_perfbench.py) copy them with
# ``dataclasses.replace``, which builds through the record's ``__new__``; the
# decorator adds no ``__init__``, ``==`` or ``repr`` of its own.
REPLACEABLE_RECORDS = {
    "lhv.py:Certificate",
    "lhv.py:FeasibilityOutcome",
    "sampler.py:SampledEvent",
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


def _loaded_classes() -> set:
    modules = [importlib.import_module(f"ghzsim.{path.stem}")
               for path in SOURCES if path.stem != "__init__"]
    return {value for module in modules for value in vars(module).values()
            if isinstance(value, type) and value.__module__.startswith("ghzsim.")}


def test_the_package_has_one_record_mechanism():
    # fock.Record is the one record type: no NamedTuple, no class with the
    # namedtuple protocol's ``_fields`` that is not a Record, and no dataclass
    # decorator that generates an ``__init__``, ``==`` or ``repr`` over the Record's
    named = [f"{path.name}:{node.lineno}" for path in SOURCES for node in ast.walk(_tree(path))
             if getattr(node, "id", getattr(node, "attr", getattr(node, "name", None)))
             == "NamedTuple"]
    assert named == []
    generating = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.ClassDef)
        for decorator in node.decorator_list
        if _is_dataclass_decorator(decorator) and not (
            isinstance(decorator, ast.Call)
            and {(k.arg, getattr(k.value, "value", None)) for k in decorator.keywords}
            >= {("init", False), ("eq", False), ("repr", False)})
    ]
    assert generating == []
    fielded = {cls for cls in _loaded_classes() if hasattr(cls, "_fields")}
    assert {cls.__name__ for cls in fielded if not issubclass(cls, Record)} == set()
    assert {cls.__name__ for cls in fielded} >= {
        "LocalStrategy", "Evaluation", "Certificate", "FeasibilityOutcome", "SampledEvent"}


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
    functions = {**_functions(PACKAGE / "fock.py"), **_functions(PACKAGE / "measurement.py"),
                 **_functions(PACKAGE / "lhv.py")}
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
    assert {"_incidence", "exact", "over_one_denominator"} < checks
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    for name in checks:
        for node in ast.walk(functions[name]):
            named = getattr(node, "id", getattr(node, "attr", None))
            assert named not in solver, f"{name}:{node.lineno} names {named}"
            assert not (isinstance(node, loops) and _names_fraction(node)), (
                f"{name}:{node.lineno} names Fraction in a loop"
            )


# the two errors of a malformed table, as their messages begin
TABLE_ERRORS = ("probabilities must be non-negative", "table must sum to 1")


def test_only_the_integer_check_raises_the_table_errors():
    # a noisy table and a table built from rationals pass one check,
    # measurement._table_form; a second copy of it could drift from the first
    def messages(node: ast.Raise) -> set:
        return {error for sub in ast.walk(node) if isinstance(sub, ast.Constant)
                for error in TABLE_ERRORS if str(sub.value).startswith(error)}

    places = {
        (f"{path.name}:{function.name}", error)
        for path in SOURCES
        for function in ast.walk(_tree(path))
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Raise)
        for error in messages(node)
    }
    assert places == {("measurement.py:_table_form", error) for error in TABLE_ERRORS}


def _hand_made_exact_tests(path: Path) -> list:
    """The places in ``path`` that test for an exact value by hand: an
    ``isinstance`` or ``issubclass`` call that names ``Rational`` or ``bool``,
    or ``bool`` tested with ``is`` or ``in``."""
    places = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in (
            "isinstance", "issubclass"
        ):
            operands, names = node.args, {"Rational", "bool"}
        elif isinstance(node, ast.Compare) and any(
            isinstance(op, (ast.Is, ast.IsNot, ast.In, ast.NotIn)) for op in node.ops
        ):
            operands, names = [node.left, *node.comparators], {"bool"}
        else:
            continue
        if any(getattr(sub, "id", getattr(sub, "attr", None)) in names
               for operand in operands for sub in ast.walk(operand)):
            places.append(f"{path.name}:{node.lineno}")
    return places


def test_only_fock_tests_for_an_exact_value():
    # fock.exact is the one rule of what enters a verdict: a rational that is
    # not a bool; a second spelling of it could drift from the first
    assert _hand_made_exact_tests(PACKAGE / "fock.py")
    places = [place for path in SOURCES if path.name != "fock.py"
              for place in _hand_made_exact_tests(path)]
    assert places == []


# the ring's steps of a Born weight: the squared modulus, the inverse of the
# norm and the read-out of a rational
BORN_RING_CALLS = {"abs_squared", "inverse", "to_fraction"}


def test_only_fock_computes_a_born_weight():
    # fock.born_terms computes each |c|^2 · Πn! once, and norm_squared,
    # born_weights, the tables and the sampler read its integers; a second
    # copy of the Born rule could drift from the first
    factorials = {
        path.name
        for path in SOURCES
        for node in ast.walk(_tree(path))
        if getattr(node, "id", getattr(node, "attr", getattr(node, "name", None))) == "factorial"
    }
    ring_calls = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES if path.name != "fock.py"
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) in BORN_RING_CALLS
    ]
    assert factorials == {"fock.py"}
    assert ring_calls == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_line_is_over_100_columns(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    long = [number for number, line in enumerate(lines, 1) if len(line) > 100]
    assert long == [], f"{path.name}: lines {long} are over 100 columns"


def test_patterns_are_sorted_only_by_the_one_canonicaliser():
    # as_pattern, multiply and substitute reach fock._canonical, and of the fock
    # functions they reach only it sorts, besides _sorted_terms, which orders a
    # term map by its patterns; a second sort of a pattern could drift from the first
    functions = {node.name: node for node in ast.walk(_tree(PACKAGE / "fock.py"))
                 if isinstance(node, ast.FunctionDef)}

    def calls(name: str) -> set:
        return {getattr(node.func, "id", getattr(node.func, "attr", None))
                for node in ast.walk(functions[name]) if isinstance(node, ast.Call)}

    for entry in ("as_pattern", "multiply", "substitute"):
        reached, todo = set(), [entry]
        while todo:
            name = todo.pop()
            if name not in reached:
                reached.add(name)
                todo += calls(name) & functions.keys()
        sorting = {name for name in reached if calls(name) & {"sorted", "sort"}}
        assert "_canonical" in reached, f"{entry} does not reach _canonical"
        assert sorting <= {"_canonical", "_sorted_terms"}, f"{entry} reaches sorts in {sorting}"


def test_modes_and_enum_members_hash_in_c():
    # a Python-level __hash__ on a mode or an enum runs on every dict and set
    # operation of the table path: each pattern lookup hashes all its modes
    enums = {cls for cls in _loaded_classes() if issubclass(cls, Enum)}
    assert {cls.__name__ for cls in enums} >= {
        "Beam", "Polarization", "Station", "AnalyzerSetting", "EventKind"}
    for cls in (Mode, *enums):
        assert cls.__hash__ is object.__hash__, f"{cls.__name__} hashes in Python"
    assert Mode.__eq__ is object.__eq__


def test_records_hash_in_c_and_hold_no_instance_dict():
    # a verdict hashes its strategies in the mixture dict and the evidence
    # checks; a record that forgets ``__slots__ = ()`` gets a ``__dict__``
    records = {cls for cls in _loaded_classes() if issubclass(cls, Record)}
    assert {cls.__name__ for cls in records} >= {
        "LocalStrategy", "SettingTriple", "SampledEvent", "Certificate", "FeasibilityOutcome"}
    for cls in records - {Mode}:
        assert cls.__hash__ is tuple.__hash__, f"{cls.__name__} hashes in Python"
    assert [cls.__name__ for cls in records if cls.__dictoffset__] == []


def test_the_detector_readout_looks_nothing_up_by_name():
    # modes hash in C, so a lookup keyed by a mode's name only adds an attribute read
    for path, name in ((PACKAGE / "events.py", "read_pattern"),
                       (PACKAGE / "measurement.py", "_phases")):
        reads = [node.lineno for node in ast.walk(_functions(path)[name])
                 if isinstance(node, ast.Attribute) and node.attr == "name"]
        assert reads == [], f"{name} reads .name on lines {reads}"


def _names(tree: ast.AST) -> Counter:
    return Counter(getattr(node, "id", getattr(node, "attr", getattr(node, "name", None)))
                   for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute, ast.alias)))


# methods that no code of the package calls, each kept for its reason
UNCALLED_METHODS = {
    "_replace": "fock.Record's copy of a record with some fields changed, the records' "
                "counterpart of dataclasses.replace",
    "error": "cli._Parser's override of argparse.ArgumentParser.error, which argparse calls",
}


def test_every_module_function_has_a_caller():
    # a module-level function or a method of a module-level class is referenced
    # by other code of the package, exported by it, named by the acceptance
    # suite, or read off a ghzsim module by the benchmark (perfbench binds names
    # such as lhv._cell_rows and reads LemmaReport.consistent); the interpreter
    # calls dunder hooks itself.  Code nothing reaches is dead weight that every
    # command still compiles
    trees = [_tree(path) for path in SOURCES]
    statements = [statement for tree in trees for statement in tree.body]
    functions = [node for statement in statements
                 for node in (statement.body if isinstance(statement, ast.ClassDef)
                              else [statement])
                 if isinstance(node, ast.FunctionDef)]
    referenced = sum(map(_names, trees), Counter())
    exported = {name for names in ghzsim._EXPORTS.values() for name in names}
    accepted = _names(_tree(PACKAGE.parents[1] / "tests" / "test_acceptance.py"))
    bound = set().union(*map(_names, map(_tree, (PACKAGE.parents[1] / "perfbench").glob("*.py"))))
    uncalled = [
        function.name
        for function in functions
        if not (function.name.startswith("__") and function.name.endswith("__"))
        and function.name not in exported | accepted.keys() | bound | UNCALLED_METHODS.keys()
        and referenced[function.name] == _names(function)[function.name]
    ]
    assert uncalled == []
