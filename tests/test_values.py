"""The value types keep the contract of the frozen dataclasses and the
``NamedTuple`` they replace: construction by position or keyword, equality
and hashing by value (never equal to a plain tuple of the fields, on either
side), immutability, pickling, and a byte-identical ``repr`` (pattern reprs,
which contain ``Mode``, are hashed into pinned digests)."""

import hashlib
import pickle
from fractions import Fraction

import pytest

from ghzsim.circuit import ModeTransform, OpticalCircuit
from ghzsim.cli import RunConfig
from ghzsim.events import EventClass, EventKind, FilterLossDemo, PairingReport, Station
from ghzsim.fock import GH, GV, ONE, Beam, Mode, Polarization
from ghzsim.lhv import (
    Certificate,
    CriticalVisibilityResult,
    Evaluation,
    FeasibilityOutcome,
    FeasibilityProblem,
    GhzParadoxReport,
    LemmaReport,
    LocalStrategy,
    quantum_targets,
)
from ghzsim.measurement import AnalyzerSetting, OutcomeTable, SettingTriple
from ghzsim.simplex import FeasibilityResult

X, Y = AnalyzerSetting.LINEAR45, AnalyzerSetting.CIRCULAR
SWAP = ModeTransform({GH: ((GV, ONE),), GV: ((GH, ONE),)}, "swap")
CERTIFICATE = {"coefficients": {("mass", ""): Fraction(-2), ("xxx", "+++"): Fraction(1)},
               "value": Fraction(1), "strategy_bound": Fraction(0),
               "max_strategy_column": Fraction(0), "verified": True}

# class -> (its fields as keywords, in declaration order; a change of value)
CASES = {
    Mode: ({"beam": Beam.G, "polarization": Polarization.H},
           {"polarization": Polarization.V}),
    ModeTransform: ({"rules": {GH: ((GV, ONE),), GV: ((GH, ONE),)}, "name": "swap"},
                    {"name": "exchange"}),
    OpticalCircuit: ({"elements": (SWAP,)}, {"elements": (SWAP, SWAP)}),
    SettingTriple: ({"g": X, "h": Y, "z": Y}, {"z": X}),
    OutcomeTable: ({"settings": SettingTriple(X, X, X),
                    "probabilities": {(1, 1, 1): Fraction(1, 4)}, "wrong_mass": Fraction(3, 4)},
                   {"settings": SettingTriple(Y, Y, X)}),
    EventClass: ({"kind": EventKind.WRONG_PAIR, "double_station": Station.G,
                  "empty_station": Station.H, "lone_station": None, "reason": None},
                 {"empty_station": Station.Z}),
    PairingReport: ({"right_terms": 6, "wrong_terms": 2, "census": {(Station.G, Station.H): 2}},
                    {"right_terms": 5}),
    FilterLossDemo: ({"scenario": "one-a-H", "herald_clicks": 1, "naive_trigger_fires": True,
                      "naive_outcomes": (), "redefined_accepted": False,
                      "redefined_outcomes": ()}, {"herald_clicks": 2}),
    LocalStrategy: ({"g": (1, -1), "h": (1, 1), "z": (-1, 1)}, {"z": (1, 1)}),
    LemmaReport: ({"total": 729, "admissible": 76, "chi_one": 64, "chi_zero": 12,
                   "excluded": 653, "excluded_with_even_sigma": 653,
                   "setting_dependent_excluded": 0,
                   "all_admissible_moduli_setting_independent": True},
                  {"excluded_with_even_sigma": 652}),
    FeasibilityProblem: ({"targets": quantum_targets(Fraction(1, 2)), "slack": Fraction(1, 64)},
                         {"slack": Fraction(0)}),
    GhzParadoxReport: ({"conjugate_convention": False,
                        "quantum_correlations": {"xxx": Fraction(1)}, "satisfying_all": 0, "satisfying_after_drop": (8, 8, 8, 8),
                        "contradiction": True}, {"contradiction": False}),
    CriticalVisibilityResult: ({"v_star": Fraction(1, 2), "feasible_at": Fraction(1, 2),
                                "infeasible_above": Fraction(129, 256), "evaluations": ()},
                               {"infeasible_above": Fraction(3, 4)}),
    FeasibilityResult: ({"feasible": False, "solution": None,
                         "certificate": [Fraction(1, 2), Fraction(-1)],
                         "infeasibility_gap": Fraction(1, 4), "iterations": 3},
                        {"iterations": 4}),
    RunConfig: ({"command": "sample", "output": None, "fmt": "json", "seed": 7,
                 "visibility": Fraction(1), "pulses": 0, "pair_prob": Fraction(1, 10000),
                 "loss_prob": Fraction(0), "redefined_trigger": False, "pattern": None,
                 "depth": 8, "slack": Fraction(0)}, {"seed": 8}),
    Evaluation: ({"visibility": Fraction(1, 2), "feasible": True}, {"feasible": False}),
    Certificate: (CERTIFICATE, {"verified": False}),
    FeasibilityOutcome: ({"feasible": False, "distribution": None, "chi_zero_weight": None,
                          "certificate": Certificate(**CERTIFICATE), "iterations": 3,
                          "verified": True}, {"iterations": 4}),
}
IDS = [cls.__name__ for cls in CASES]

# repr of each case as the frozen dataclasses printed it; the long ones by sha256
REPRS = {
    Mode: "Mode(beam=<Beam.G: 'g'>, polarization=<Polarization.H: 'H'>)",
    SettingTriple: "SettingTriple(g=<AnalyzerSetting.LINEAR45: 'linear45'>, "
                   "h=<AnalyzerSetting.CIRCULAR: 'circular'>, "
                   "z=<AnalyzerSetting.CIRCULAR: 'circular'>)",
    EventClass: "EventClass(kind=<EventKind.WRONG_PAIR: 'wrong-pair'>, "
                "double_station=<Station.G: <Beam.G: 'g'>>, "
                "empty_station=<Station.H: <Beam.H: 'h'>>, lone_station=None, reason=None)",
    PairingReport: "PairingReport(right_terms=6, wrong_terms=2, "
                   "census={(<Station.G: <Beam.G: 'g'>>, <Station.H: <Beam.H: 'h'>>): 2})",
    FilterLossDemo: "FilterLossDemo(scenario='one-a-H', herald_clicks=1, "
                    "naive_trigger_fires=True, naive_outcomes=(), redefined_accepted=False, "
                    "redefined_outcomes=())",
    LocalStrategy: "LocalStrategy(g=(1, -1), h=(1, 1), z=(-1, 1))",
    LemmaReport: "LemmaReport(total=729, admissible=76, chi_one=64, chi_zero=12, excluded=653, "
                 "excluded_with_even_sigma=653, setting_dependent_excluded=0, "
                 "all_admissible_moduli_setting_independent=True)",
    GhzParadoxReport: "GhzParadoxReport(conjugate_convention=False, "
                      "quantum_correlations={'xxx': Fraction(1, 1)}, satisfying_all=0, "
                      "satisfying_after_drop=(8, 8, 8, 8), contradiction=True)",
    CriticalVisibilityResult: "CriticalVisibilityResult(v_star=Fraction(1, 2), "
                              "feasible_at=Fraction(1, 2), "
                              "infeasible_above=Fraction(129, 256), evaluations=())",
    FeasibilityResult: "FeasibilityResult(feasible=False, solution=None, "
                       "certificate=[Fraction(1, 2), Fraction(-1, 1)], "
                       "infeasibility_gap=Fraction(1, 4), iterations=3)",
    RunConfig: "RunConfig(command='sample', output=None, fmt='json', seed=7, "
               "visibility=Fraction(1, 1), pulses=0, pair_prob=Fraction(1, 10000), "
               "loss_prob=Fraction(0, 1), redefined_trigger=False, pattern=None, depth=8, "
               "slack=Fraction(0, 1))",
    Evaluation: "Evaluation(visibility=Fraction(1, 2), feasible=True)",
    Certificate: "Certificate(coefficients={('mass', ''): Fraction(-2, 1), "
                 "('xxx', '+++'): Fraction(1, 1)}, value=Fraction(1, 1), "
                 "strategy_bound=Fraction(0, 1), max_strategy_column=Fraction(0, 1), "
                 "verified=True)",
    FeasibilityOutcome: "FeasibilityOutcome(feasible=False, distribution=None, "
                        "chi_zero_weight=None, certificate=Certificate(coefficients="
                        "{('mass', ''): Fraction(-2, 1), ('xxx', '+++'): Fraction(1, 1)}, "
                        "value=Fraction(1, 1), strategy_bound=Fraction(0, 1), "
                        "max_strategy_column=Fraction(0, 1), verified=True), iterations=3, "
                        "verified=True)",
}
REPR_SHA256 = {
    ModeTransform: "72d058855b328d9c9df8b788599dbfe202cb641f385f9e08bce8128182b9dc03",
    OpticalCircuit: "bf171f66ddf8de48ecbc7d1361d0f27b48e913e72e10db7229f7c389b677f28a",
    OutcomeTable: "a8fc2f6bd9abfcc097d0bf95cbeef1ffc1025dc103bfd17fb75d8f5ceee50e71",
    FeasibilityProblem: "45c00d1b9b113794d87e09e327979d6ad720c753b1afb43aa2bafe1279017406",
}


def test_every_value_type_has_a_pinned_repr():
    assert REPRS.keys() | REPR_SHA256.keys() == CASES.keys()


# the records with no argument to check, convert or default: Record's __new__ binds them
DEFAULT_INIT = [cls for cls in CASES if "__new__" not in vars(cls)]


def test_the_forwarding_records_take_the_default_init():
    assert {cls.__name__ for cls in DEFAULT_INIT} == {
        "LemmaReport", "GhzParadoxReport", "CriticalVisibilityResult", "FilterLossDemo",
        "FeasibilityResult", "Evaluation", "Certificate", "FeasibilityOutcome"}


@pytest.mark.parametrize("cls", DEFAULT_INIT, ids=lambda cls: cls.__name__)
def test_the_default_init_binds_each_field_once(cls):
    fields, _ = CASES[cls]
    values, first = list(fields.values()), next(iter(fields))
    assert cls(values[0], **dict(list(fields.items())[1:])) == cls(**fields)
    for args, kwargs in (
        (values[:-1], {}),  # a field missing
        ([*values, None], {}),  # an extra field
        (values[:-1], {"undeclared": None}),  # an unknown name
        (values, {first: values[0]}),  # a field bound twice
        (values[:-1], {first: values[0]}),  # one bound twice, one missing
    ):
        with pytest.raises(TypeError, match=f"{cls.__name__}\\(\\) takes the fields"):
            cls(*args, **kwargs)


@pytest.mark.parametrize("cls", CASES, ids=IDS)
def test_positional_and_keyword_construction_agree(cls):
    fields, _ = CASES[cls]
    by_position, by_keyword = cls(*fields.values()), cls(**fields)
    assert by_position == by_keyword
    if cls is Mode:  # interned: each legal pair is one object
        assert by_position is by_keyword
    else:
        assert by_position is not by_keyword


@pytest.mark.parametrize("cls", CASES, ids=IDS)
def test_repr_is_the_frozen_dataclass_repr(cls):
    text = repr(cls(**CASES[cls][0]))
    if cls in REPRS:
        assert text == REPRS[cls]
    else:
        assert hashlib.sha256(text.encode()).hexdigest() == REPR_SHA256[cls]


@pytest.mark.parametrize("cls", CASES, ids=IDS)
def test_equality_and_hash_are_by_value(cls):
    fields, change = CASES[cls]
    value, same, other = cls(**fields), cls(**fields), cls(**{**fields, **change})
    assert value == same and not value != same
    assert value != other and not value == other
    assert value._replace(**change) == other and value._replace() == value
    values = tuple(getattr(value, name) for name in fields)
    assert value != values and values != value
    try:
        hash(values)
    except TypeError:  # a dict field: unhashable, as the frozen dataclass was
        with pytest.raises(TypeError):
            hash(value)
    else:
        assert hash(value) == hash(same) and len({value, same, other}) == 2
    assert pickle.loads(pickle.dumps(value)) == value


@pytest.mark.parametrize("cls", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls):
    fields, change = CASES[cls]
    value = cls(**fields)
    for name, new in change.items():
        with pytest.raises(AttributeError):
            setattr(value, name, new)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.undeclared = 1
    assert value == cls(**fields)
