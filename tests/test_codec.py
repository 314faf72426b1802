"""The wire codec: every artifact round-trips through JSON text, and every
decoder keeps rejecting the malformed input it rejected as a hand-written pair."""

import json
from fractions import Fraction
from itertools import compress

import pytest
from hypothesis import given, settings, strategies as st

from ghzsim import lhv
from ghzsim.circuit import (
    CIRCUIT,
    TRANSFORM,
    CircuitConfigError,
    OpticalCircuit,
    innsbruck_circuit,
)
from ghzsim.cli import parse_argv, run
from ghzsim.events import (
    CLASSIFICATION,
    CLASSIFIED_TERMS,
    DERIVATION,
    EVENT_CLASSES,
    DETECTOR_MODES,
    PAIRING_REPORT,
    EventClass,
    EventKind,
    PairingReport,
    Station,
    classify_pattern,
    event_class_from_wire,
)
from ghzsim.fock import (
    AMPLITUDE,
    INT,
    MODE_BY_NAME,
    PATTERN,
    RATIONAL,
    TERMS,
    TEXT,
    Amplitude,
    InvalidModeError,
    StatePolynomial,
    as_pattern,
    mapping_codec,
    pattern_from_json,
    sequence_codec,
)
from ghzsim.lhv import (
    CERTIFICATE,
    CRITICAL_RESULT,
    FEASIBILITY_VERDICT,
    GHZ_PARADOX,
    GHZ_REPORT,
    Certificate,
    CriticalVisibilityResult,
    Evaluation,
    FeasibilityProblem,
    GhzParadoxReport,
    evaluate_certificate,
    quantum_targets,
    right_sector_strategies,
)
from ghzsim.measurement import (
    OUTCOMES,
    QUANTUM_TABLES,
    TABLE,
    OutcomeTable,
    all_setting_triples,
    outcome_code,
)
from ghzsim.sampler import EVENT, SampledEvent

_rationals = st.fractions(min_value=-50, max_value=50, max_denominator=60)
_counts = st.integers(min_value=0, max_value=10**6)
_triples = st.sampled_from(all_setting_triples())
_amplitudes = st.builds(
    Amplitude, _rationals, _rationals, _rationals, _rationals, st.integers(0, 4)
)
_patterns = st.dictionaries(
    st.sampled_from(sorted(MODE_BY_NAME.values())), st.integers(1, 3), max_size=6
).map(as_pattern)
# detection patterns, the only ones the classifier accepts
_detections = st.dictionaries(
    st.sampled_from(sorted(DETECTOR_MODES)), st.integers(1, 3), max_size=6
).map(as_pattern)


@st.composite
def _tables(draw):
    """Tables that sum to 1: nine non-negative weights, normalised."""
    weights = draw(st.lists(st.integers(0, 40), min_size=9, max_size=9).filter(any))
    total = sum(weights)
    cells = {o: Fraction(w, total) for o, w in zip(OUTCOMES, weights)}
    return OutcomeTable(draw(_triples), cells, Fraction(weights[-1], total))


_event_classes = st.sampled_from(EVENT_CLASSES)
_events = st.builds(SampledEvent, _counts, _patterns, _event_classes, st.booleans())

_certificate_keys = st.just(("mass", "")) | st.tuples(
    _triples.map(lambda t: t.code), st.sampled_from(OUTCOMES).map(outcome_code)
)
_certificates = st.builds(
    Certificate,
    st.dictionaries(_certificate_keys, _rationals),
    _rationals,
    _rationals,
    _rationals,
    st.booleans(),
)
_ghz_reports = st.builds(
    GhzParadoxReport,
    st.booleans(),
    st.dictionaries(st.text(), _rationals),
    _counts,
    st.lists(_counts).map(tuple),
    st.booleans(),
)
_critical_results = st.builds(
    CriticalVisibilityResult,
    _rationals,
    _rationals,
    _rationals,
    st.lists(st.builds(Evaluation, _rationals, st.booleans())).map(tuple),
)

_polynomials = st.dictionaries(_patterns, _amplitudes, max_size=3).map(StatePolynomial)
_detected = st.dictionaries(_detections, _amplitudes, max_size=3).map(StatePolynomial)
_elements = innsbruck_circuit().elements
_circuits = st.lists(st.booleans(), min_size=4, max_size=4).map(
    lambda mask: OpticalCircuit(compress(_elements, mask))  # in circuit order, so it composes
)
# census keys are the (double, empty) stations of the wrong-pair classes, and
# wrong_terms is the census sum, as pairing_report writes them
_wrong_pairs = st.sampled_from([(c.double_station, c.empty_station)
                                for c in EVENT_CLASSES if c.kind is EventKind.WRONG_PAIR])
_pairing_reports = st.builds(
    lambda right, census: PairingReport(right, sum(census.values()), census),
    _counts, st.dictionaries(_wrong_pairs, _counts),
)
_weights = st.fractions(min_value=0, max_value=1, max_denominator=60)
_verdicts = st.one_of(
    st.tuples(_weights, st.just(True), _weights,
              st.dictionaries(st.sampled_from(right_sector_strategies()), _weights),
              st.none()),
    st.tuples(_weights, st.just(False), st.none(), st.none(), _certificates),
)

# (encode, decode, values, what the decoder returns for a value)
CODECS = {
    "amplitude": (*AMPLITUDE, _amplitudes, None),
    "pattern": (*PATTERN, _patterns, None),
    "table": (*TABLE, _tables(), None),
    "event": (*EVENT, _events, None),
    "certificate": (*CERTIFICATE, _certificates, lambda certificate: certificate.coefficients),
    "ghz report": (*GHZ_REPORT, _ghz_reports, None),
    "critical result": (*CRITICAL_RESULT, _critical_results, None),
    "terms": (*TERMS, _polynomials, None),
    "classified terms": (*CLASSIFIED_TERMS, _detected, None),
    "derivation": (*DERIVATION, st.tuples(_polynomials, _polynomials, _detected), None),
    "classification": (*CLASSIFICATION, st.tuples(_patterns, _event_classes), None),
    "pairing report": (*PAIRING_REPORT, _pairing_reports, None),
    "transform": (*TRANSFORM, st.sampled_from(_elements + (innsbruck_circuit().compose(),)),
                  None),
    "circuit": (*CIRCUIT, _circuits, None),
    "quantum tables": (
        *QUANTUM_TABLES, _weights.map(lambda v: (v, quantum_targets(v))), None
    ),
    "ghz paradox": (*GHZ_PARADOX, st.lists(_ghz_reports, max_size=3).map(
        lambda reports: (tuple(reports),)), None),
    "feasibility verdict": (
        *FEASIBILITY_VERDICT, _verdicts,
        lambda verdict: verdict[:4] + (verdict[4] and verdict[4].coefficients,),
    ),
}


@pytest.mark.parametrize("name", sorted(CODECS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_every_codec_roundtrips_through_json_text(name, data):
    encode, decode, values, decoded_form = CODECS[name]
    value = data.draw(values)
    obj = json.loads(json.dumps(encode(value)))
    decoded = decode(obj)
    assert decoded == (decoded_form(value) if decoded_form else value)
    if decoded_form is None:
        assert encode(decoded) == obj


# each command's --format json artifact and the codec declared for it
ARTIFACTS = {
    "expand": (["expand"], DERIVATION),
    "classify": (["classify"], PAIRING_REPORT),
    "classify --pattern": (["classify", "--pattern", '{"a_H": 1, "g_H": 2, "z_V": 1}'],
                           CLASSIFICATION),
    "dump-circuit": (["dump-circuit"], CIRCUIT),
    "correlations": (["correlations", "--visibility", "13/20"], QUANTUM_TABLES),
    "critical-visibility": (["critical-visibility"], CRITICAL_RESULT),
    "ghz-paradox": (["ghz-paradox"], GHZ_PARADOX),
    "feasible verdict": (["lhv-feasibility", "--visibility", "1/2", "--slack", "0"],
                         FEASIBILITY_VERDICT),
    "infeasible verdict": (["lhv-feasibility", "--visibility", "1", "--slack", "1/100"],
                           FEASIBILITY_VERDICT),
}


@pytest.mark.parametrize("name", ARTIFACTS)
def test_every_json_artifact_round_trips_byte_for_byte(capsys, name):
    argv, (encode, decode) = ARTIFACTS[name]
    assert run(parse_argv([*argv, "--format", "json"])) == 0
    artifact = capsys.readouterr().out
    value = decode(json.loads(artifact))
    if name == "infeasible verdict":  # the wire holds the coefficients; the rest is re-derived
        assert value[1] is False
        problem = FeasibilityProblem(quantum_targets(value[0]), slack=Fraction(argv[-1]))
        value = (*value[:4], evaluate_certificate(problem, value[4]))
    assert json.dumps(encode(value), sort_keys=True, indent=2) + "\n" == artifact


def test_every_sampled_event_line_round_trips_byte_for_byte(capsys):
    argv = ["sample", "--pulses", "2000", "--pair-prob", "1/10", "--seed", "3",
            "--loss-prob", "1/10"]
    assert run(parse_argv(argv)) == 0
    lines = capsys.readouterr().out.splitlines(keepends=True)
    events = [EVENT[1](json.loads(line)) for line in lines]
    assert len(events) > 100 and {event.herald_veto for event in events} == {False, True}
    for line, event in zip(lines, events):
        assert json.dumps(EVENT[0](event), sort_keys=True) + "\n" == line


# a codec reads a record's fields by position, so two neighbours of one codec
# declared in the wrong order would swap unseen by a round trip: each value
# below gives such neighbours different values, and each key must hold its own
_DETECTED = as_pattern({MODE_BY_NAME["g_H"]: 1, MODE_BY_NAME["h_V"]: 1, MODE_BY_NAME["z_H"]: 1})
WIRE_KEYS = {
    "amplitude": (AMPLITUDE, Amplitude(re=1, im=2, re_sqrt2=3, im_sqrt2=4, order=5),
                  {"re": "1", "im": "2", "re_sqrt2": "3", "im_sqrt2": "4", "gamma_order": 5}),
    "certificate": (
        CERTIFICATE,
        Certificate(coefficients={("mass", ""): Fraction(-1)}, value=Fraction(1),
                    strategy_bound=Fraction(2), max_strategy_column=Fraction(3), verified=True),
        {"coefficients": {"mass": "-1"}, "value": "1", "strategy_bound": "2",
         "max_strategy_column": "3", "verified": True},
    ),
    "critical result": (
        CRITICAL_RESULT,
        CriticalVisibilityResult(
            v_star=Fraction(1, 2), feasible_at=Fraction(1, 3), infeasible_above=Fraction(2, 3),
            evaluations=(Evaluation(visibility=Fraction(1, 4), feasible=True),)),
        {"v_star": "1/2", "feasible_at": "1/3", "infeasible_above": "2/3",
         "evaluations": [{"visibility": "1/4", "feasible": True}]},
    ),
    "pairing report": (
        PAIRING_REPORT,
        PairingReport(right_terms=5, wrong_terms=2, census={(Station.G, Station.H): 2}),
        {"right_terms": 5, "wrong_terms": 2, "census": {"G,H": 2}},
    ),
    "event": (
        EVENT,
        SampledEvent(pulse_index=7, pattern=_DETECTED, event_class=classify_pattern(_DETECTED),
                     herald_veto=True),
        {"pulse": 7, "pattern": {"g_H": 1, "h_V": 1, "z_H": 1},
         "class": classify_pattern(_DETECTED).wire, "veto": True},
    ),
}


@pytest.mark.parametrize("name", WIRE_KEYS)
def test_each_wire_key_holds_its_own_field(name):
    (encode, decode), value, obj = WIRE_KEYS[name]
    assert encode(value) == obj
    assert decode(obj) == (value.coefficients if name == "certificate" else value)


def _corrupt(obj, **changes):
    return dict(json.loads(json.dumps(obj)), **changes)


@settings(max_examples=30, deadline=None)
@given(_tables(), st.fractions(min_value=0, max_value=1).filter(bool))
def test_table_decoder_rejects_a_table_that_does_not_sum_to_one(table, excess):
    obj = TABLE[0](table)
    with pytest.raises(ValueError, match="sum to 1"):
        TABLE[1](_corrupt(obj, wrong_mass=str(table.wrong_mass + excess)))


_RIGHT_EVENT = {"pulse": 3, "pattern": {}, "class": "right", "veto": False}


# each decoder accepts only its own JSON type, and a record only with all its keys
@pytest.mark.parametrize("decode,obj", [
    (FEASIBILITY_VERDICT[1], {"visibility": "13/20", "feasible": "false",
                              "chi_zero_weight": "3/4", "distribution": []}),
    (FEASIBILITY_VERDICT[1], {"visibility": 0.65, "feasible": False,
                              "chi_zero_weight": "3/4", "distribution": []}),
    (EVENT[1], {**_RIGHT_EVENT, "pulse": 3.7}),
    (EVENT[1], {**_RIGHT_EVENT, "veto": "false"}),
    (lhv.DISTRIBUTION[1], [{"g": [1.9, -1], "h": [1, 1], "z": [1, 1], "weight": "1"}]),
    (sequence_codec(INT)[1], "12"),
    (INT[1], True),
    (TEXT[1], 5),
    (RATIONAL[1], 1),
    (RATIONAL[1], "1/0"),
    (mapping_codec(TEXT, RATIONAL)[1], []),
    (CLASSIFICATION[1], []),
    (CERTIFICATE[1], []),
    (TABLE[1], {"settings": "xxx"}),
], ids=["bool text", "float rational", "float int", "text bool", "float in list", "text list",
        "bool int", "int text", "int rational", "zero denominator", "list object",
        "list tuple", "list record", "missing keys"])
def test_decoders_take_only_their_json_type(decode, obj):
    with pytest.raises(ValueError):
        decode(obj)


# the rational encoder writes only what its decoder reads back: no bool, no float
@pytest.mark.parametrize("value", [True, False, 2.5, 0.0, float("nan"), 1j, "1/2", None],
                         ids=["true", "false", "float", "float zero", "nan", "complex", "text",
                              "none"])
def test_the_rational_encoder_takes_only_exact_rationals(value):
    with pytest.raises(TypeError, match="exact rational"):
        RATIONAL[0](value)


def test_the_rational_encoder_writes_ints_and_fractions_as_before():
    assert [RATIONAL[0](v) for v in (0, -3, Fraction(13, 20), Fraction(4, 2))] == [
        "0", "-3", "13/20", "2"]


def test_a_table_artifact_at_a_bool_visibility_is_refused_before_it_is_written():
    # a bool passes as a visibility (an int), but its text would not decode
    with pytest.raises(ValueError, match="not a rational"):
        RATIONAL[1]("True")
    with pytest.raises(TypeError, match="exact rational"):
        QUANTUM_TABLES[0]((True, quantum_targets(True)))


@pytest.mark.parametrize("decode,obj", [
    (lhv.DISTRIBUTION[1], [{"g": [1, 1]}]),
    (TERMS[1], [{}]),
], ids=["strategy without h, z and weight", "term without pattern and amplitude"])
def test_a_missing_required_key_raises_value_error(decode, obj):
    with pytest.raises(ValueError, match="lacks the key"):
        decode(obj)


def test_a_verdict_decodes_without_the_evidence_it_does_not_carry():
    feasible = {"visibility": "1/2", "feasible": True, "chi_zero_weight": "3/4",
                "distribution": []}
    assert FEASIBILITY_VERDICT[1](feasible) == (Fraction(1, 2), True, Fraction(3, 4), {}, None)
    certificate = lhv.feasibility_at_visibility(Fraction(1)).certificate
    infeasible = FEASIBILITY_VERDICT[0]((Fraction(1), False, None, None, certificate))
    assert set(infeasible) == {"visibility", "feasible", "certificate"}
    assert FEASIBILITY_VERDICT[1](infeasible) == (
        Fraction(1), False, None, None, certificate.coefficients)
    # the verdict itself is required
    with pytest.raises(ValueError, match="lacks the key 'feasible'"):
        FEASIBILITY_VERDICT[1]({"visibility": "1/2", "chi_zero_weight": "3/4",
                                "distribution": []})


@pytest.mark.parametrize("assignments", [
    {"g": [1], "h": [1, 1, 1], "z": [1, 1]},
    {"g": [], "h": [1, 1], "z": [1, 1]},
], ids=["one and three values", "no value"])
def test_strategy_decoder_rejects_an_assignment_without_two_values(assignments):
    with pytest.raises(ValueError, match="2 settings"):
        lhv.DISTRIBUTION[1]([{**assignments, "weight": "1/4"}])


@pytest.mark.parametrize("code", [
    "+1,+1", "+1,+1,+1,+1", "+2,+1,-1", "0,+1,+1", "x",
    # each names +1,+1,+1 or +1,-1,+1, but not as their one code
    "1,1,1", "+01,+1,+1", " +1,+1,+1", "+1, -1,+1",
])
def test_table_decoder_rejects_a_bad_outcome_code(code):
    obj = TABLE[0](_fixed_table())
    cells = dict(obj["cells"])
    cells[code] = cells.pop("+1,+1,+1")
    with pytest.raises(ValueError):
        TABLE[1](_corrupt(obj, cells=cells))


@pytest.mark.parametrize("code", ["xx", "xxxx", "xyz", "XYY", ""])
def test_table_decoder_rejects_a_bad_setting_code(code):
    with pytest.raises(ValueError):
        TABLE[1](_corrupt(TABLE[0](_fixed_table()), settings=code))


@pytest.mark.parametrize("name", ["nope", "veto_H", "a45"])
def test_pattern_and_event_decoders_reject_an_unknown_mode(name):
    with pytest.raises(InvalidModeError, match=name):
        pattern_from_json({"a_H": 1, name: 1})
    event = EVENT[0](SampledEvent(3, (), EventClass.right(), False))
    with pytest.raises(InvalidModeError, match=name):
        EVENT[1](_corrupt(event, pattern={name: 1}))


@pytest.mark.parametrize("key", ["xxx", "xxx|+1,+1,+1|x", "xxx||", "masses"])
def test_certificate_decoder_rejects_a_key_without_two_parts(key):
    certificate = Certificate({("mass", ""): Fraction(-2)}, Fraction(1), Fraction(0),
                              Fraction(0), True)
    obj = CERTIFICATE[0](certificate)
    with pytest.raises(ValueError):
        CERTIFICATE[1](_corrupt(obj, coefficients={key: "1/2"}))


@pytest.mark.parametrize("key", ["G", "G,H,Z", "G,X", "", "G,G"])
def test_pairing_report_decoder_rejects_a_census_key_without_two_stations(key):
    obj = PAIRING_REPORT[0](PairingReport(2, 1, {(Station.G, Station.H): 1}))
    with pytest.raises(ValueError):
        PAIRING_REPORT[1](_corrupt(obj, census={key: 1}))


@pytest.mark.parametrize("key", ["G,G", "G,H"])
def test_pairing_report_decoder_rejects_wrong_terms_off_the_census_sum(key):
    with pytest.raises(ValueError):
        PAIRING_REPORT[1]({"right_terms": 2, "wrong_terms": 5, "census": {key: 1}})


@pytest.mark.parametrize("wire", ["wrong-pair:G,X", "double-non-detection:X",
                                  "double-non-detection:", "trigger-failure:bogus",
                                  "trigger-failure:", "right:bogus", "wrong-pair:G,G"])
def test_event_class_decoder_rejects_a_class_the_classifier_never_writes(wire):
    with pytest.raises(ValueError):
        event_class_from_wire(wire)
    event = EVENT[0](SampledEvent(3, (), EventClass.right(), False))
    with pytest.raises(ValueError):
        EVENT[1](_corrupt(event, **{"class": wire}))


def test_circuit_decoder_rejects_an_unknown_mode_and_a_non_isometry():
    obj = CIRCUIT[0](innsbruck_circuit())
    renamed = json.loads(json.dumps(obj).replace('"a_H"', '"a_X"'))
    with pytest.raises(InvalidModeError, match="a_X"):
        CIRCUIT[1](renamed)
    doubled = json.loads(json.dumps(obj))
    doubled["elements"][1]["rules"]["a_V"][0]["amplitude"]["re"] = "1"
    with pytest.raises(CircuitConfigError, match="orthonormal"):
        CIRCUIT[1](doubled)


@pytest.mark.parametrize("visibility,slack", [("1/2", "0"), ("13/20", "0"), ("1", "1/64")])
def test_feasibility_artifacts_recheck_from_their_bytes(capsys, visibility, slack):
    argv = ["lhv-feasibility", "--visibility", visibility, "--slack", slack, "--format", "json"]
    assert run(parse_argv(argv)) == 0
    artifact = json.loads(capsys.readouterr().out)
    verdict = FEASIBILITY_VERDICT[1](artifact)
    problem = FeasibilityProblem(quantum_targets(verdict[0]), slack=Fraction(slack))
    feasible = verdict[1]
    evidence = {**verdict[3], lhv.CHI_ZERO: verdict[2]} if feasible else verdict[4]
    assert lhv.verify_verdict(problem, feasible, evidence)
    if feasible:  # a tampered wrong-sector weight fails the same check
        tampered = FEASIBILITY_VERDICT[1]({**artifact, "chi_zero_weight": "1/7"})
        assert not lhv.verify_verdict(problem, True, {**tampered[3], lhv.CHI_ZERO: tampered[2]})
    # the check is not vacuous: one changed weight or coefficient fails it
    change = Fraction(1, 1000) if feasible else Fraction(1000)
    for key in evidence:
        changed = dict(evidence)
        changed[key] += change
        assert not lhv.verify_verdict(problem, feasible, changed), key


def _fixed_table() -> OutcomeTable:
    cells = {outcome: Fraction(1, 16) for outcome in OUTCOMES}
    return OutcomeTable(all_setting_triples()[0], cells, Fraction(1, 2))
