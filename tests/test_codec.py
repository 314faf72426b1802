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
    EVENT,
    EVENT_CLASSES,
    PAIRING_REPORT,
    EventClass,
    PairingReport,
    SampledEvent,
    event_class_from_wire,
)
from ghzsim.fock import (
    AMPLITUDE,
    MODE_BY_NAME,
    PATTERN,
    TERMS,
    Amplitude,
    InvalidModeError,
    StatePolynomial,
    as_pattern,
    pattern_from_json,
)
from ghzsim.lhv import (
    CERTIFICATE,
    CRITICAL_RESULT,
    DERIVATION,
    FEASIBILITY_VERDICT,
    GHZ_PARADOX,
    GHZ_REPORT,
    QUANTUM_TABLES,
    Certificate,
    CriticalVisibilityResult,
    Evaluation,
    FeasibilityProblem,
    GhzParadoxReport,
    quantum_targets,
    right_sector_strategies,
)
from ghzsim.measurement import (
    DETECTOR_MODES,
    OUTCOMES,
    TABLE,
    OutcomeTable,
    Station,
    all_setting_triples,
    outcome_code,
)

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


_stations = st.sampled_from(list(Station))
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
_pairing_reports = st.builds(
    PairingReport, _counts, _counts, st.dictionaries(st.tuples(_stations, _stations), _counts)
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


def _corrupt(obj, **changes):
    return dict(json.loads(json.dumps(obj)), **changes)


@settings(max_examples=30, deadline=None)
@given(_tables(), st.fractions(min_value=0, max_value=1).filter(bool))
def test_table_decoder_rejects_a_table_that_does_not_sum_to_one(table, excess):
    obj = TABLE[0](table)
    with pytest.raises(ValueError, match="sum to 1"):
        TABLE[1](_corrupt(obj, wrong_mass=str(table.wrong_mass + excess)))


@pytest.mark.parametrize("code", ["+1,+1", "+1,+1,+1,+1", "+2,+1,-1", "0,+1,+1", "x"])
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


@pytest.mark.parametrize("key", ["G", "G,H,Z", "G,X", ""])
def test_pairing_report_decoder_rejects_a_census_key_without_two_stations(key):
    obj = PAIRING_REPORT[0](PairingReport(2, 1, {}))
    with pytest.raises(ValueError):
        PAIRING_REPORT[1](_corrupt(obj, census={key: 1}))


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
