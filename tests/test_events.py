"""Trigger post-selection, classification, pairing, loss, and the sampler."""

import hashlib
import json
import math
import random

import pytest
from fractions import Fraction

from ghzsim.circuit import ModeTransform, OpticalCircuit, innsbruck_circuit
from ghzsim.events import (
    ConfigurationError,
    EventClass,
    EventKind,
    PairingViolationError,
    REASON_MULTI_TRIGGER,
    REASON_NO_TRIGGER,
    REASON_UNPAIRED,
    SampledEvent,
    classify_pattern,
    derived_seed,
    double_trigger_component,
    event_class_from_wire,
    event_from_json,
    event_to_json,
    filter_loss_demo,
    pairing_report,
    remove_photons,
    sample_events,
    single_pair_emission,
    station_counts,
    summarize_events,
    trigger_select,
    two_pair_emission,
)
from ghzsim.fock import (
    AH,
    AV,
    BH,
    BV,
    GH,
    GV,
    HH,
    HV,
    INV_SQRT2,
    Mode,
    Polarization,
    TRIGGER,
    ZH,
    ZV,
    as_pattern,
    creation,
    gamma_power,
    monomial,
    rational,
)
from ghzsim.measurement import Station


# ---------------------------------------------------------------------------
# emission and trigger selection
# ---------------------------------------------------------------------------


def test_two_pair_emission_structure():
    emission = two_pair_emission()
    assert emission.terms == {
        as_pattern({AV: 2, BH: 2}): gamma_power(2),
        as_pattern({AH: 1, AV: 1, BH: 1, BV: 1}): rational(-2, order=2),
        as_pattern({AH: 2, BV: 2}): gamma_power(2),
    }


def test_trigger_select_keeps_only_the_cross_term():
    selected = trigger_select(two_pair_emission())
    assert selected.terms == {
        as_pattern({AH: 1, AV: 1, BH: 1, BV: 1}): rational(-2, order=2)
    }


def test_trigger_select_idempotent_and_empty_cases():
    emission = two_pair_emission()
    once = trigger_select(emission)
    assert trigger_select(once) == once
    no_trigger = monomial({AV: 2, BH: 2}, gamma_power(2))
    assert trigger_select(no_trigger).is_zero


def test_trigger_select_rejects_non_emission_states():
    with pytest.raises(ConfigurationError):
        trigger_select(creation(GH))
    with pytest.raises(ConfigurationError):
        trigger_select(creation(AH) * creation(ZV))


def test_double_trigger_component():
    assert double_trigger_component().terms == {
        as_pattern({AH: 2, BV: 2}): gamma_power(2)
    }


def test_right_part_amplitude_carries_coupling_squared():
    expanded = innsbruck_circuit().apply(trigger_select(two_pair_emission()))
    from ghzsim.fock import amplitude

    derived = amplitude(expanded, {TRIGGER: 1, GH: 1, HV: 1, ZV: 1})
    assert derived == INV_SQRT2 * rational(-1, order=2)  # global phase -1
    assert derived.abs_squared() == (INV_SQRT2 * gamma_power(2)).abs_squared()


def test_single_pair_trigger_terms_leave_two_stations_dark():
    expanded = innsbruck_circuit().apply(single_pair_emission())
    fired = [
        pattern for pattern in expanded.terms if dict(pattern).get(TRIGGER, 0) == 1
    ]
    assert len(fired) == 2
    for pattern in fired:
        event = classify_pattern(pattern)
        assert event.kind is EventKind.DOUBLE_NON_DETECTION
        dark = sum(1 for s, n in station_counts(pattern).items() if n == 0)
        assert dark == 2
        assert event.lone_station in (Station.G, Station.H)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def test_classify_right():
    assert classify_pattern({TRIGGER: 1, GH: 1, HV: 1, ZV: 1}) == EventClass.right()


def test_classify_wrong_pair():
    event = classify_pattern({TRIGGER: 1, GH: 1, GV: 1, ZV: 1})
    assert event == EventClass.wrong_pair(Station.G, Station.H)


def test_classify_double_non_detection():
    event = classify_pattern({TRIGGER: 1, HV: 1})
    assert event == EventClass.double_non_detection(Station.H)
    assert classify_pattern({TRIGGER: 1}) == EventClass.double_non_detection(None)


def test_classify_trigger_failures():
    assert classify_pattern({GH: 1}) == EventClass.trigger_failure(REASON_NO_TRIGGER)
    assert classify_pattern({TRIGGER: 2, HV: 1}) == EventClass.trigger_failure(
        REASON_MULTI_TRIGGER
    )
    assert classify_pattern({TRIGGER: 1, HV: 2}) == EventClass.trigger_failure(
        REASON_UNPAIRED
    )


def test_event_class_wire_roundtrip():
    classes = [
        EventClass.right(),
        EventClass.wrong_pair(Station.Z, Station.G),
        EventClass.double_non_detection(Station.H),
        EventClass.double_non_detection(None),
        EventClass.trigger_failure(REASON_UNPAIRED),
    ]
    for event in classes:
        assert event_class_from_wire(event.wire) == event


# ---------------------------------------------------------------------------
# pairing property
# ---------------------------------------------------------------------------


def test_pairing_census_covers_all_six_combinations():
    expanded = innsbruck_circuit().apply(trigger_select(two_pair_emission()))
    report = pairing_report(expanded)
    assert report.right_terms == 2
    assert report.wrong_terms == 6
    stations = (Station.G, Station.H, Station.Z)
    expected_keys = {(d, e) for d in stations for e in stations if d != e}
    assert set(report.census) == expected_keys
    assert all(count == 1 for count in report.census.values())


def test_pairing_accepts_right_terms_only():
    right = monomial({TRIGGER: 1, GH: 1, HV: 1, ZV: 1}, INV_SQRT2)
    report = pairing_report(right)
    assert report.right_terms == 1 and not report.census


def test_pairing_rejects_fabricated_term():
    fabricated = monomial({TRIGGER: 1, GH: 2, HH: 2, ZH: 2})
    with pytest.raises(PairingViolationError) as excinfo:
        pairing_report(fabricated)
    assert excinfo.value.pattern == as_pattern({TRIGGER: 1, GH: 2, HH: 2, ZH: 2})


def _variant_circuit(rng: random.Random) -> OpticalCircuit:
    """A fuzzed relabeling of the physical routing.

    Each of the three post-trigger source modes feeds a distinct pair of
    stations; within every station the two feeding sources use opposite
    polarization slots, and each branch carries an arbitrary sign.
    """
    stations = [Station.G, Station.H, Station.Z]
    pairs = [(0, 1), (0, 2), (1, 2)]
    rng.shuffle(pairs)
    sources = [AV, BH, BV]
    slot: dict = {}
    rules = {AH: ((TRIGGER, rational(1)),)}
    for source, (first, second) in zip(sources, pairs):
        targets = []
        for index in (first, second):
            beam = stations[index].beam
            used = slot.setdefault(index, set())
            pol = rng.choice([p for p in Polarization if p not in used])
            used.add(pol)
            sign = rng.choice([1, -1])
            targets.append((Mode(beam, pol), INV_SQRT2 * rational(sign)))
        rules[source] = tuple(sorted(targets, key=lambda kv: kv[0].sort_key))
    return OpticalCircuit((ModeTransform(rules, name="fuzzed"),))


def test_pairing_holds_for_fuzzed_circuit_variants():
    rng = random.Random(20260810)
    post_trigger = trigger_select(two_pair_emission())
    for _ in range(50):
        variant = _variant_circuit(rng)
        expanded = variant.apply(post_trigger)
        report = pairing_report(expanded)
        assert report.right_terms == 2
        assert report.wrong_terms == 6


# ---------------------------------------------------------------------------
# filter loss and the redefined trigger
# ---------------------------------------------------------------------------


def test_remove_photons():
    state = double_trigger_component()
    assert remove_photons(state, AH, 1).terms == {
        as_pattern({AH: 1, BV: 2}): gamma_power(2)
    }
    assert remove_photons(state, AH, 3).is_zero


def test_filter_loss_none_agrees_between_triggers():
    demo = filter_loss_demo("none")
    assert demo.naive_trigger_fires and demo.redefined_accepted
    assert demo.naive_outcomes == demo.redefined_outcomes
    kinds = {event.kind for _, event in demo.naive_outcomes}
    assert kinds == {EventKind.RIGHT, EventKind.WRONG_PAIR}


def test_filter_loss_one_trigger_photon_fools_naive_only():
    demo = filter_loss_demo("one-a-H")
    assert demo.naive_trigger_fires  # a seemingly fine trigger click
    assert not demo.redefined_accepted  # but the herald fired
    assert demo.redefined_outcomes == ()
    assert {event.wire for _, event in demo.naive_outcomes} == {
        f"trigger-failure:{REASON_UNPAIRED}"
    }


def test_filter_loss_two_trigger_photons_is_harmless():
    demo = filter_loss_demo("two-a-H")
    assert not demo.naive_trigger_fires
    assert not demo.redefined_accepted


def test_filter_loss_partner_photon_gives_missing_counts():
    demo = filter_loss_demo("one-b-V")
    assert demo.naive_trigger_fires and not demo.redefined_accepted
    assert all(
        event.kind is EventKind.TRIGGER_FAILURE for _, event in demo.naive_outcomes
    )


def test_filter_loss_unknown_scenario():
    with pytest.raises(ConfigurationError):
        filter_loss_demo("three-a-H")


# ---------------------------------------------------------------------------
# sampler
# ---------------------------------------------------------------------------


def test_sampler_is_deterministic():
    first = list(sample_events(2000, Fraction(1, 50), seed=9))
    second = list(sample_events(2000, Fraction(1, 50), seed=9))
    assert first == second
    as_json = [json.dumps(event_to_json(e), sort_keys=True) for e in first]
    again = [json.dumps(event_to_json(e), sort_keys=True) for e in second]
    assert as_json == again


def test_sampler_zero_pair_prob_is_empty():
    assert list(sample_events(5000, Fraction(0), seed=1)) == []


def test_sampler_rejects_bad_probabilities():
    with pytest.raises(ConfigurationError):
        list(sample_events(10, Fraction(9, 10), seed=0))  # p + p^2 > 1
    with pytest.raises(ConfigurationError):
        list(sample_events(10, Fraction(1, 10), seed=0, loss_prob=Fraction(2)))


def test_sampler_one_pair_statistics():
    pulses, p = 10**6, Fraction(1, 10000)
    events = list(sample_events(pulses, p, seed=42))
    expected = pulses * float(p)
    assert abs(len(events) - expected) <= 3 * math.sqrt(expected)
    counts = summarize_events(events)
    # single-pair pulses: half no-trigger, half heralded double non-detections
    assert set(counts) <= {
        "trigger-failure:no-trigger",
        "double-non-detection:G",
        "double-non-detection:H",
        "right",
        "wrong-pair:G,H",
        "wrong-pair:G,Z",
        "wrong-pair:H,G",
        "wrong-pair:H,Z",
        "wrong-pair:Z,G",
        "wrong-pair:Z,H",
        "trigger-failure:multiple-trigger-photons",
    }
    # the mode relations put the lone photon at station H or G, never Z
    assert counts.get("double-non-detection:Z", 0) == 0


def test_sampler_two_pair_class_frequencies():
    events = list(sample_events(10**6, Fraction(1, 20), seed=11))
    counts = summarize_events(events)
    rights = counts.get("right", 0)
    wrong_pairs = sum(v for k, v in counts.items() if k.startswith("wrong-pair"))
    n = rights + wrong_pairs
    assert n > 500
    sigma = math.sqrt(n * 0.25 * 0.75)
    assert abs(rights - n / 4) <= 3 * sigma


def test_redefined_trigger_removes_all_contaminated_events():
    events = list(
        sample_events(300000, Fraction(1, 20), seed=3, loss_prob=Fraction(1, 10))
    )
    vetoed = [e for e in events if e.herald_veto]
    clean = [e for e in events if not e.herald_veto]
    assert vetoed, "loss must actually inject vetoed events"
    contaminated = [
        e for e in vetoed if e.event_class.reason == REASON_UNPAIRED
    ]
    assert contaminated, "loss must actually produce contaminated patterns"
    # conditioned on no herald click, the loss-free pattern algebra holds
    assert all(e.event_class.reason != REASON_UNPAIRED for e in clean)
    redefined = summarize_events(events, redefined=True)
    assert sum(redefined.values()) == len(clean)


def test_clean_events_match_lossfree_statistics_per_sector():
    # heralded loss suppresses an n-photon component by (1-q)^n, so the
    # loss-free statistics are recovered exactly within each emission
    # sector; across sectors only the pair-number mix shifts
    pulses, p = 400000, Fraction(1, 25)
    lossfree = summarize_events(sample_events(pulses, p, seed=21))
    lossy_clean = summarize_events(
        sample_events(pulses, p, seed=22, loss_prob=Fraction(1, 8)), redefined=True
    )

    def right_fraction(counts):
        rights = counts.get("right", 0)
        wrongs = sum(v for k, v in counts.items() if k.startswith("wrong-pair"))
        return rights, rights + wrongs

    for counts in (lossfree, lossy_clean):
        rights, n = right_fraction(counts)
        assert n > 80
        assert abs(rights - n / 4) <= 3 * math.sqrt(n * 0.25 * 0.75)
    # within the one-pair sector the two heralded patterns stay balanced
    for counts in (lossfree, lossy_clean):
        lone_g = counts.get("double-non-detection:G", 0)
        lone_h = counts.get("double-non-detection:H", 0)
        n = lone_g + lone_h
        assert n > 200
        assert abs(lone_g - n / 2) <= 3 * math.sqrt(n * 0.25)


def test_sampler_emits_classifiable_patterns_only():
    for event in sample_events(50000, Fraction(1, 25), seed=17, loss_prob=Fraction(1, 7)):
        assert isinstance(classify_pattern(event.pattern), EventClass)


def test_event_json_roundtrip():
    event = SampledEvent(
        pulse_index=7,
        pattern=as_pattern({TRIGGER: 1, GV: 1, HH: 1, ZH: 1}),
        event_class=EventClass.right(),
        herald_veto=False,
    )
    assert event_from_json(event_to_json(event)) == event


def test_each_sampler_call_classifies_each_distinct_pattern_once(monkeypatch):
    import ghzsim.events

    calls = []

    def counting(pattern):
        calls.append(pattern)
        return classify_pattern(pattern)

    monkeypatch.setattr(ghzsim.events, "classify_pattern", counting)
    args = (20000, Fraction(1, 10), 3, Fraction(1, 5))
    first = {event.pattern for event in sample_events(*args)}
    assert sorted(calls) == sorted(first) and len(first) > 1
    # the memo dies with the call: a second call classifies again
    second = {event.pattern for event in sample_events(*args)}
    assert sorted(calls) == sorted(list(first) + list(second))


def test_derived_seed_is_stable():
    assert derived_seed(42, 0) == derived_seed(42, 0)
    assert derived_seed(42, 0) != derived_seed(42, 1)
    streams = [
        list(sample_events(1000, Fraction(1, 20), seed=derived_seed(5, chunk)))
        for chunk in range(2)
    ]
    assert streams[0] != streams[1]


# sha256 of the repr of one dense perfbench-shaped chunk, hashed the way
# perfbench/workloads.stream_digest hashes a stream; taken before the sampler
# memoised its per-pattern work, so it holds the library stream unchanged
DENSE_CHUNK_DIGEST = "076fc87051044da4194b38a2eab2d588847fcd0d8917f9f1aa8b4e17a8741ccb"


def test_dense_chunk_stream_is_pinned():
    stream = sample_events(50000, Fraction(1, 20), derived_seed(1, 0), Fraction(1, 10))
    text = repr([(e.pulse_index, e.pattern, e.event_class.wire, e.herald_veto) for e in stream])
    assert hashlib.sha256(text.encode()).hexdigest() == DENSE_CHUNK_DIGEST
