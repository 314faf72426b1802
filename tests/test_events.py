"""Trigger post-selection, classification, pairing, loss, and the sampler."""

import copy
import dataclasses
import gc
import hashlib
import inspect
import json
import math
import operator
import pickle
import random
import sys
import tracemalloc
from bisect import bisect_right
from collections import Counter, deque
from itertools import accumulate, product

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from ghzsim.circuit import ModeTransform, OpticalCircuit, innsbruck_circuit
from ghzsim.events import (
    EVENT_CLASSES,
    ConfigurationError,
    EventClass,
    DETECTOR_MODES,
    EventKind,
    PairingViolationError,
    REASON_MULTI_TRIGGER,
    REASON_NO_TRIGGER,
    REASON_UNPAIRED,
    STATIONS,
    Station,
    classify_pattern,
    derived_seed,
    double_trigger_component,
    event_class_from_wire,
    filter_loss_demo,
    heralded_state,
    pairing_report,
    read_pattern,
    remove_photons,
    sample_events,
    single_pair_emission,
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
    over_one_denominator,
    rational,
    substitute,
)
from ghzsim.measurement import all_setting_triples, analyzer_transform
from ghzsim.sampler import (
    EVENT,
    MAX_BLOCK,
    SKIP_PRECISION,
    WORD,
    SampledEvent,
    summarize_events,
    _Sampler,
    _output_table,
    _skip_bounds,
)
from reference import pattern_distribution


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
        assert read_pattern(pattern)[1].count(0) == 2
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
    assert len({event.wire for event in EVENT_CLASSES}) == len(EVENT_CLASSES) == 14
    for event in EVENT_CLASSES:
        assert event_class_from_wire(event.wire) == event


def test_the_classifier_writes_exactly_the_listed_classes():
    modes = sorted(DETECTOR_MODES)
    patterns = [
        as_pattern(zip(modes, counts))
        for counts in product(range(5), repeat=len(modes))
        if sum(counts) <= 4
    ]
    assert {classify_pattern(pattern) for pattern in patterns} == set(EVENT_CLASSES)


def _sampler_output_patterns():
    """Every pattern of every output table the sampler can draw from at
    p = 1/20 and loss 1/10, the empty pattern of a fully lost component included."""
    sampler = _Sampler(Fraction(1, 20), Fraction(1, 10), 1000)
    components = {drawn[1] for drawn in sampler.emission.values if drawn is not None}
    survivors = {kept for c in components for kept, _ in sampler.survivors[c].values}
    patterns = {()} if () in survivors else set()
    for kept in survivors - {()}:
        patterns.update(pattern for pattern, _ in _output_table(kept).values)
    return patterns


def _analyzer_rules(triple, conjugate):
    """The three stations' analyzer rules of ``triple``, merged into one map."""
    rules = {}
    for station, setting in zip(STATIONS, (triple.g, triple.h, triple.z)):
        rules.update(analyzer_transform(station, setting, conjugate).rules)
    return rules


def test_tables_and_classifier_agree_on_right_events():
    # the outcome tables count a pattern as right exactly when the classifier does
    state = heralded_state()
    analysed = {
        pattern
        for conjugate in (False, True)
        for triple in all_setting_triples()
        for pattern in pattern_distribution(substitute(state, _analyzer_rules(triple, conjugate)))
    }
    sampled = _sampler_output_patterns()
    assert len(analysed) > 16 and len(sampled) > 16
    for pattern in analysed | sampled:
        right = classify_pattern(pattern).kind is EventKind.RIGHT
        assert right is (read_pattern(pattern)[2] is not None), pattern


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
    as_json = [json.dumps(EVENT[0](e), sort_keys=True) for e in first]
    again = [json.dumps(EVENT[0](e), sort_keys=True) for e in second]
    assert as_json == again


def test_sampler_zero_pair_prob_is_empty():
    assert list(sample_events(5000, Fraction(0), seed=1)) == []


def test_sampler_rejects_bad_probabilities():
    with pytest.raises(ConfigurationError):
        list(sample_events(10, Fraction(9, 10), seed=0))  # p + p^2 > 1
    with pytest.raises(ConfigurationError):
        list(sample_events(10, Fraction(1, 10), seed=0, loss_prob=Fraction(2)))


@pytest.mark.parametrize("pair_prob,loss_prob", [(0.05, Fraction(0)), (Fraction(1, 20), 0.1),
                                                (True, Fraction(0)), (Fraction(1, 20), True)])
def test_sampler_rejects_float_probabilities(pair_prob, loss_prob):
    # a float is a binary fraction: 0.05 would sample p = 3602879701896397/2^56;
    # a bool is no probability: loss True would lose every photon
    with pytest.raises(TypeError, match="exact rationals"):
        list(sample_events(2000, pair_prob, 1, loss_prob))


@pytest.mark.parametrize("pulses,pair_prob", [(5000.5, Fraction(1, 20)), (1e6, Fraction(1, 10**4)),
                                             (True, Fraction(1, 20))])
def test_sampler_rejects_a_float_pulse_count(monkeypatch, pulses, pair_prob):
    import ghzsim.events

    # one count per regime: dense at p = 1/20, sparse at p = 1/10^4
    seeded = []
    monkeypatch.setattr(ghzsim.events, "Random", lambda seed: seeded.append(seed))
    with pytest.raises(TypeError, match="pulse count must be an int"):
        next(sample_events(pulses, pair_prob, 1))
    assert seeded == []  # rejected before any draw


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
    assert EVENT[1](EVENT[0](event)) == event


# the class ``@dataclass(frozen=True)`` makes of SampledEvent's fields, its
# generated ``__init__`` included; SampledEvent's ``__new__`` must match it
_GeneratedEvent = dataclasses.make_dataclass(
    "SampledEvent",
    [(field.name, field.type) for field in dataclasses.fields(SampledEvent)],
    frozen=True,
)


def test_sampled_event_keeps_the_frozen_dataclass_contract():
    names = [field.name for field in dataclasses.fields(SampledEvent)]
    assert list(inspect.signature(SampledEvent).parameters) == names
    drawn = list(sample_events(2000, Fraction(1, 20), 11, Fraction(1, 10)))[:6]
    assert len(drawn) == 6
    first = drawn[0]
    values = dataclasses.astuple(first)
    assert SampledEvent(*values) == SampledEvent(**dict(zip(names, values))) == first
    for bad in (values[:-1], values + (0,)):
        with pytest.raises(TypeError):
            SampledEvent(*bad)
    with pytest.raises(TypeError):
        SampledEvent(*values, extra=0)
    moved = dataclasses.replace(first, pulse_index=first.pulse_index + 1)
    assert moved.pulse_index == first.pulse_index + 1 and moved.pattern == first.pattern
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.pulse_index = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        del first.pattern

    events = drawn + [moved, SampledEvent(*values)]
    twins = [_GeneratedEvent(*dataclasses.astuple(event)) for event in events]
    for event, twin in zip(events, twins):
        assert repr(event) == repr(twin) and hash(event) == hash(twin)
        assert not hasattr(event, "__dict__")  # the fields live in the tuple
        assert list(dataclasses.asdict(event).items()) == list(dataclasses.asdict(twin).items())
        plain = tuple(event)
        assert not event == plain and not plain == event and event != plain and plain != event
        for compare, record in product((operator.lt, operator.le, operator.gt, operator.ge),
                                       (event, twin)):  # neither record is ordered
            with pytest.raises(TypeError):
                compare(record, record)
        for rebuilt in (copy.copy(event), copy.deepcopy(event),
                        pickle.loads(pickle.dumps(event))):
            assert type(rebuilt) is SampledEvent and rebuilt == event
            assert dataclasses.asdict(rebuilt) == dataclasses.asdict(twin)
    for (a, twin_a), (b, twin_b) in product(zip(events, twins), repeat=2):
        assert (a == b) is (twin_a == twin_b)


def test_a_held_event_costs_no_more_than_a_plain_tuple():
    # an event held in memory is the tuple of its fields; a record that keeps
    # its fields in an instance ``__dict__`` costs about 95 bytes more
    values = [(event.pulse_index, event.pattern, event.event_class, event.herald_veto)
              for event in sample_events(250000, DENSE_P, 3, Fraction(1, 10))][:10**4]
    assert len(values) == 10**4

    def held_bytes(build) -> int:
        # CPython recycles freed 4-tuples from a free list that tracemalloc does
        # not see: holding 4000 empties it, so every plain tuple below is traced
        spare = [(n, n, n, n) for n in range(4000)]
        tracemalloc.start()
        held = [build(*fields) for fields in values]
        size = tracemalloc.get_traced_memory()[0]
        tracemalloc.stop()
        assert spare and len(held) == len(values)  # both lists were held while traced
        return size

    assert held_bytes(SampledEvent) - held_bytes(lambda *fields: fields) <= 16 * len(values)


def _python_calls(pulses: int):
    """(Python ``call`` events outside the frames of ``sample_events`` and
    ``_Sampler.draw``, events) of one dense draw, its per-process tables warm."""
    args = (pulses, DENSE_P, 5, Fraction(1, 10))
    deque(sample_events(*args), maxlen=0)
    skipped = {sample_events.__code__, _Sampler.draw.__code__}
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call" and frame.f_code not in skipped

    collecting = gc.isenabled()
    gc.disable()  # a collection would run the Python callbacks in gc.callbacks
    sys.setprofile(profile)
    try:
        drawn = list(sample_events(*args))
    finally:
        sys.setprofile(None)
        if collecting:
            gc.enable()
    return calls, len(drawn)


def test_a_dense_draw_runs_no_python_frame_per_event():
    # the set-up of a call runs Python frames; an event is built in C
    (short, few), (long, many) = _python_calls(50000), _python_calls(200000)
    assert many > 3 * few > 6000
    assert short == long


def test_detection_tables_are_built_once_per_process(monkeypatch):
    import ghzsim.sampler

    applied, classified = [], []
    apply = OpticalCircuit.apply

    def counting_apply(circuit, state):
        applied.append(state)
        return apply(circuit, state)

    def counting_classify(pattern):
        classified.append(pattern)
        return classify_pattern(pattern)

    monkeypatch.setattr(OpticalCircuit, "apply", counting_apply)
    monkeypatch.setattr(ghzsim.sampler, "classify_pattern", counting_classify)
    _output_table.cache_clear()
    args = (20000, Fraction(1, 10), 3, Fraction(1, 5))
    first = list(sample_events(*args))
    assert applied and classified and len({event.pattern for event in first}) > 1
    applied.clear()
    classified.clear()
    # the second call reuses every table: no circuit expansion, no classification
    assert list(sample_events(*args)) == first
    assert applied == [] and classified == []


def test_detection_table_cache_holds_at_most_one_table_per_sub_pattern():
    components = [*pattern_distribution(single_pair_emission()),
                  *pattern_distribution(two_pair_emission())]
    sub_patterns = {
        as_pattern({mode: kept for (mode, _), kept in zip(component, counts) if kept})
        for component in components
        for counts in product(*(range(count + 1) for _, count in component))
    } - {()}
    assert len(sub_patterns) == 25
    _output_table.cache_clear()
    for p, loss in product((DENSE_P, SPARSE_P),
                           (Fraction(0), Fraction(1, 10), Fraction(1, 2), Fraction(1))):
        list(sample_events(20000, p, 7, loss))
    assert 0 < _output_table.cache_info().currsize <= len(sub_patterns)


@pytest.mark.parametrize("p,loss", [(Fraction(1, 20), Fraction(1, 10)),
                                    (Fraction(1, 10**4), Fraction(0))])
def test_a_second_call_derives_no_emission_law(monkeypatch, p, loss):
    # the emission laws are kept per process, like the detection tables; the
    # tables of one pair and loss probability are built again per call
    import ghzsim.sampler

    derived = []
    real = ghzsim.sampler.born_terms

    def counting(state):
        derived.append(state)
        return real(state)

    monkeypatch.setattr(ghzsim.sampler, "born_terms", counting)
    ghzsim.sampler._emission_laws.cache_clear()
    _output_table.cache_clear()
    args = (20000 if p == DENSE_P else 10**6, p, 3, loss)
    first = list(sample_events(*args))
    assert first and len(derived) > 2
    derived.clear()
    assert list(sample_events(*args)) == first
    assert derived == []


def test_the_event_stream_annotation_resolves():
    import typing

    hints = typing.get_type_hints(sample_events)
    assert hints["return"] == typing.Iterator[SampledEvent]


@pytest.mark.parametrize("seed", [True, 1.0, "1", None])
def test_sampler_takes_an_int_seed(seed):
    # True and 1.0 drew seed 1's stream, and None an unseeded one
    with pytest.raises(TypeError, match="seed must be an int"):
        list(sample_events(2000, DENSE_P, seed))


def test_sampler_refuses_a_negative_seed():
    # Random folds the sign of its seed: -5 would draw the stream of 5
    assert random.Random(-5).getrandbits(WORD) == random.Random(5).getrandbits(WORD)
    with pytest.raises(ConfigurationError, match="seed -5 is negative"):
        list(sample_events(2000, DENSE_P, -5))


@pytest.mark.parametrize("seed,chunk", [(True, 0), (1.0, 0), ("1", 0), (1, True), (1, 0.0)])
def test_derived_seed_takes_int_arguments(seed, chunk):
    # derived_seed(True, 0) hashed "True:0", while sample_events drew seed 1
    with pytest.raises(TypeError, match="derived_seed: (seed|chunk index) must be an int"):
        derived_seed(seed, chunk)


def test_derived_seed_is_stable():
    assert derived_seed(42, 0) == derived_seed(42, 0)
    assert derived_seed(42, 0) != derived_seed(42, 1)
    streams = [
        list(sample_events(1000, Fraction(1, 20), seed=derived_seed(5, chunk)))
        for chunk in range(2)
    ]
    assert streams[0] != streams[1]


# sha256 of the repr of one dense perfbench-shaped chunk, hashed the way
# perfbench/workloads.stream_digest hashes a stream, as the exact
# geometric-gap sampler draws it
DENSE_CHUNK_DIGEST = "906ef2e9d568427fa171018b37afc06567346e8ed5a35c480ea1806f697579ce"


def test_dense_chunk_stream_is_pinned():
    stream = sample_events(50000, Fraction(1, 20), derived_seed(1, 0), Fraction(1, 10))
    text = repr([(e.pulse_index, e.pattern, e.event_class.wire, e.herald_veto) for e in stream])
    assert hashlib.sha256(text.encode()).hexdigest() == DENSE_CHUNK_DIGEST


# the same digest of one sparse perfbench-shaped chunk, drawn through the
# skip levels
SPARSE_CHUNK_DIGEST = "ba6b94ac695f8702f81432da86c30c655607a2ddbaea9c563e52b670c0309f1d"


def test_sparse_chunk_stream_is_pinned():
    stream = sample_events(10**6, Fraction(1, 10**4), derived_seed(1, 1))
    text = repr([(e.pulse_index, e.pattern, e.event_class.wire, e.herald_veto) for e in stream])
    assert hashlib.sha256(text.encode()).hexdigest() == SPARSE_CHUNK_DIGEST


# ---------------------------------------------------------------------------
# the sampler's exact law, checked without a seed
# ---------------------------------------------------------------------------

DENSE_P, SPARSE_P = Fraction(1, 20), Fraction(1, 10**4)
MASK = (1 << WORD) - 1


class _Words:
    """A stand-in random source that hands out the given words, then zeros."""

    def __init__(self, *words):
        self.words, self.drawn = list(words), 0

    def getrandbits(self, bits):
        assert bits == WORD
        self.drawn += 1
        return self.words.pop(0) if self.words else 0


def _pulse_law(p):
    """The exact probability that one pulse emits each component."""
    law = {c: p * w for c, w in pattern_distribution(single_pair_emission()).items()}
    law.update({c: p * p * w for c, w in pattern_distribution(two_pair_emission()).items()})
    return law


def _table_law(table):
    weights = [cut - below for cut, below in zip(table.cuts, [0, *table.cuts])]
    return {value: Fraction(w, table.den) for value, w in zip(table.values, weights)}


@pytest.mark.parametrize("p", [DENSE_P, SPARSE_P])
def test_emission_table_weights_are_the_rational_law(p):
    sampler = _Sampler(p, Fraction(0), 10**6)
    q, m = 1 - p - p * p, sampler.block
    assert sampler.skip == q**m and sampler.dense == (q**m <= Fraction(1, 2))
    assert sampler.dense == (p == DENSE_P)
    law = {(r, c): q**r * w for r in range(m) for c, w in _pulse_law(p).items()}
    if sampler.dense:  # one joint table: skip the block, or (offset, component)
        law[None] = q**m
    else:  # the emitting block is drawn first, so the table is conditioned on it
        law = {key: w / (1 - q**m) for key, w in law.items()}
    assert _table_law(sampler.emission) == law


@pytest.mark.parametrize("loss", [Fraction(1, 10), Fraction(2, 7), Fraction(1)])
def test_survivor_tables_are_the_rational_law(loss):
    sampler = _Sampler(DENSE_P, loss, 1000)
    for component in _pulse_law(DENSE_P):
        table = sampler.survivors[component]
        photons = [mode for mode, count in component for _ in range(count)]
        law = Counter()
        for removed in product((False, True), repeat=len(photons)):
            weight = math.prod(loss if gone else 1 - loss for gone in removed)
            kept = Counter(mode for mode, gone in zip(photons, removed) if not gone)
            law[(as_pattern(kept), any(removed))] += weight
        assert _table_law(table) == {key: w for key, w in law.items() if w}


def test_output_tables_are_the_rational_law():
    sampler = _Sampler(DENSE_P, Fraction(1, 10), 1000)
    components = {kept for component in _pulse_law(DENSE_P)
                  for kept, _ in sampler.survivors[component].values if kept}
    assert len(components) > 10
    for component in components:
        expanded = innsbruck_circuit().apply(monomial(component))
        law = _table_law(_output_table(component))
        assert all(event_class == classify_pattern(pattern) for pattern, event_class in law)
        assert {pattern: w for (pattern, _), w in law.items()} == pattern_distribution(expanded)


def test_dense_gap_law_is_exactly_geometric():
    sampler = _Sampler(DENSE_P, Fraction(0), 10**6)
    emit = DENSE_P + DENSE_P**2
    m, law = sampler.block, _table_law(sampler.emission)
    assert sampler.dense
    for k in range(3 * m):
        blocks, offset = divmod(k, m)
        emits = sum(w for key, w in law.items() if key is not None and key[0] == offset)
        assert law[None] ** blocks * emits == (1 - emit) ** k * emit


def _words_of(value):
    """``value`` in [0, 1) as its first two words."""
    return value >> WORD, value & MASK


def test_sparse_gap_law_is_exactly_geometric():
    sampler = _Sampler(SPARSE_P, Fraction(0), 10**6)
    emit, skip = SPARSE_P + SPARSE_P**2, sampler.skip
    assert not sampler.dense
    # skipped_blocks maps U to K = j exactly when skip^(j+1) <= U < skip^j:
    # feed U a hair below and a hair above each cut point skip^j; their first
    # word is the truncated cut point, so each draw must read a second word
    assert sampler.skipped_blocks(_Words(MASK, MASK), 8) == 0
    for j in range(1, 4):
        scaled = skip**j * 2 ** (2 * WORD)
        below = _Words(*_words_of(math.floor(scaled)))
        above = _Words(*_words_of(math.ceil(scaled)))
        assert sampler.skipped_blocks(below, 8) == j and below.drawn >= 2
        assert sampler.skipped_blocks(above, 8) == j - 1 and above.drawn >= 2
    assert sampler.skipped_blocks(_Words(0), 8) is None  # U < skip^8: past the 8 blocks
    law, m = _table_law(sampler.emission), sampler.block
    for k in range(3 * m):
        blocks, offset = divmod(k, m)
        emits = sum(w for (r, _), w in law.items() if r == offset)
        assert (skip**blocks - skip ** (blocks + 1)) * emits == (1 - emit) ** k * emit


def _word_for(table, value):
    """A word that draws ``value`` from ``table`` on the fast path."""
    i = table.values.index(value)
    return ((table.cuts[i - 1] << WORD) // table.den + 1) if i else 0


@pytest.mark.parametrize("p", [DENSE_P, SPARSE_P])
def test_an_emission_lands_after_the_skipped_blocks_at_its_offset(monkeypatch, p):
    import ghzsim.events

    sampler = _Sampler(p, Fraction(0), 10**6)
    m, table = sampler.block, sampler.emission
    offset, component = drawn = next(v for v in table.values if v and v[0] == 3)
    if sampler.dense:  # skip, skip, then (3, component)
        words = [_word_for(table, None)] * 2 + [_word_for(table, drawn)]
    else:  # U just below skip^2 gives two empty blocks
        words = [math.floor(sampler.skip**2 * 2**WORD) - 1, _word_for(table, drawn)]
    # then a zero word: the first pattern of the component's output table
    first_pattern = _output_table(component).values[0][0]
    for pulses, landed in ((10**6, (2 * m + 3, first_pattern)), (2 * m + 3, None)):
        monkeypatch.setattr(ghzsim.events, "Random", lambda seed: _Words(*words))
        event = next(sample_events(pulses, p, seed=0), None)
        assert landed == (event and (event.pulse_index, event.pattern))


@pytest.mark.parametrize("pulses", [1, 64])
def test_an_emission_on_the_last_pulse_ends_the_stream(monkeypatch, pulses):
    import ghzsim.events

    for p in (Fraction(1, 100), DENSE_P):  # either gap path
        sampler = _Sampler(p, Fraction(0), pulses)
        table = sampler.emission
        blocks, offset = divmod(pulses - 1, sampler.block)
        last = _word_for(table, next(v for v in table.values if v and v[0] == offset))
        if sampler.dense:  # skip the blocks before the last pulse's, then its offset
            words = [_word_for(table, None)] * blocks + [last]
        else:
            # at p = 1/100 even a block of 64 pulses is empty more than half
            # the time, so the gap comes from the skip levels, here a single
            # one; U near 1 skips no block
            assert sampler.block == 64 and len(sampler.skip_bounds) == 1
            words = [MASK, last]
        rng = _Words(*words)
        monkeypatch.setattr(ghzsim.events, "Random", lambda seed: rng)
        events = list(sample_events(pulses, p, seed=0))
        assert [event.pulse_index for event in events] == [pulses - 1]
        # then the pattern's word, and no word once the pulses are used up
        assert rng.drawn == len(words) + 1


@pytest.mark.parametrize("tied", [1, 2])
def test_words_on_a_truncated_cut_point_settle_on_the_exact_bucket(tied):
    # the first ``tied`` words are a cut point truncated to that many words,
    # so the draw must read one more word before it can decide
    table = _Sampler(DENSE_P, Fraction(0), 1000).emission
    for cut in table.cuts[:-1]:
        leading = (cut << (tied * WORD)) // table.den
        words = [leading >> (WORD * k) & MASK for k in reversed(range(tied))]
        for last in (0, MASK):
            rng = _Words(*words, last)
            u = Fraction((leading << WORD) + last, 2 ** ((tied + 1) * WORD))  # then zeros
            bucket = sum(1 for c in table.cuts if c <= u * table.den)
            assert _draw(table, rng) == table.values[bucket] and rng.drawn >= tied + 1


@pytest.mark.parametrize("precision", [SKIP_PRECISION, 2 * SKIP_PRECISION])
def test_skip_level_bounds_contain_the_exact_powers(precision):
    sampler = _Sampler(SPARSE_P, Fraction(0), 10**4)
    bounds = _skip_bounds(sampler.skip, len(sampler.skip_bounds), precision)
    if precision == SKIP_PRECISION:
        assert bounds == sampler.skip_bounds
    assert len(bounds) == 9
    num, den = sampler.skip.numerator, sampler.skip.denominator  # skip^(2^j), exact
    for j, (lo, hi) in enumerate(bounds):
        assert lo * den <= num << precision <= hi * den, j
        if j + 1 < len(bounds):
            num, den = num * num, den * den


def test_words_drawn_per_event_do_not_grow_with_the_pulse_count(monkeypatch):
    import ghzsim.events

    drawn = []

    class Counting(random.Random):
        def getrandbits(self, bits):
            drawn.append(bits)
            return super().getrandbits(bits)

    monkeypatch.setattr(ghzsim.events, "Random", Counting)
    for pulses, p in ((10**6, Fraction(1, 10**4)), (10**10, Fraction(1, 10**8))):
        drawn.clear()
        events = list(sample_events(pulses, p, seed=5))
        assert 60 < len(events) < 140
        # per event one word for the gap, one for (offset, component) and one
        # for the pattern; one more gap word finds no emission before the end
        assert drawn == [WORD] * (3 * len(events) + 1)


@pytest.mark.parametrize("p,loss", [(Fraction(1, 25), Fraction(1, 10)),
                                    (SPARSE_P, Fraction(0))])
def test_seeded_chunks_concatenate_to_one_deterministic_stream(p, loss):
    chunk_pulses, chunks = 10**5 if p == SPARSE_P else 10**4, 4

    def whole():
        return [
            dataclasses.replace(event, pulse_index=k * chunk_pulses + event.pulse_index)
            for k in range(chunks)
            for event in sample_events(chunk_pulses, p, derived_seed(7, k), loss)
        ]

    first = whole()
    assert first == whole() and len(first) > 20
    indices = [event.pulse_index for event in first]
    assert all(a < b for a, b in zip(indices, indices[1:]))
    assert 0 <= indices[0] and indices[-1] < chunks * chunk_pulses


# ---------------------------------------------------------------------------
# the draw chains, held word for word to the reference loop
# ---------------------------------------------------------------------------


def _draw(table, rng):
    """One draw from a ``_Table``: a word bisected on the truncated cut
    points, settled exactly when it ties with one."""
    u = rng.getrandbits(WORD)
    i = bisect_right(table._leading, u)
    if table._leading[i - 1] != u:
        return table.values[i]
    return table.values[table._settle(rng, u)]


def _next_emission(sampler, rng, pulse, pulses):
    """(index, component) of the first emitting pulse from ``pulse`` on, or
    None when there is none below ``pulses``."""
    if pulse >= pulses:
        return None
    if sampler.dense:
        while pulse < pulses:
            drawn = _draw(sampler.emission, rng)
            if drawn is not None:
                break
            pulse += sampler.block
        else:
            return None
    else:
        blocks = sampler.skipped_blocks(rng, -(-(pulses - pulse) // sampler.block))
        if blocks is None:
            return None
        pulse += blocks * sampler.block
        drawn = _draw(sampler.emission, rng)
    offset, component = drawn
    pulse += offset
    return (pulse, component) if pulse < pulses else None


def _reference_stream(pulses, pair_prob, rng, loss_prob=Fraction(0)):
    """The event stream of ``sample_events`` drawn one lookup at a time: the
    next emission, then the survivor table looked up by its component, then
    the output table looked up by the surviving pattern, each through
    :func:`_draw`."""
    sampler = _Sampler(pair_prob, loss_prob, pulses)
    pulse = 0
    while (emitted := _next_emission(sampler, rng, pulse, pulses)) is not None:
        pulse, component = emitted
        veto = False
        if sampler.survivors:
            component, veto = _draw(sampler.survivors[component], rng)
        if component:
            pattern, event_class = _draw(_output_table(component), rng)
        else:
            pattern, event_class = (), classify_pattern(())
        yield SampledEvent(pulse, pattern, event_class, veto)
        pulse += 1


class _CountingRandom(random.Random):
    """A seeded ``Random`` that records each ``getrandbits`` call: (bits, word)."""

    def __init__(self, seed):
        self.calls = []
        super().__init__(seed)

    def getrandbits(self, bits):
        word = super().getrandbits(bits)
        self.calls.append((bits, word))
        return word


def _sample_through(monkeypatch, rng, *args):
    """``sample_events(*args)`` with ``rng`` as its random source."""
    import ghzsim.events

    monkeypatch.setattr(ghzsim.events, "Random", lambda seed: rng)
    return list(sample_events(*args))


# (pair probability, most pulses): two dense and two sparse regimes, each
# sized to emit a few hundred events at most
REGIMES = [(DENSE_P, 6000), (Fraction(2, 7), 1000), (SPARSE_P, 10**6), (Fraction(3, 10**6), 10**8)]
LOSSES = (st.sampled_from([Fraction(0), Fraction(1, 10), Fraction(1, 2), Fraction(1)])
          | st.fractions(0, 1, max_denominator=1000))


def test_the_regimes_cover_both_gap_paths():
    assert [_Sampler(p, Fraction(0), pulses).dense for p, pulses in REGIMES] == [
        True, True, False, False]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(REGIMES).flatmap(
           lambda regime: st.tuples(st.just(regime[0]), st.integers(1, regime[1]))),
       LOSSES, st.integers(0, 2**64))
def test_the_stream_is_the_reference_stream_word_for_word(regime, loss, seed):
    p, pulses = regime
    rng = _CountingRandom(seed)
    with pytest.MonkeyPatch.context() as monkeypatch:
        events = _sample_through(monkeypatch, rng, pulses, p, seed, loss)
    reference = _CountingRandom(seed)
    assert events == list(_reference_stream(pulses, p, reference, loss))
    assert rng.calls == reference.calls


@pytest.mark.parametrize("last", [0, MASK])
@pytest.mark.parametrize("stage", ["emission", "survivors", "output"])
def test_a_tied_word_settles_as_in_the_reference_at_each_stage(monkeypatch, stage, last):
    # one pulse and one event: the emission at offset 0, the survivors, then
    # the pattern.  The stage's first word is a truncated cut point, so it
    # reads ``last`` and maybe more before it decides; with no tie an event
    # reads at most 3 words
    loss = Fraction(1, 10)
    sampler = _Sampler(DENSE_P, loss, 1)
    emission = sampler.emission
    k = 1  # the cut point between the first two offset-0 values
    assert emission.values[k][0] == emission.values[k + 1][0] == 0
    component = emission.values[k][1]
    survivors, output = sampler.survivors[component], _output_table(component)
    j = len(survivors.values) // 2
    words = {
        "emission": [emission._leading[k], last, MASK],  # MASK: every photon survives
        "survivors": [_word_for(emission, emission.values[k]), survivors._leading[j], last],
        "output": [_word_for(emission, emission.values[k]),
                   _word_for(survivors, (component, False)),
                   output._leading[len(output.values) // 2], last],
    }[stage]
    rng, reference = _Words(*words), _Words(*words)
    assert _sample_through(monkeypatch, rng, 1, DENSE_P, 0, loss) == list(
        _reference_stream(1, DENSE_P, reference, loss))
    assert rng.drawn == reference.drawn >= 4


@pytest.mark.parametrize("p", [DENSE_P, Fraction(2, 7), SPARSE_P, Fraction(1, 100),
                               Fraction(3, 10**6)])
def test_offset_weights_are_the_pow_formula(p):
    # per (offset, component): q^offset * den^(block-1-offset) * weight, each
    # power taken with pow, over den^block * common
    one_pair = pattern_distribution(single_pair_emission())
    two_pair = pattern_distribution(two_pair_emission())
    weights, common = over_one_denominator([*one_pair.values(), *two_pair.values()])
    a, b = p.numerator, p.denominator
    per_pulse = ([(c, a * b * n) for c, n in zip(one_pair, weights)]
                 + [(c, a * a * n) for c, n in zip(two_pair, weights[len(one_pair):])])
    den, q_num = b * b, b * b - a * b - a * a
    block = next((m for m in range(1, MAX_BLOCK + 1) if 2 * q_num**m <= den**m), MAX_BLOCK)
    weighted = [((offset, c), q_num**offset * den ** (block - 1 - offset) * n)
                for offset in range(block) for c, n in per_pulse]
    sampler = _Sampler(p, Fraction(0), 10**6)
    if sampler.dense:
        weighted.append((None, q_num**block * common))
    assert sampler.block == block
    assert sampler.emission.values == [value for value, _ in weighted]
    assert sampler.emission.cuts == list(accumulate(w for _, w in weighted))


@pytest.mark.parametrize("p", [DENSE_P, SPARSE_P])
def test_the_first_event_of_a_cold_call_builds_one_output_table(p):
    # output tables are built as events need them, not when a call starts
    _output_table.cache_clear()
    first = next(sample_events(50000 if p == DENSE_P else 10**6, p, 3, Fraction(1, 10)))
    assert first.pattern and _output_table.cache_info().misses == 1
