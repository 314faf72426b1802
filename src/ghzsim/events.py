"""Emission states, trigger post-selection, the detector model, event
classification, the heralded state and the event stream.

The pulsed source emits polarization-entangled pairs into beams a and b.
The first-order process creates one pair, the second-order process two
identical pairs; the trigger detector post-selects the component with
exactly one H photon in beam a.  Detection patterns behind the circuit are
classified as right events (one photon at each station), wrong pairs (a
two-photon station paired with an empty one), double non-detections (the
single-pair background) or trigger failures.

The detector model is stated once, here: each station mode's station and ±1
readout, :data:`DETECTOR_MODES`, and :func:`read_pattern`, the one rule for a
right event (one trigger photon and one photon at each station), which
:func:`classify_pattern` and the outcome tables of :mod:`ghzsim.measurement`
both read.

Filter loss is modeled as an event-level heralded removal channel: a
removed photon simply disappears from the pattern and raises the herald
flag.  The redefined trigger — a single trigger photon *and* no herald
click — discards every loss-contaminated event.

The heralded state is derived once per process; its outcome tables live in
:mod:`ghzsim.measurement`, which the event stream never loads.  The event
stream (:func:`sample_events`) draws through the tables of
:mod:`ghzsim.sampler`, which only a call of it loads.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache
from random import Random
from typing import Dict, Iterator, Mapping, Optional, Tuple

import ghzsim  # names the sampler's event type in sample_events' annotation, loading nothing

from .circuit import innsbruck_circuit
from .fock import (
    AH,
    AV,
    BH,
    BV,
    Beam,
    GhzsimError,
    INT,
    Mode,
    PATTERN,
    Pattern,
    Polarization,
    Record,
    StatePolynomial,
    TERM,
    TERMS,
    TEXT,
    TRIGGER,
    as_pattern,
    creation,
    derived_codec,
    exact,
    filter_terms,
    gamma_power,
    mapping_codec,
    occupation,
    pattern_to_json,
    record_codec,
    require_type,
    terms_codec,
    tuple_codec,
)


class ConfigurationError(GhzsimError):
    """Invalid sampler or channel configuration."""


class PairingViolationError(GhzsimError):
    """A term of a post-trigger expansion is neither right nor a wrong pair."""

    def __init__(self, message: str, pattern: Pattern):
        super().__init__(message)
        self.pattern = pattern


# ---------------------------------------------------------------------------
# Emission states
# ---------------------------------------------------------------------------


def single_pair_emission() -> StatePolynomial:
    """First-order emission: gamma * (aV† bH† − aH† bV†)."""
    coupling = gamma_power(1)
    return (creation(AV) * creation(BH) - creation(AH) * creation(BV)) * coupling


def two_pair_emission() -> StatePolynomial:
    """Second-order emission: the exact square of the single-pair state."""
    return single_pair_emission() ** 2


def double_trigger_component() -> StatePolynomial:
    """The (aH† bV†)² component of the two-pair emission.

    Harmless with an ideal trigger, but the component that fools a naive
    trigger once a filter removes one of its two H photons.
    """
    return filter_terms(two_pair_emission(), lambda pat: occupation(pat, AH) == 2)


def trigger_select(state: StatePolynomial) -> StatePolynomial:
    """Keep the emission components with exactly one trigger-arm photon.

    Drops the double-H component (two photons at the trigger detector) and
    the zero-H component (no trigger click).  The input must be an emission
    state, i.e. supported on beams a and b only.
    """
    for pattern in state.terms:
        beams = {mode.beam for mode, _ in pattern}
        if beams - {Beam.A, Beam.B}:
            raise ConfigurationError(
                "trigger selection applies to emission states on beams a/b only"
            )
        if not beams & {Beam.A, Beam.B}:
            raise ConfigurationError("emission term carries no a/b photons")
    return filter_terms(state, lambda pat: occupation(pat, AH) == 1)


# ---------------------------------------------------------------------------
# The detector model
# ---------------------------------------------------------------------------


class Station(Enum):
    __hash__ = object.__hash__  # members are singletons: hashed by identity, in C

    G = Beam.G
    H = Beam.H
    Z = Beam.Z

    @property
    def beam(self) -> Beam:
        return self.value


STATIONS = (Station.G, Station.H, Station.Z)

Outcome = Tuple[int, int, int]

# (station index, readout) of each station mode
_STATION_READOUT: Dict[Mode, Tuple[int, int]] = {
    Mode(station.beam, polarization): (
        index, 1 if polarization is Polarization.H else -1
    )
    for index, station in enumerate(STATIONS)
    for polarization in Polarization
}

# the modes a detection pattern may occupy: the trigger and the six station modes
DETECTOR_MODES = frozenset((TRIGGER, *_STATION_READOUT))


def read_pattern(pattern: Pattern) -> Tuple[int, Tuple[int, int, int], Outcome | None]:
    """(trigger photons, photons at stations G, H and Z, outcome) of a detection
    pattern over :data:`DETECTOR_MODES`.

    The outcome is the readout triple of a right event — one trigger photon and
    one photon at each station — and None for every other pattern.  A photon in
    any mode outside :data:`DETECTOR_MODES` raises ValueError naming the mode.
    """
    trigger = 0
    hits = [0, 0, 0]
    reads = [0, 0, 0]
    for mode, count in pattern:
        if mode is TRIGGER:
            trigger = count
            continue
        readout = _STATION_READOUT.get(mode)
        if readout is None:
            raise ValueError(f"mode {mode} is not a detector mode")
        station, read = readout
        hits[station] += count
        reads[station] = read
    right = trigger == 1 and hits == [1, 1, 1]
    return trigger, tuple(hits), tuple(reads) if right else None  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# Event classification
# ---------------------------------------------------------------------------


class EventKind(Enum):
    __hash__ = object.__hash__  # members are singletons: hashed by identity, in C

    RIGHT = "right"
    WRONG_PAIR = "wrong-pair"
    DOUBLE_NON_DETECTION = "double-non-detection"
    TRIGGER_FAILURE = "trigger-failure"


REASON_NO_TRIGGER = "no-trigger"
REASON_MULTI_TRIGGER = "multiple-trigger-photons"
REASON_UNPAIRED = "unpaired-wrong-pattern"
TRIGGER_FAILURE_REASONS = (REASON_NO_TRIGGER, REASON_MULTI_TRIGGER, REASON_UNPAIRED)


def _station_pair(text: str) -> Tuple[Station, Station]:
    wrong_pair = event_class_from_wire(f"wrong-pair:{text}")
    return wrong_pair.double_station, wrong_pair.empty_station


# a (double, empty) station pair, e.g. "G,H": a wrong-pair class and a census key;
# it decodes exactly the station pairs of the wrong-pair classes in EVENT_CLASSES
STATION_PAIR = (lambda pair: f"{pair[0].name},{pair[1].name}", _station_pair)


class EventClass(Record):
    """Classification of one detection pattern."""

    __slots__ = _fields = ("kind", "double_station", "empty_station", "lone_station", "reason")

    def __init__(self, kind: EventKind, double_station: Optional[Station] = None,
                 empty_station: Optional[Station] = None,
                 lone_station: Optional[Station] = None, reason: Optional[str] = None) -> None:
        self._set(kind, double_station, empty_station, lone_station, reason)

    @classmethod
    def right(cls) -> "EventClass":
        return cls(EventKind.RIGHT)

    @classmethod
    def wrong_pair(cls, double: Station, empty: Station) -> "EventClass":
        return cls(EventKind.WRONG_PAIR, double_station=double, empty_station=empty)

    @classmethod
    def double_non_detection(cls, lone: Optional[Station]) -> "EventClass":
        return cls(EventKind.DOUBLE_NON_DETECTION, lone_station=lone)

    @classmethod
    def trigger_failure(cls, reason: str) -> "EventClass":
        return cls(EventKind.TRIGGER_FAILURE, reason=reason)

    @property
    def wire(self) -> str:
        if self.kind is EventKind.RIGHT:
            return "right"
        if self.kind is EventKind.WRONG_PAIR:
            return f"wrong-pair:{STATION_PAIR[0]((self.double_station, self.empty_station))}"
        if self.kind is EventKind.DOUBLE_NON_DETECTION:
            lone = self.lone_station.name if self.lone_station else "none"
            return f"double-non-detection:{lone}"
        return f"trigger-failure:{self.reason}"

    def __str__(self) -> str:
        return self.wire


# every class classify_pattern returns, each once
EVENT_CLASSES: Tuple[EventClass, ...] = (
    EventClass.right(),
    *(EventClass.wrong_pair(double, empty)
      for double in STATIONS for empty in STATIONS if double is not empty),
    *(EventClass.double_non_detection(lone) for lone in (*STATIONS, None)),
    *(EventClass.trigger_failure(reason) for reason in TRIGGER_FAILURE_REASONS),
)
_CLASS_BY_WIRE = {event_class.wire: event_class for event_class in EVENT_CLASSES}


def event_class_from_wire(text: str) -> EventClass:
    try:
        return _CLASS_BY_WIRE[text]
    except KeyError:
        raise ValueError(f"unknown event class {text!r}") from None


def classify_pattern(pattern) -> EventClass:
    """The class in :data:`EVENT_CLASSES` of a detection pattern.

    :func:`read_pattern` reads the pattern, so a photon outside
    :data:`DETECTOR_MODES` raises ValueError, and the pattern is a right
    event exactly when the outcome tables give it an outcome.  Every
    other pattern with one trigger photon is a wrong pair (one station holds
    two photons and another none), a double non-detection (at most one
    station photon) or an unpaired leftover that only loss produces.
    """
    trigger, counts, outcome = read_pattern(as_pattern(pattern))
    if trigger == 0:
        return EventClass.trigger_failure(REASON_NO_TRIGGER)
    if trigger > 1:
        return EventClass.trigger_failure(REASON_MULTI_TRIGGER)
    if outcome is not None:
        return EventClass.right()
    if sorted(counts) == [0, 1, 2]:
        return EventClass.wrong_pair(STATIONS[counts.index(2)], STATIONS[counts.index(0)])
    if sum(counts) <= 1:
        lone = STATIONS[counts.index(1)] if 1 in counts else None
        return EventClass.double_non_detection(lone)
    # loss-contaminated leftovers: not producible by the loss-free process
    return EventClass.trigger_failure(REASON_UNPAIRED)


EVENT_CLASS = (lambda event_class: event_class.wire,
               lambda text: event_class_from_wire(TEXT[1](text)))
# a (pattern, class) pair; and the terms of a heralded state, each with its class
CLASSIFICATION = tuple_codec(("pattern", PATTERN), ("class", EVENT_CLASS))
CLASSIFIED_TERMS = terms_codec(derived_codec(TERM, "class",
                                             lambda term: classify_pattern(term[0]).wire))


class PairingReport(Record):
    """Census of the wrong-pair structure of a post-trigger expansion.

    ``census`` maps each (double, empty) station pair to its term count.
    """

    __slots__ = _fields = ("right_terms", "wrong_terms", "census")

    def __init__(self, right_terms: int, wrong_terms: int,
                 census: Mapping[Tuple[Station, Station], int]) -> None:
        if wrong_terms != sum(census.values()):
            raise ValueError(f"wrong_terms {wrong_terms} is not the census sum")
        self._set(right_terms, wrong_terms, census)


def pairing_report(state: StatePolynomial) -> PairingReport:
    """Check that every non-right term of ``state`` is a wrong pair.

    Raises :class:`PairingViolationError` (carrying the offending pattern)
    if any term has some other shape.
    """
    right = 0
    census: Dict[Tuple[Station, Station], int] = {}
    for pattern in state.terms:
        event = classify_pattern(pattern)
        if event.kind is EventKind.RIGHT:
            right += 1
        elif event.kind is EventKind.WRONG_PAIR:
            key = (event.double_station, event.empty_station)
            census[key] = census.get(key, 0) + 1
        else:
            raise PairingViolationError(
                f"term {pattern_to_json(pattern)} classifies as {event.wire}, "
                "violating the pairing property",
                pattern,
            )
    return PairingReport(right, sum(census.values()), census)


PAIRING_REPORT = record_codec(
    PairingReport,
    ("right_terms", "right_terms", INT),
    ("wrong_terms", "wrong_terms", INT),
    ("census", "census", mapping_codec(STATION_PAIR, INT)),
)


# ---------------------------------------------------------------------------
# Filter loss and the redefined trigger
# ---------------------------------------------------------------------------


def remove_photons(state: StatePolynomial, mode: Mode, count: int = 1) -> StatePolynomial:
    """Event-level removal: decrement ``mode`` by ``count`` in every term.

    This is heralded-loss bookkeeping, not an annihilation operator: the
    coefficients are unchanged and terms with fewer than ``count`` photons
    in ``mode`` are dropped.
    """
    out = []
    for pattern, coeff in state.terms.items():
        have = occupation(pattern, mode)
        if have < count:
            continue
        reduced = {m: n for m, n in pattern}
        reduced[mode] = have - count
        out.append((reduced, coeff))
    return StatePolynomial(out)


LOSS_SCENARIOS = ("none", "one-a-H", "two-a-H", "one-b-V")

_circuit = lru_cache(maxsize=None)(innsbruck_circuit)  # built once per process


class FilterLossDemo(Record):
    """Side-by-side classification under the naive and redefined triggers."""

    __slots__ = _fields = ("scenario", "herald_clicks", "naive_trigger_fires", "naive_outcomes",
                           "redefined_accepted", "redefined_outcomes")


def filter_loss_demo(removed: str) -> FilterLossDemo:
    """Demonstrate what a filter removal does to the trigger statistics.

    ``removed`` selects the scenario: ``"none"`` (no loss, applied to the
    post-trigger two-pair component), ``"one-a-H"`` / ``"two-a-H"``
    (removal of one or both H photons from the double-H component) and
    ``"one-b-V"`` (removal of one beam-b photon from the post-trigger
    component, producing missing counts).
    """
    if removed not in LOSS_SCENARIOS:
        raise ConfigurationError(
            f"unknown removal scenario {removed!r}; choose one of {LOSS_SCENARIOS}"
        )
    if removed == "none":
        component, herald = trigger_select(two_pair_emission()), 0
    elif removed == "one-a-H":
        component, herald = remove_photons(double_trigger_component(), AH, 1), 1
    elif removed == "two-a-H":
        component, herald = remove_photons(double_trigger_component(), AH, 2), 2
    else:  # one-b-V
        component, herald = remove_photons(trigger_select(two_pair_emission()), BV, 1), 1

    expanded = _circuit().apply(component)
    outcomes = tuple(
        (pattern, classify_pattern(pattern)) for pattern in expanded.terms
    )
    fires = all(read_pattern(p)[0] == 1 for p, _ in outcomes) and bool(outcomes)
    accepted = fires and herald == 0
    return FilterLossDemo(
        scenario=removed,
        herald_clicks=herald,
        naive_trigger_fires=fires,
        naive_outcomes=outcomes,
        redefined_accepted=accepted,
        redefined_outcomes=outcomes if accepted else (),
    )


# ---------------------------------------------------------------------------
# The heralded state
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def heralded_state() -> StatePolynomial:
    """The post-trigger three-station state behind the circuit."""
    return innsbruck_circuit().apply(trigger_select(two_pair_emission()))


# the stages of heralded_state: (emission, post-trigger, heralded)
DERIVATION = tuple_codec(("two_pair_emission", TERMS), ("post_trigger", TERMS),
                         ("behind_circuit", CLASSIFIED_TERMS))


# ---------------------------------------------------------------------------
# Monte Carlo event sampler
# ---------------------------------------------------------------------------


def derived_seed(seed: int, chunk_index: int) -> int:
    """Seed for a split pulse range: first 8 bytes of sha256(seed:chunk)."""
    require_type(int, seed, "derived_seed: seed must be an int")
    require_type(int, chunk_index, "derived_seed: chunk index must be an int")
    import hashlib  # deferred: the CLI never derives a seed, and hashlib loads OpenSSL

    digest = hashlib.sha256(f"{seed}:{chunk_index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def sample_events(
    pulses: int,
    pair_prob: Fraction,
    seed: int,
    loss_prob: Fraction = Fraction(0),
) -> Iterator[ghzsim.sampler.SampledEvent]:
    """Deterministic event stream for ``pulses`` pump pulses, drawn exactly.

    A pulse emits two pairs with probability ``pair_prob**2``, one pair with
    ``pair_prob``, and nothing otherwise; when loss is enabled each photon is
    then removed with probability ``loss_prob``.  The events are drawn by
    :meth:`ghzsim.sampler._Sampler.draw`, exactly and without visiting an
    empty pulse, so the work of a call grows with the events it emits, not
    with ``pulses``.

    ``pulses`` and ``seed`` are non-negative ``int`` and both probabilities pass
    :func:`ghzsim.fock.exact`; a float or a ``bool`` raises ``TypeError``.

    Identical arguments yield byte-identical streams.  Draws are made per
    emitted event, not per pulse, so changing a probability or the seed
    gives another stream.  For parallel generation split the pulse range
    and seed each chunk with :func:`derived_seed`.

    Conditioning on ``herald_veto=False`` recovers the loss-free statistics
    exactly within each emission sector; across sectors the mix shifts by
    the survival factor ``(1-loss_prob)**n`` of an n-photon component,
    which is the physical effect of a heralded loss channel.
    """
    for name, value in (("pulse count", pulses), ("seed", seed)):
        require_type(int, value, f"{name} must be an int")
        if value < 0:  # Random would fold a seed's sign: -5 would draw the stream of 5
            raise ConfigurationError(f"{name} {value} is negative")
    if not exact((pair_prob, loss_prob)):
        raise TypeError(f"probabilities must be exact rationals, got {pair_prob!r}, {loss_prob!r}")
    pair_prob, loss_prob = Fraction(pair_prob), Fraction(loss_prob)
    if not 0 <= pair_prob < 1 or pair_prob + pair_prob**2 > 1:
        raise ConfigurationError(
            f"pair probability {pair_prob} leaves no room for the empty pulse"
        )
    if not 0 <= loss_prob <= 1:
        raise ConfigurationError(f"loss probability {loss_prob} outside [0, 1]")
    if not pulses or not pair_prob:
        return
    from .sampler import _Sampler

    yield from _Sampler(pair_prob, loss_prob, pulses).draw(Random(seed))
