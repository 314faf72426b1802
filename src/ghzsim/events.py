"""Emission states, trigger post-selection, event classification and sampling.

The pulsed source emits polarization-entangled pairs into beams a and b.
The first-order process creates one pair, the second-order process two
identical pairs; the trigger detector post-selects the component with
exactly one H photon in beam a.  Detection patterns behind the circuit are
classified as right events (one photon at each station), wrong pairs (a
two-photon station paired with an empty one), double non-detections (the
single-pair background) or trigger failures.

Filter loss is modeled as an event-level heralded removal channel: a
removed photon simply disappears from the pattern and raises the herald
flag.  The redefined trigger — a single trigger photon *and* no herald
click — discards every loss-contaminated event.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Dict, Iterable, Iterator, Mapping, Optional, Tuple

from .circuit import OpticalCircuit, innsbruck_circuit
from .fock import (
    AH,
    AV,
    BH,
    BOOL,
    BV,
    Beam,
    GhzsimError,
    INT,
    Mode,
    PATTERN,
    Pattern,
    StatePolynomial,
    TERM,
    TRIGGER,
    as_pattern,
    beam_photons,
    creation,
    derived_codec,
    filter_terms,
    gamma_power,
    mapping_codec,
    monomial,
    occupation,
    pattern_to_json,
    record_codec,
    terms_codec,
    tuple_codec,
)
from .measurement import STATIONS, Station, pattern_distribution


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
# Event classification
# ---------------------------------------------------------------------------


class EventKind(Enum):
    RIGHT = "right"
    WRONG_PAIR = "wrong-pair"
    DOUBLE_NON_DETECTION = "double-non-detection"
    TRIGGER_FAILURE = "trigger-failure"


@dataclass(frozen=True)
class EventClass:
    """Classification of one detection pattern."""

    kind: EventKind
    double_station: Optional[Station] = None
    empty_station: Optional[Station] = None
    lone_station: Optional[Station] = None
    reason: Optional[str] = None

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
            return f"wrong-pair:{self.double_station.name},{self.empty_station.name}"
        if self.kind is EventKind.DOUBLE_NON_DETECTION:
            lone = self.lone_station.name if self.lone_station else "none"
            return f"double-non-detection:{lone}"
        return f"trigger-failure:{self.reason}"

    def __str__(self) -> str:
        return self.wire


def event_class_from_wire(text: str) -> EventClass:
    kind, _, detail = text.partition(":")
    if kind == "right":
        return EventClass.right()
    if kind == "wrong-pair":
        double, empty = detail.split(",")
        return EventClass.wrong_pair(Station[double], Station[empty])
    if kind == "double-non-detection":
        lone = None if detail in ("", "none") else Station[detail]
        return EventClass.double_non_detection(lone)
    if kind == "trigger-failure":
        return EventClass.trigger_failure(detail)
    raise ValueError(f"unknown event class {text!r}")


def station_counts(pattern: Pattern) -> Dict[Station, int]:
    return {station: beam_photons(pattern, station.beam) for station in STATIONS}


REASON_NO_TRIGGER = "no-trigger"
REASON_MULTI_TRIGGER = "multiple-trigger-photons"
REASON_UNPAIRED = "unpaired-wrong-pattern"


def classify_pattern(pattern) -> EventClass:
    """Total classification of a detection pattern (trigger mode included)."""
    pattern = as_pattern(pattern)
    trigger = occupation(pattern, TRIGGER)
    if trigger == 0:
        return EventClass.trigger_failure(REASON_NO_TRIGGER)
    if trigger > 1:
        return EventClass.trigger_failure(REASON_MULTI_TRIGGER)
    counts = station_counts(pattern)
    values = sorted(counts.values())
    if values == [1, 1, 1]:
        return EventClass.right()
    if values == [0, 1, 2]:
        double = next(s for s, n in counts.items() if n == 2)
        empty = next(s for s, n in counts.items() if n == 0)
        return EventClass.wrong_pair(double, empty)
    total = sum(counts.values())
    if total <= 1:
        lone = next((s for s, n in counts.items() if n == 1), None)
        return EventClass.double_non_detection(lone)
    # loss-contaminated leftovers: not producible by the loss-free process
    return EventClass.trigger_failure(REASON_UNPAIRED)


@dataclass(frozen=True)
class PairingReport:
    """Census of the wrong-pair structure of a post-trigger expansion."""

    right_terms: int
    wrong_terms: int
    census: Mapping[Tuple[Station, Station], int]  # (double, empty) -> term count


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


def _station_pair(text: str) -> Tuple[Station, Station]:
    double, empty = text.split(",")
    return Station[double], Station[empty]


# census keys name the double and the empty station, e.g. "G,H"
PAIRING_REPORT = record_codec(
    PairingReport,
    ("right_terms", "right_terms", INT),
    ("wrong_terms", "wrong_terms", INT),
    ("census", "census", mapping_codec((lambda pair: f"{pair[0].name},{pair[1].name}",
                                        _station_pair), INT)),
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
    out = {}
    for pattern, coeff in state.terms.items():
        have = occupation(pattern, mode)
        if have < count:
            continue
        reduced = {m: n for m, n in pattern}
        reduced[mode] = have - count
        out[as_pattern(reduced)] = coeff
    return StatePolynomial(out)


LOSS_SCENARIOS = ("none", "one-a-H", "two-a-H", "one-b-V")


@dataclass(frozen=True)
class FilterLossDemo:
    """Side-by-side classification under the naive and redefined triggers."""

    scenario: str
    herald_clicks: int
    naive_trigger_fires: bool
    naive_outcomes: Tuple[Tuple[Pattern, EventClass], ...]
    redefined_accepted: bool
    redefined_outcomes: Tuple[Tuple[Pattern, EventClass], ...]


def filter_loss_demo(removed: str, circuit: Optional[OpticalCircuit] = None) -> FilterLossDemo:
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
    circuit = circuit or innsbruck_circuit()
    if removed == "none":
        component, herald = trigger_select(two_pair_emission()), 0
    elif removed == "one-a-H":
        component, herald = remove_photons(double_trigger_component(), AH, 1), 1
    elif removed == "two-a-H":
        component, herald = remove_photons(double_trigger_component(), AH, 2), 2
    else:  # one-b-V
        component, herald = remove_photons(trigger_select(two_pair_emission()), BV, 1), 1

    expanded = circuit.apply(component)
    outcomes = tuple(
        (pattern, classify_pattern(pattern)) for pattern in expanded.terms
    )
    fires = all(occupation(p, TRIGGER) == 1 for p, _ in outcomes) and bool(outcomes)
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
# Monte Carlo event sampler
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SampledEvent:
    pulse_index: int
    pattern: Pattern
    event_class: EventClass
    herald_veto: bool


EVENT_CLASS = (lambda event_class: event_class.wire, lambda text: event_class_from_wire(str(text)))
EVENT = record_codec(
    SampledEvent,
    ("pulse", "pulse_index", INT),
    ("pattern", "pattern", PATTERN),
    ("class", "event_class", EVENT_CLASS),
    ("veto", "herald_veto", BOOL),
)
event_to_json, event_from_json = EVENT
# a (pattern, class) pair; and the terms of a heralded state, each with its class
CLASSIFICATION = tuple_codec(("pattern", PATTERN), ("class", EVENT_CLASS))
CLASSIFIED_TERMS = terms_codec(derived_codec(TERM, "class",
                                             lambda term: classify_pattern(term[0]).wire))


def derived_seed(seed: int, chunk_index: int) -> int:
    """Seed for a split pulse range: first 8 bytes of sha256(seed:chunk)."""
    digest = hashlib.sha256(f"{seed}:{chunk_index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class _Sampler:
    """Precomputed exact distributions driving the per-pulse draws."""

    def __init__(self, pair_prob: Fraction, loss_prob: Fraction):
        if not 0 <= pair_prob < 1 or pair_prob + pair_prob**2 > 1:
            raise ConfigurationError(
                f"pair probability {pair_prob} leaves no room for the empty pulse"
            )
        if not 0 <= loss_prob <= 1:
            raise ConfigurationError(f"loss probability {loss_prob} outside [0, 1]")
        self.two_pair_threshold = float(pair_prob**2)
        self.one_pair_threshold = float(pair_prob**2 + pair_prob)
        self.loss = float(loss_prob)
        self.lossy = loss_prob != 0
        self.circuit = innsbruck_circuit()
        # the final detection commutes with the photon-number sectors of the
        # a/b modes (they are distinguished by the trigger count), so the
        # emission component may be sampled first, exactly
        self.one_pair_components = self._component_draws(single_pair_emission())
        self.two_pair_components = self._component_draws(two_pair_emission())
        self._output_cache: Dict[Pattern, list] = {}
        self._class_memo: Dict[Pattern, EventClass] = {}

    @staticmethod
    def _component_draws(state: StatePolynomial) -> list:
        dist = pattern_distribution(state)
        return _cumulative(dist.items())

    def output_draws(self, component: Pattern) -> list:
        cached = self._output_cache.get(component)
        if cached is None:
            expanded = self.circuit.apply(monomial(component))
            cached = _cumulative(pattern_distribution(expanded).items())
            self._output_cache[component] = cached
        return cached

    def classify(self, pattern: Pattern) -> EventClass:
        """:func:`classify_pattern`, run once per distinct pattern of this sampler."""
        event_class = self._class_memo.get(pattern)
        if event_class is None:
            event_class = self._class_memo[pattern] = classify_pattern(pattern)
        return event_class


def _cumulative(weighted) -> list:
    """(threshold, value) list for a float cumulative draw; exact weights in."""
    acc = Fraction(0)
    out = []
    for value, weight in sorted(weighted, key=lambda kv: kv[0]):
        acc += weight
        out.append((float(acc), value))
    if out:
        out[-1] = (1.0, out[-1][1])  # guard against float round-off at the top
    return out


def _draw(rng: random.Random, table: list):
    u = rng.random()
    for threshold, value in table:
        if u < threshold:
            return value
    return table[-1][1]


def sample_events(
    pulses: int,
    pair_prob: Fraction,
    seed: int,
    loss_prob: Fraction = Fraction(0),
) -> Iterator[SampledEvent]:
    """Deterministic event stream for ``pulses`` pump pulses.

    Per pulse the pair number is drawn (two pairs with probability
    ``pair_prob**2``, one pair with ``pair_prob``), then the emission
    component, then — when loss is enabled — a Bernoulli removal per photon
    in canonical mode order, and finally the detection pattern from the
    exact conditional distribution behind the circuit.  Pulses without a
    pair emit nothing.  Identical arguments yield byte-identical streams;
    for parallel generation split the pulse range and seed each chunk with
    :func:`derived_seed`.

    Conditioning on ``herald_veto=False`` recovers the loss-free statistics
    exactly within each emission sector; across sectors the mix shifts by
    the survival factor ``(1-loss_prob)**n`` of an n-photon component,
    which is the physical effect of a heralded loss channel.
    """
    if pulses < 0:
        raise ConfigurationError(f"pulse count {pulses} is negative")
    sampler = _Sampler(Fraction(pair_prob), Fraction(loss_prob))
    rng = random.Random(seed)
    for pulse in range(pulses):
        u = rng.random()
        if u < sampler.two_pair_threshold:
            component = _draw(rng, sampler.two_pair_components)
        elif u < sampler.one_pair_threshold:
            component = _draw(rng, sampler.one_pair_components)
        else:
            continue
        veto = False
        if sampler.lossy:
            # the component is canonical, so its survivors in mode order are too
            surviving = []
            for mode, count in component:
                kept = 0
                for _ in range(count):
                    if rng.random() < sampler.loss:
                        veto = True
                    else:
                        kept += 1
                if kept:
                    surviving.append((mode, kept))
            component = tuple(surviving)
        if not component:
            pattern: Pattern = ()
        else:
            pattern = _draw(rng, sampler.output_draws(component))
        yield SampledEvent(pulse, pattern, sampler.classify(pattern), veto)


def summarize_events(events: Iterable[SampledEvent], redefined: bool = False) -> Counter:
    """Class counts; with ``redefined`` only herald-clean events are counted."""
    counts: Counter = Counter()
    for event in events:
        if redefined and event.herald_veto:
            continue
        counts[event.event_class.wire] += 1
    return counts
