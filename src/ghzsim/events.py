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

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, product
from math import comb, prod
from numbers import Rational
from operator import mul
from random import Random
from typing import Dict, Iterable, Iterator, Mapping, Optional, Tuple

from .circuit import innsbruck_circuit
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
    Record,
    StatePolynomial,
    TERM,
    TEXT,
    as_pattern,
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
from .measurement import STATIONS, Station, over_one_denominator, pattern_distribution, read_pattern


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

    ``measurement.read_pattern`` reads the pattern, so a photon outside
    ``measurement.DETECTOR_MODES`` raises ValueError, and the pattern is a
    right event exactly when the outcome tables give it an outcome.  Every
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


class FilterLossDemo(Record):
    """Side-by-side classification under the naive and redefined triggers."""

    __slots__ = _fields = ("scenario", "herald_clicks", "naive_trigger_fires", "naive_outcomes",
                           "redefined_accepted", "redefined_outcomes")

    def __init__(self, scenario: str, herald_clicks: int, naive_trigger_fires: bool,
                 naive_outcomes: Tuple[Tuple[Pattern, EventClass], ...],
                 redefined_accepted: bool,
                 redefined_outcomes: Tuple[Tuple[Pattern, EventClass], ...]) -> None:
        self._set(scenario, herald_clicks, naive_trigger_fires, naive_outcomes,
                  redefined_accepted, redefined_outcomes)


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
# Monte Carlo event sampler
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SampledEvent:
    pulse_index: int
    pattern: Pattern
    event_class: EventClass
    herald_veto: bool


EVENT_CLASS = (lambda event_class: event_class.wire,
               lambda text: event_class_from_wire(TEXT[1](text)))
EVENT = record_codec(
    SampledEvent,
    ("pulse", "pulse_index", INT),
    ("pattern", "pattern", PATTERN),
    ("class", "event_class", EVENT_CLASS),
    ("veto", "herald_veto", BOOL),
)
# a (pattern, class) pair; and the terms of a heralded state, each with its class
CLASSIFICATION = tuple_codec(("pattern", PATTERN), ("class", EVENT_CLASS))
CLASSIFIED_TERMS = terms_codec(derived_codec(TERM, "class",
                                             lambda term: classify_pattern(term[0]).wire))


def derived_seed(seed: int, chunk_index: int) -> int:
    """Seed for a split pulse range: first 8 bytes of sha256(seed:chunk)."""
    import hashlib  # deferred: the CLI never derives a seed, and hashlib loads OpenSSL

    digest = hashlib.sha256(f"{seed}:{chunk_index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


WORD = 64  # bits per random word; every draw reads whole words
SKIP_PRECISION = 256  # fractional bits of the fixed-precision skip-level bounds
MAX_BLOCK = 64  # the most pulses one emission-table draw covers


class _Table:
    """An exact draw from (value, integer weight) pairs; zero weights drop out.

    Value i is drawn with probability (cuts[i] - cuts[i-1]) / den exactly,
    where ``cuts`` are the running sums of the weights and ``den`` the total.
    A draw reads one word u as the leading bits of a uniform U in [0, 1) and
    bisects it against ``_leading``, the cut points cuts[i] / den truncated to
    one word.  U lies between cut points i-1 and i unless u equals the
    truncated cut point i-1 (for i = 0 that reads the last one, 2^WORD, never
    u); only then does :meth:`_settle` read further words and compare exactly
    with the integer cut points.  :func:`sample_events` makes its draws inline.
    """

    __slots__ = ("values", "cuts", "den", "_leading")

    def __init__(self, weighted: Iterable[tuple]):
        weighted = [(value, weight) for value, weight in weighted if weight]
        self.values = [value for value, _ in weighted]
        self.cuts = list(accumulate(weight for _, weight in weighted))
        self.den = self.cuts[-1]
        self._leading = [(cut << WORD) // self.den for cut in self.cuts]

    def _settle(self, rng: Random, value: int) -> int:
        """The index drawn by the words that start with ``value``, a tied first word."""
        bits = WORD
        while True:
            value = value << WORD | rng.getrandbits(WORD)
            bits += WORD
            low = value * self.den  # U * den lies in [low, low + den) / 2^bits
            i = bisect_right(self.cuts, low >> bits)
            if low + self.den <= self.cuts[i] << bits:
                return i


_circuit = lru_cache(maxsize=None)(innsbruck_circuit)  # built once per process


@lru_cache(maxsize=None)
def _output_table(component: Pattern) -> _Table:
    """(pattern, class) with the exact detection law of ``component`` behind the
    circuit.  Built once per process: at most 25, one per non-empty sub-pattern
    of the five emission components."""
    dist = pattern_distribution(_circuit().apply(monomial(component)))
    weights, _ = over_one_denominator(list(dist.values()))
    return _Table(((pattern, classify_pattern(pattern)), n) for pattern, n in zip(dist, weights))


_ALL_LOST = ((), classify_pattern(()))  # every photon lost: drawn without a random word


def _survivors_table(component: Pattern, loss: Fraction) -> _Table:
    """(surviving pattern, herald veto) of ``component`` when each photon is
    removed independently with probability ``loss``; weights over den^n."""
    lost, den = loss.numerator, loss.denominator
    per_mode = [
        [(mode, kept, comb(count, kept) * (den - lost) ** kept * lost ** (count - kept))
         for kept in range(count + 1)]
        for mode, count in component
    ]
    photons = sum(count for _, count in component)
    weighted = []
    for choice in product(*per_mode):
        survivors = tuple((mode, kept) for mode, kept, _ in choice if kept)
        kept = sum(count for _, count in survivors)
        weighted.append(((survivors, kept < photons), prod(w for _, _, w in choice)))
    return _Table(weighted)


def _skip_bounds(skip: Fraction, levels: int, precision: int) -> list:
    """(lo, hi) with lo <= skip^(2^j) * 2^precision <= hi for each j < levels:
    ``skip`` rounded down and up once, then squared with floor and ceiling."""
    scaled = skip.numerator << precision
    lo, hi = scaled // skip.denominator, -(-scaled // skip.denominator)
    bounds = []
    for _ in range(levels):
        bounds.append((lo, hi))
        lo, hi = lo * lo >> precision, -(-(hi * hi) >> precision)
    return bounds


def _skipped(value: int, bits: int, bounds: list, precision: int, top: int) -> Optional[int]:
    """K = #{k >= 1 : U < skip^k} capped at 2^top, for U in [value, value + 1) / 2^bits.

    A binary search from digit ``top`` down: each digit compares U with the
    bounds of one power of ``skip``.  None when the bits of U do not decide
    a comparison.
    """
    low = value << (precision - bits)
    high = low + (1 << (precision - bits))  # U * 2^precision lies in [low, high)
    lo, hi = bounds[top]
    if high <= lo:
        return 1 << top
    if low < hi:
        return None
    k, lo, hi = 0, 1 << precision, 1 << precision  # bounds on skip^k * 2^precision
    for j in reversed(range(top)):
        lo_j, hi_j = bounds[j]
        lo_next, hi_next = lo * lo_j >> precision, -(-(hi * hi_j) >> precision)
        if high <= lo_next:  # U < skip^(k + 2^j)
            k, lo, hi = k + (1 << j), lo_next, hi_next
        elif low < hi_next:
            return None
    return k


class _Sampler:
    """Emission and loss tables for one call of :func:`sample_events`, 0 < pair_prob.

    A pulse emits component c of the one-pair state with probability p * w1(c)
    and of the two-pair state with p^2 * w2(c), so it emits at all with
    E = p + p^2 and the gap before the next emitting pulse is geometric,
    P(G = k) = q^k * E with q = 1 - E.  Pulses are taken in blocks of ``block``;
    ``skip`` = q^block is the chance that a block emits nothing.

    ``steps`` holds, for each value of ``emission``, None (the block emits
    nothing) or (offset, chain), the component's draw chain resolved once per
    call.  With loss the chain is the survivor draw (truncated cut points,
    (output link, herald veto) per value, and the table); without loss it is
    the component's output link.  An output link is [table, component], its
    table None until the first event that needs it; a fully lost component
    has the link None.
    """

    def __init__(self, pair_prob: Fraction, loss_prob: Fraction, pulses: int):
        one_pair = pattern_distribution(single_pair_emission())
        two_pair = pattern_distribution(two_pair_emission())
        weights, common = over_one_denominator([*one_pair.values(), *two_pair.values()])
        a, b = pair_prob.numerator, pair_prob.denominator
        # per-pulse weights over b^2 * common, and q = q_num / b^2
        per_pulse = ([(c, a * b * n) for c, n in zip(one_pair, weights)]
                     + [(c, a * a * n) for c, n in zip(two_pair, weights[len(one_pair):])])
        pulse_den, q_num = b * b, b * b - a * b - a * a
        # the shortest block that emits at least half the time, if one fits:
        # then a joint draw that may skip the block costs at most two draws
        q_powers, den_powers = [1], [1]  # q_num^k and pulse_den^k for k <= block
        for block in range(1, MAX_BLOCK + 1):
            q_powers.append(q_powers[-1] * q_num)
            den_powers.append(den_powers[-1] * pulse_den)
            if 2 * q_powers[block] <= den_powers[block]:
                break
        self.block = block
        self.skip = Fraction(q_powers[block], den_powers[block])
        # (offset, component) over pulse_den^block * common: q^offset * weight
        scales = map(mul, q_powers[:block], reversed(den_powers[:block]))
        offsets = [((offset, c), scale * n)
                   for offset, scale in enumerate(scales) for c, n in per_pulse]
        self.dense = 2 * self.skip <= 1
        if self.dense:  # one joint table; None skips the whole block
            self.emission = _Table([*offsets, (None, q_powers[block] * common)])
        else:  # the emitting block comes from the skip levels, then this table
            self.emission = _Table(offsets)
            levels = (-(-pulses // block) - 1).bit_length() + 1
            self.skip_bounds = _skip_bounds(self.skip, levels, SKIP_PRECISION)
        # per emission component, (surviving pattern, herald veto); none without loss
        self.survivors = {c: _survivors_table(c, loss_prob)
                          for c in (*one_pair, *two_pair) if loss_prob}
        links: Dict[Pattern, list] = {}  # one output link per surviving component

        def link(component: Pattern) -> Optional[list]:
            return links.setdefault(component, [None, component]) if component else None

        if loss_prob:
            chains = {c: (table._leading, [(link(kept), veto) for kept, veto in table.values],
                          table)
                      for c, table in self.survivors.items()}
        else:
            chains = {c: link(c) for c in (*one_pair, *two_pair)}
        self.steps = [None if drawn is None else (drawn[0], chains[drawn[1]])
                      for drawn in self.emission.values]

    def skipped_blocks(self, rng: Random, blocks: int) -> Optional[int]:
        """The number K of blocks that emit nothing before one that does,
        P(K >= k) = skip^k, decided from one uniform U; None when K >= blocks.

        U's first word is compared with the fixed-precision skip levels; a
        comparison those bounds leave open reads another word and redoes the
        search with bounds of twice the precision.
        """
        top = (blocks - 1).bit_length()
        value, bits = rng.getrandbits(WORD), WORD
        bounds, precision = self.skip_bounds, SKIP_PRECISION
        while (k := _skipped(value, bits, bounds, precision, top)) is None:
            value, bits = value << WORD | rng.getrandbits(WORD), bits + WORD
            precision *= 2
            bounds = _skip_bounds(self.skip, top + 1, precision)
        return k if k < blocks else None


def sample_events(
    pulses: int,
    pair_prob: Fraction,
    seed: int,
    loss_prob: Fraction = Fraction(0),
) -> Iterator[SampledEvent]:
    """Deterministic event stream for ``pulses`` pump pulses, drawn exactly.

    A pulse emits two pairs with probability ``pair_prob**2``, one pair with
    ``pair_prob``, and nothing otherwise.  The empty pulses are skipped, not
    visited: the gap to the next emitting pulse follows its exact geometric
    law, P(gap = k) = (1-E)^k * E with E = p + p^2, and is drawn with the
    emission component.  When a block of pulses emits at least half the time
    one joint table gives (offset in the block, component) or "skip the
    block"; otherwise the number of empty blocks comes from a binary search
    over the powers of the skip chance, then the (offset, component) table.
    When loss is enabled each photon of the component is then removed with
    probability ``loss_prob``, and finally the detection pattern is drawn
    from the exact conditional distribution behind the circuit.  Every draw
    is decided from 64-bit random words against integer weights, so the
    sampled law is the rational law exactly, and the work of a call grows
    with the events it emits, not with ``pulses``.

    ``pulses`` is an ``int`` and both probabilities are
    :class:`numbers.Rational`; a float raises ``TypeError``.

    Identical arguments yield byte-identical streams.  Draws are made per
    emitted event, not per pulse, so changing a probability or the seed
    gives another stream.  For parallel generation split the pulse range
    and seed each chunk with :func:`derived_seed`.

    Conditioning on ``herald_veto=False`` recovers the loss-free statistics
    exactly within each emission sector; across sectors the mix shifts by
    the survival factor ``(1-loss_prob)**n`` of an n-photon component,
    which is the physical effect of a heralded loss channel.
    """
    if not isinstance(pulses, int):
        raise TypeError(f"pulse count must be an int, got {pulses!r}")
    if pulses < 0:
        raise ConfigurationError(f"pulse count {pulses} is negative")
    if not isinstance(pair_prob, Rational) or not isinstance(loss_prob, Rational):
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
    sampler = _Sampler(pair_prob, loss_prob, pulses)
    rng = Random(seed)
    # each event reads its chain from ``steps``, so no per-event lookup is
    # keyed by a pattern; each draw bisects one word, and settles a tie
    getrandbits, skipped_blocks = rng.getrandbits, sampler.skipped_blocks
    emission, steps, block = sampler.emission, sampler.steps, sampler.block
    emission_cuts, dense, lossy = emission._leading, sampler.dense, bool(loss_prob)
    pulse = 0
    while pulse < pulses:
        if not dense:  # the empty blocks first, then (offset, component)
            blocks = skipped_blocks(rng, -(-(pulses - pulse) // block))
            if blocks is None:
                return
            pulse += blocks * block
        u = getrandbits(WORD)
        i = bisect_right(emission_cuts, u)
        if emission_cuts[i - 1] == u:
            i = emission._settle(rng, u)
        step = steps[i]
        if step is None:  # the whole block emits nothing
            pulse += block
            continue
        offset, chain = step
        pulse += offset
        if pulse >= pulses:
            return
        veto = False
        if lossy:
            cuts, survivors, table = chain
            u = getrandbits(WORD)
            i = bisect_right(cuts, u)
            if cuts[i - 1] == u:
                i = table._settle(rng, u)
            chain, veto = survivors[i]
        if chain is None:
            pattern, event_class = _ALL_LOST
        else:
            table = chain[0]
            if table is None:
                table = chain[0] = _output_table(chain[1])
            cuts = table._leading
            u = getrandbits(WORD)
            i = bisect_right(cuts, u)
            if cuts[i - 1] == u:
                i = table._settle(rng, u)
            pattern, event_class = table.values[i]
        yield SampledEvent(pulse, pattern, event_class, veto)
        pulse += 1


def summarize_events(events: Iterable[SampledEvent], redefined: bool = False) -> Counter:
    """Class counts; with ``redefined`` only herald-clean events are counted."""
    counts: Counter = Counter()
    for event in events:
        if redefined and event.herald_veto:
            continue
        counts[event.event_class.wire] += 1
    return counts
