"""Analyzer-basis measurement and exact outcome statistics.

Each observation station chooses one of two analyzer bases: linear
polarizations at ±45° or left/right circular.  The analyzer is modeled as a
basis change on the station's two polarization modes; after the change the
H slot means the +1 outcome and the V slot the −1 outcome.

Conventions (fixed and exercised under conjugation by the test suite):

* linear45:  plus = (H + V)/sqrt2,  minus = (H − V)/sqrt2
* circular:  plus = (H + iV)/sqrt2 at stations H and Z; station G's
  handedness labeling is mirrored, plus = (H − iV)/sqrt2

The mirrored labeling at G makes the derived right-part state carry the
perfect correlations E(xxx) = +1 and E(xyy) = E(yxy) = E(yyx) = −1; with
one uniform labeling two of those signs flip.  Which handedness a station
calls +1 is pure bookkeeping — every local-realism verdict is invariant
under it, which the test suite checks by mirroring all three stations at
once (``conjugate=True``).

The detector model is stated once, here: each station mode's station and ±1
readout, :data:`DETECTOR_MODES`, and :func:`read_pattern`, the one rule for a
right event (one trigger photon and one photon at each station), which the
outcome tables and ``events.classify_pattern`` both read.

Outcome tables are exact: cells are joint probabilities of a triggered
right event with a given outcome triple, and ``wrong_mass`` collects the
total probability of every other detection pattern.  Station photon
number is preserved by the analyzer basis change, so ``wrong_mass`` cannot
depend on the chosen settings; the test suite verifies this rather than
assuming it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import product
from math import factorial
from typing import Dict, Mapping, Tuple

from .circuit import ModeTransform
from .fock import (
    Amplitude,
    Beam,
    GhzsimError,
    INV_SQRT2,
    Mode,
    Pattern,
    Polarization,
    RATIONAL,
    StatePolynomial,
    TRIGGER,
    mapping_codec,
    mode_from_name,
    norm_squared,
    record_codec,
    substitute,
)


class EmptyStateError(GhzsimError):
    """Statistics of the zero state are undefined."""


class UndefinedCorrelationError(GhzsimError):
    """Correlation conditioned on right events with zero right-event mass."""


class VisibilityRangeError(GhzsimError):
    """Visibility outside [0, 1]."""


class AnalyzerSetting(Enum):
    LINEAR45 = "linear45"
    CIRCULAR = "circular"


_SETTING_CODE = {AnalyzerSetting.LINEAR45: "x", AnalyzerSetting.CIRCULAR: "y"}
_SETTING_BY_CODE = {code: setting for setting, code in _SETTING_CODE.items()}


class Station(Enum):
    G = Beam.G
    H = Beam.H
    Z = Beam.Z

    @property
    def beam(self) -> Beam:
        return self.value


STATIONS = (Station.G, Station.H, Station.Z)


@dataclass(frozen=True)
class SettingTriple:
    """The three analyzer choices for stations G, H and Z."""

    g: AnalyzerSetting
    h: AnalyzerSetting
    z: AnalyzerSetting

    @property
    def code(self) -> str:
        """Compact form: x = linear45, y = circular; e.g. ``xyy``."""
        return "".join(_SETTING_CODE[s] for s in (self.g, self.h, self.z))

    @classmethod
    def from_code(cls, code: str) -> "SettingTriple":
        if len(code) != 3 or any(c not in _SETTING_BY_CODE for c in code):
            raise ValueError(f"setting code must match [xy]{{3}}, got {code!r}")
        return cls(*(_SETTING_BY_CODE[c] for c in code))

    def setting(self, station: Station) -> AnalyzerSetting:
        return {Station.G: self.g, Station.H: self.h, Station.Z: self.z}[station]

    def __str__(self) -> str:
        return self.code


def all_setting_triples() -> Tuple[SettingTriple, ...]:
    return tuple(
        SettingTriple(g, h, z)
        for g, h, z in product(AnalyzerSetting, AnalyzerSetting, AnalyzerSetting)
    )


Outcome = Tuple[int, int, int]

OUTCOMES: Tuple[Outcome, ...] = tuple(product((1, -1), repeat=3))


def outcome_code(outcome: Outcome) -> str:
    return ",".join(f"{r:+d}" for r in outcome)


def outcome_from_code(code: str) -> Outcome:
    parts = tuple(int(p) for p in code.split(","))
    if parts not in OUTCOMES:
        raise ValueError(f"bad outcome code {code!r}")
    return parts  # type: ignore[return-value]


# circular handedness called +1, per station; G is mirrored (see module doc)
_HANDEDNESS = {Station.G: -1, Station.H: 1, Station.Z: 1}


def analyzer_transform(
    station: Station, setting: AnalyzerSetting, conjugate: bool = False
) -> ModeTransform:
    """Basis change on the station's beam; H slot = +1 outcome, V slot = −1.

    ``conjugate`` mirrors the circular handedness labeling of all three
    stations at once; the GHZ contradiction is independent of this choice.
    """
    beam = station.beam
    h_mode = Mode(beam, Polarization.H)
    v_mode = Mode(beam, Polarization.V)
    if setting is AnalyzerSetting.LINEAR45:
        v_plus, v_minus = INV_SQRT2, -INV_SQRT2
    else:
        sign = _HANDEDNESS[station] * (-1 if conjugate else 1)
        # plus = (H + sign*i V)/sqrt2  =>  V = -sign*i (plus - minus)/sqrt2
        imag = Amplitude(0, 0, 0, Fraction(sign, 2))  # sign*i/sqrt2
        v_plus, v_minus = -imag, imag
    rules = {
        h_mode: ((h_mode, INV_SQRT2), (v_mode, INV_SQRT2)),
        v_mode: ((h_mode, v_plus), (v_mode, v_minus)),
    }
    return ModeTransform(rules, name=f"AN({beam.value},{setting.value})")


def _merged_analyzer_rules(settings: SettingTriple, conjugate: bool) -> Dict[Mode, tuple]:
    rules: Dict[Mode, tuple] = {}
    for station in STATIONS:
        rules.update(analyzer_transform(station, settings.setting(station), conjugate).rules)
    return rules


@dataclass(frozen=True)
class OutcomeTable:
    """Joint outcome probabilities for one setting triple.

    ``probabilities[(r_g, r_h, r_z)]`` is the exact probability of a
    triggered right event with those three readouts; ``wrong_mass`` is the
    total probability of every non-right class.  Cells and wrong mass sum
    to one exactly.
    """

    settings: SettingTriple
    probabilities: Mapping[Outcome, Fraction]
    wrong_mass: Fraction

    def __post_init__(self) -> None:
        cells = {outcome: Fraction(self.probabilities.get(outcome, 0)) for outcome in OUTCOMES}
        if set(self.probabilities) - set(OUTCOMES):
            raise ValueError("unknown outcome keys in table")
        if any(p < 0 for p in cells.values()) or self.wrong_mass < 0:
            raise ValueError("probabilities must be non-negative")
        total = sum(cells.values()) + self.wrong_mass
        if total != 1:
            raise ValueError(f"table must sum to 1 exactly, got {total}")
        object.__setattr__(self, "probabilities", cells)
        object.__setattr__(self, "wrong_mass", Fraction(self.wrong_mass))

    @property
    def right_mass(self) -> Fraction:
        return 1 - self.wrong_mass


def pattern_distribution(state: StatePolynomial) -> Dict[Pattern, Fraction]:
    """Exact Born probabilities of every occupation pattern of ``state``."""
    if state.is_zero:
        raise EmptyStateError("the zero state has no outcome distribution")
    norm = norm_squared(state)
    inv_norm = norm.inverse()
    dist: Dict[Pattern, Fraction] = {}
    for pattern, coeff in state.terms.items():
        weight = coeff.abs_squared()
        for _, count in pattern:
            weight = weight * factorial(count)
        dist[pattern] = (weight * inv_norm).to_fraction()
    return dist


# (station index, readout) of each station mode, keyed by mode name
_STATION_READOUT: Dict[str, Tuple[int, int]] = {
    Mode(station.beam, polarization).name: (
        index, 1 if polarization is Polarization.H else -1
    )
    for index, station in enumerate(STATIONS)
    for polarization in Polarization
}

# the modes a detection pattern may occupy: the trigger and the six station modes
DETECTOR_MODES = frozenset(map(mode_from_name, (TRIGGER.name, *_STATION_READOUT)))


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
        if mode.name == TRIGGER.name:
            trigger = count
            continue
        readout = _STATION_READOUT.get(mode.name)
        if readout is None:
            raise ValueError(f"mode {mode.name} is not a detector mode")
        station, read = readout
        hits[station] += count
        reads[station] = read
    right = trigger == 1 and hits == [1, 1, 1]
    return trigger, tuple(hits), tuple(reads) if right else None  # type: ignore[return-value]


def outcome_distribution(
    state: StatePolynomial, settings: SettingTriple, conjugate: bool = False
) -> OutcomeTable:
    """Measure ``state`` in the three analyzer bases of ``settings``.

    The three analyzer basis changes are applied and every resulting
    occupation pattern receives its exact Born weight; triggered
    single-photon-per-station patterns land in the outcome cells, all other
    patterns accumulate in ``wrong_mass``.  A photon outside
    :data:`DETECTOR_MODES` raises ValueError: ``state`` must be a state behind
    the circuit, not an emission state.
    """
    analyzed = substitute(state, _merged_analyzer_rules(settings, conjugate))
    dist = pattern_distribution(analyzed)
    cells: Dict[Outcome, Fraction] = {outcome: Fraction(0) for outcome in OUTCOMES}
    wrong = Fraction(0)
    for pattern, probability in dist.items():
        outcome = read_pattern(pattern)[2]
        if outcome is None:
            wrong += probability
        else:
            cells[outcome] += probability
    return OutcomeTable(settings, cells, wrong)


def correlation_from_table(table: OutcomeTable) -> Fraction:
    if table.right_mass == 0:
        raise UndefinedCorrelationError(
            "no right-event mass: conditional correlation undefined"
        )
    total = sum(
        r[0] * r[1] * r[2] * p for r, p in table.probabilities.items()
    )
    return Fraction(total) / table.right_mass


def correlation(
    state: StatePolynomial, settings: SettingTriple, conjugate: bool = False
) -> Fraction:
    """Triple correlation E(settings) conditioned on right events."""
    return correlation_from_table(outcome_distribution(state, settings, conjugate))


def add_noise(table: OutcomeTable, visibility: Fraction) -> OutcomeTable:
    """Mix white noise into the right-event sector.

    Right cells become ``V*p + (1−V)*(1−wrong_mass)/8``; the wrong mass is
    untouched, so conditional correlations scale by exactly ``V``.
    """
    visibility = Fraction(visibility)
    if not 0 <= visibility <= 1:
        raise VisibilityRangeError(f"visibility must lie in [0, 1], got {visibility}")
    uniform = table.right_mass / 8
    cells = {
        outcome: visibility * p + (1 - visibility) * uniform
        for outcome, p in table.probabilities.items()
    }
    return OutcomeTable(table.settings, cells, table.wrong_mass)


SETTING_TRIPLE = (lambda triple: triple.code, lambda code: SettingTriple.from_code(str(code)))
TABLE = record_codec(
    OutcomeTable,
    ("settings", "settings", SETTING_TRIPLE),
    ("cells", "probabilities", mapping_codec((outcome_code, outcome_from_code), RATIONAL)),
    ("wrong_mass", "wrong_mass", RATIONAL),
)
