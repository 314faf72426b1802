"""Analyzer-basis measurement, exact outcome statistics and the heralded tables.

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

The tables read the detector model of :mod:`ghzsim.events` (:func:`read_pattern`
and each station mode's ±1 readout), the one rule for a right event that
``events.classify_pattern`` reads too.  The eight ideal tables of the heralded
state are derived once per process, and :func:`quantum_targets` mixes them with
white noise.

Outcome tables are exact: cells are joint probabilities of a triggered
right event with a given outcome triple, and ``wrong_mass`` collects the
total probability of every other detection pattern.  An analyzer maps a
station's modes into its own by orthonormal columns, so it keeps each term's
sector (trigger photons, photons per station) and each sector's mass: the
setting-independent wrong mass is read off the unanalyzed state.  A right-sector
term holds one photon per station, so its eight cells come from contracting it with
the three analyzers' 2×2 unit phases over √2, read off their Gram-checked rules as two
rows of Gaussian integers per station, and no polynomial is expanded; the tests hold
every table to the fully substituted state (``test_tables_equal_the_full_expansion*``).
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import product, repeat
from math import gcd, isqrt
from typing import List, Mapping, Sequence, Tuple

from .circuit import ModeTransform
from .events import STATIONS, _STATION_READOUT, Outcome, Station, heralded_state, read_pattern
from .fock import (
    Amplitude,
    GhzsimError,
    INV_SQRT2,
    IntegerForm,
    Mode,
    Polarization,
    RATIONAL,
    Record,
    StatePolynomial,
    TEXT,
    born_terms,
    born_weight,
    born_weights,
    derived_codec,
    exact,
    mapping_codec,
    not_a_member,
    over_one_denominator,
    record_codec,
    require_type,
    sequence_codec,
    tuple_codec,
)


class EmptyStateError(GhzsimError):
    """Statistics of the zero state are undefined."""


class UndefinedCorrelationError(GhzsimError):
    """Correlation conditioned on right events with zero right-event mass."""


class VisibilityRangeError(GhzsimError):
    """Visibility outside [0, 1]."""


class AnalyzerSetting(Enum):
    __hash__ = object.__hash__  # members are singletons: hashed by identity, in C

    LINEAR45 = "linear45"
    CIRCULAR = "circular"


_SETTING_CODE = {AnalyzerSetting.LINEAR45: "x", AnalyzerSetting.CIRCULAR: "y"}
_SETTING_BY_CODE = {code: setting for setting, code in _SETTING_CODE.items()}


class SettingTriple(Record):
    """The three analyzer choices for stations G, H and Z."""

    _fields = ("g", "h", "z")
    __slots__ = (*_fields, "code")

    def __init__(self, g: AnalyzerSetting, h: AnalyzerSetting, z: AnalyzerSetting) -> None:
        try:  # compact form, e.g. ``xyy`` (x = linear45, y = circular): verdicts read it often
            code = _SETTING_CODE[g] + _SETTING_CODE[h] + _SETTING_CODE[z]
        except (KeyError, TypeError):  # TypeError: an unhashable argument
            name, value = next((name, value) for name, value in zip(self._fields, (g, h, z))
                               if type(value) is not AnalyzerSetting)
            raise not_a_member("SettingTriple", name, value, AnalyzerSetting) from None
        object.__setattr__(self, "code", code)
        self._set(g, h, z)

    @classmethod
    def from_code(cls, code: str) -> "SettingTriple":
        if len(code) != 3 or any(c not in _SETTING_BY_CODE for c in code):
            raise ValueError(f"setting code must match [xy]{{3}}, got {code!r}")
        return cls(*(_SETTING_BY_CODE[c] for c in code))

    def __str__(self) -> str:
        return self.code


def all_setting_triples() -> Tuple[SettingTriple, ...]:
    return tuple(
        SettingTriple(g, h, z)
        for g, h, z in product(AnalyzerSetting, AnalyzerSetting, AnalyzerSetting)
    )


OUTCOMES: Tuple[Outcome, ...] = tuple(product((1, -1), repeat=3))


def outcome_code(outcome: Outcome) -> str:
    return ",".join(f"{r:+d}" for r in outcome)


_OUTCOME_BY_CODE = {outcome_code(o): o for o in OUTCOMES}  # one exact code each


def outcome_from_code(code: str) -> Outcome:
    if code not in _OUTCOME_BY_CODE:
        raise ValueError(f"bad outcome code {code!r}")
    return _OUTCOME_BY_CODE[code]


# circular handedness called +1, per station; G is mirrored (see module doc)
_HANDEDNESS = {Station.G: -1, Station.H: 1, Station.Z: 1}


def analyzer_transform(
    station: Station, setting: AnalyzerSetting, conjugate: bool = False
) -> ModeTransform:
    """Basis change on the station's beam; H slot = +1 outcome, V slot = −1.

    ``conjugate`` mirrors the circular handedness labeling of all three
    stations at once; the GHZ contradiction is independent of this choice.
    """
    require_type(bool, conjugate, "analyzer_transform: conjugate must be a bool")
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


# built and Gram-checked once per process: 12 (station, setting, conjugate); typed: 1 ≠ True
_analyzer = lru_cache(maxsize=None, typed=True)(analyzer_transform)


def _table_form(numerators: Sequence[int], den: int) -> IntegerForm:
    """The one check of a table: cells and wrong mass as ``numerators`` over ``den``, ints (not
    bools), non-negative and summing to ``den``; cut by their gcd, so over their values' lcm."""
    if type(den) is not int or set(map(type, numerators)) != {int}:
        raise TypeError("table numerators and denominator must be ints")
    if min(numerators) < 0:
        raise ValueError("probabilities must be non-negative")
    if sum(numerators) != den:
        raise ValueError(f"table must sum to 1 exactly, got {Fraction(sum(numerators), den)}")
    g = gcd(den, *numerators)
    return tuple([v // g for v in numerators] if g > 1 else numerators), den // g


class OutcomeTable(Record):
    """Joint outcome probabilities for one setting triple.

    ``probabilities[(r_g, r_h, r_z)]`` is the exact probability of a
    triggered right event with those three readouts; ``wrong_mass`` is the
    total probability of every non-right class.  Cells and wrong mass pass
    :func:`ghzsim.fock.exact` (anything else, a ``bool`` included, raises
    ``TypeError``) and sum to one exactly.  ``integer_form`` holds the
    cells, in :data:`OUTCOMES` order, and the wrong mass as numerators over
    the lcm of their denominators, as :func:`_table_form` puts them; it is
    no field, so equality, ``repr`` and pickling read the three fields alone.
    """

    _fields = ("settings", "probabilities", "wrong_mass")
    __slots__ = (*_fields, "integer_form")

    def __init__(self, settings: SettingTriple, probabilities: Mapping[Outcome, Fraction],
                 wrong_mass: Fraction) -> None:
        values = [probabilities.get(outcome, 0) for outcome in OUTCOMES] + [wrong_mass]
        if not exact(values):
            raise TypeError("cells and wrong mass must be exact rationals (numbers.Rational)")
        if set(probabilities) - set(OUTCOMES):
            raise ValueError("unknown outcome keys in table")
        values = [v if type(v) is Fraction else Fraction(v) for v in values]
        self._fill(settings, values, *over_one_denominator(values))

    def _fill(self, settings: SettingTriple, values: Sequence[Fraction],
              numerators: Sequence[int], den: int) -> None:
        """Set the fields to ``values`` (cells, then wrong mass) once their form passes."""
        object.__setattr__(self, "integer_form", _table_form(numerators, den))
        self._set(settings, dict(zip(OUTCOMES, values)), values[-1])

    @property
    def right_mass(self) -> Fraction:
        return 1 - self.wrong_mass


def _phases(station: Station, setting: AnalyzerSetting,
            conjugate: bool) -> Tuple[List[Tuple[int, int]], List[Tuple[int, int]]]:
    """The analyzer as two rows, slot read +1 then −1, of the Gaussian integers u of its
    factors u/√2 to outcome +1 and −1, read off the Gram-checked :func:`_analyzer` each call."""
    rows = ([(0, 0), (0, 0)], [(0, 0), (0, 0)])  # a lost target reads (0, 0)
    for source, targets in _analyzer(station, setting, conjugate).rules.items():
        row = rows[_STATION_READOUT[source][1] < 0]
        for target, factor in targets:  # u/√2 is stored as (0, 0, re u, im u) over 2
            row[_STATION_READOUT[target][1] < 0] = factor.integers[0][2:]
    return rows


def outcome_distribution(state: StatePolynomial, settings: SettingTriple,
                         conjugate: bool = False) -> OutcomeTable:
    """Measure ``state`` in the three analyzer bases of ``settings``.

    A right-sector term is a product of three one-photon station operators, so each cell
    amplitude is Σ c·u_g·u_h·u_z/(2√2) over those terms, with the stations' :func:`_phases`.
    Cells and ``wrong_mass`` (the other terms' weight) are Born weights over the full squared
    norm.  A ``settings`` that is no :class:`SettingTriple` raises TypeError, and a photon
    outside :data:`DETECTOR_MODES` ValueError: ``state`` must be behind the circuit.
    """
    if not isinstance(settings, SettingTriple):
        raise not_a_member("outcome_distribution", "settings", settings, SettingTriple)
    weights, (norm_w, norm_r, den) = born_terms(state)
    g_rows, h_rows, z_rows = map(_phases, STATIONS, (settings.g, settings.h, settings.z),
                                 (conjugate,) * 3)
    cells, wrong = [0] * 4 * len(OUTCOMES), []  # cells: (a, b, c, e) of a + b i + (c + e i)√2
    for pattern, coeff in state.terms.items():
        if (reads := read_pattern(pattern)[2]) is None:
            wrong.append(weights[pattern])
            continue
        (a, b, c, e), d = coeff.integers
        scale, k = isqrt(den) // d, 0  # cells × 2√2·√den, √den the terms' lcm denominator
        for gr, gi in g_rows[reads[0] < 0]:  # one loop per station over the row it reads
            for hr, hi in h_rows[reads[1] < 0]:
                ur, ui = scale * (gr * hr - gi * hi), scale * (gr * hi + gi * hr)
                for zr, zi in z_rows[reads[2] < 0]:
                    vr, vi = ur * zr - ui * zi, ur * zi + ui * zr
                    cells[k] += a * vr - b * vi
                    cells[k + 1] += a * vi + b * vr
                    cells[k + 2] += c * vr - e * vi
                    cells[k + 3] += c * vi + e * vr
                    k += 4
    # cells over 8·den, wrong mass and norm × 8 to match: the sum check sees any mass lost
    wrong_w, wrong_r = map(sum, zip((0, 0), *wrong))
    ints = iter(cells)  # map takes each cell's four ints in turn
    weighted = [*map(born_weight, ints, ints, ints, ints, repeat(1)), (8 * wrong_w, 8 * wrong_r)]
    plain, den = born_weights(dict(enumerate(weighted)), (8 * norm_w, 8 * norm_r, 8 * den))
    if not den:
        raise EmptyStateError("the zero state has no outcome distribution")
    nums = list(plain.values())
    values = {n: Fraction(n, den) for n in set(nums)}  # one Fraction per distinct value
    table = OutcomeTable.__new__(OutcomeTable)
    table._fill(settings, [*map(values.get, nums)], nums, den)
    return table


def correlation_from_table(table: OutcomeTable) -> Fraction:
    """E = Σ r_g·r_h·r_z·p over the right mass, read off the table's integer form."""
    (*cells, wrong), den = table.integer_form
    if wrong == den:
        raise UndefinedCorrelationError("no right-event mass: conditional correlation undefined")
    return Fraction(sum(g * h * z * n for (g, h, z), n in zip(OUTCOMES, cells)), den - wrong)


def correlation(
    state: StatePolynomial, settings: SettingTriple, conjugate: bool = False
) -> Fraction:
    """Triple correlation E(settings) conditioned on right events."""
    return correlation_from_table(outcome_distribution(state, settings, conjugate))


def _checked_visibility(visibility: Fraction) -> Tuple[int, int]:
    """The numerator and denominator of ``visibility``, which must pass
    :func:`ghzsim.fock.exact` and lie in [0, 1]."""
    if not exact((visibility,)):
        raise TypeError(f"visibility must be an exact rational, got {visibility!r}")
    a, b = visibility.numerator, visibility.denominator
    if not 0 <= a <= b:
        raise VisibilityRangeError(f"visibility must lie in [0, 1], got {Fraction(a, b)}")
    return a, b


def add_noise(table: OutcomeTable, visibility: Fraction) -> OutcomeTable:
    """Mix white noise into the right-event sector.

    Right cells become ``V*p + (1−V)*(1−wrong_mass)/8``; the wrong mass is
    untouched, so conditional correlations scale by exactly ``V``, which
    must pass :func:`ghzsim.fock.exact` (a float or a ``bool`` raises
    ``TypeError``).  The noisy table is built from ``table.integer_form``,
    one value per distinct cell (an ideal table has at most two), and passes
    the tables' one check, :func:`_table_form`.
    """
    return _mix_noise(table, *_checked_visibility(visibility))


def _mix_noise(table: OutcomeTable, a: int, b: int) -> OutcomeTable:
    """:func:`add_noise` at the visibility ``a/b``, already checked."""
    # V = a/b; over the table's denominator d, cell p/d and right mass r/d,
    # the noisy cell is (8a·p + (b−a)·r) / (8b·d), and the wrong mass 8b·wrong
    (*nums, wrong), d = table.integer_form
    noise, den = (b - a) * (d - wrong), 8 * b * d
    noisy = {p: Fraction(8 * a * p + noise, den) for p in set(nums)}
    result = OutcomeTable.__new__(OutcomeTable)
    result._fill(table.settings, [*map(noisy.get, nums), table.wrong_mass],
                 [*(8 * a * p + noise for p in nums), 8 * b * wrong], den)
    return result


SETTING_TRIPLE = (lambda triple: triple.code, lambda code: SettingTriple.from_code(TEXT[1](code)))
TABLE = record_codec(
    OutcomeTable,
    ("settings", "settings", SETTING_TRIPLE),
    ("cells", "probabilities", mapping_codec((outcome_code, outcome_from_code), RATIONAL)),
    ("wrong_mass", "wrong_mass", RATIONAL),
)


# ---------------------------------------------------------------------------
# The heralded state's tables
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None, typed=True)  # typed: 1 misses True's entry, and the analyzer refuses it
def _ideal_tables(conjugate: bool) -> Tuple[OutcomeTable, ...]:
    state = heralded_state()
    # a global lookup at call time, so perfbench's tracer, which wraps it here, sees it
    return tuple(outcome_distribution(state, triple, conjugate)
                 for triple in all_setting_triples())


def quantum_targets(
    visibility: Fraction = Fraction(1), conjugate: bool = False
) -> Tuple[OutcomeTable, ...]:
    """The eight outcome tables at the given fringe visibility, checked once."""
    a, b = _checked_visibility(visibility)
    require_type(bool, conjugate, "quantum_targets: conjugate must be a bool")
    return tuple(_mix_noise(t, a, b) for t in _ideal_tables(conjugate))


# (visibility, tables), with the correlations derived from the tables
QUANTUM_TABLES = derived_codec(
    tuple_codec(("visibility", RATIONAL), ("tables", sequence_codec(TABLE))), "correlations",
    lambda value: {t.settings.code: str(correlation_from_table(t)) for t in value[1]},
)
