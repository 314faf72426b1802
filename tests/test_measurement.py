"""Analyzer statistics against the independent state-vector oracle, and the
right-sector tables against the fully analyzed state."""

import hashlib
import json
import pickle
import sys
from decimal import Decimal
from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

from ghzsim import measurement
from ghzsim.circuit import innsbruck_circuit
from ghzsim.events import (
    DETECTOR_MODES,
    STATIONS,
    Station,
    read_pattern,
    trigger_select,
    two_pair_emission,
)
from ghzsim.fock import (
    Amplitude,
    Beam,
    GH,
    GV,
    HH,
    HV,
    INV_SQRT2,
    IrrationalValueError,
    Mode,
    OrderMixError,
    Polarization,
    SQRT2,
    StatePolynomial,
    TRIGGER,
    ZH,
    ZV,
    creation,
    filter_terms,
    gamma_power,
    monomial,
    norm_squared,
    over_common_denominator,
    over_one_denominator,
    substitute,
)
from ghzsim.measurement import (
    AnalyzerSetting,
    EmptyStateError,
    OUTCOMES,
    OutcomeTable,
    SettingTriple,
    TABLE,
    UndefinedCorrelationError,
    VisibilityRangeError,
    _ideal_tables,
    add_noise,
    all_setting_triples,
    analyzer_transform,
    correlation,
    correlation_from_table,
    outcome_distribution,
)
from reference import pattern_distribution, preserves_single_photon_norms, to_fraction
from statevector_oracle import oracle_correlation, oracle_distribution


def heralded_state():
    return innsbruck_circuit().apply(trigger_select(two_pair_emission()))


def right_part():
    return (
        monomial({TRIGGER: 1, GH: 1, HV: 1, ZV: 1}, INV_SQRT2)
        + monomial({TRIGGER: 1, GV: 1, HH: 1, ZH: 1}, INV_SQRT2)
    )


def analyzer_rules(settings, conjugate=False):
    """The three stations' analyzer rules of ``settings``, merged into one map."""
    rules = {}
    for station, setting in zip(STATIONS, (settings.g, settings.h, settings.z)):
        rules.update(analyzer_transform(station, setting, conjugate).rules)
    return rules


def full_expansion_table(state, settings, conjugate=False):
    """The reference table: the whole ``state`` goes through the three analyzer
    basis changes, and every resulting pattern's Born weight lands in its
    outcome cell or in the wrong mass."""
    cells = {outcome: Fraction(0) for outcome in OUTCOMES}
    wrong = Fraction(0)
    analyzed = substitute(state, analyzer_rules(settings, conjugate))
    for pattern, probability in pattern_distribution(analyzed).items():
        outcome = read_pattern(pattern)[2]
        if outcome is None:
            wrong += probability
        else:
            cells[outcome] += probability
    return OutcomeTable(settings, cells, wrong)


SETTING_PAIRS = [(triple, conjugate) for conjugate in (False, True)
                 for triple in all_setting_triples()]


# ---------------------------------------------------------------------------
# analyzer elements
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("setting", list(AnalyzerSetting))
@pytest.mark.parametrize("station", list(Station))
def test_single_photon_h_is_unbiased(station, setting):
    transform = analyzer_transform(station, setting)
    photon = creation(Mode(station.beam, Polarization.H))
    dist = pattern_distribution(transform.apply(photon))
    assert set(dist.values()) == {Fraction(1, 2)}


@pytest.mark.parametrize("conjugate", [False, True])
@pytest.mark.parametrize("setting", list(AnalyzerSetting))
@pytest.mark.parametrize("station", list(Station))
def test_analyzer_rules_stay_in_their_station(station, setting, conjugate):
    # an analyzer that kept every target in its source's station keeps each
    # term's photons per station, so it cannot move a term across sectors
    rules = analyzer_transform(station, setting, conjugate).rules
    assert {source.beam for source in rules} == {station.beam}
    assert all(target.beam == source.beam
               for source, targets in rules.items() for target, _ in targets)


def test_analyzer_transforms_are_built_and_checked_once_per_process(monkeypatch):
    from ghzsim.circuit import ModeTransform

    state, checked = heralded_state(), []
    validate = ModeTransform._validate

    def counting_validate(transform):
        checked.append(transform)
        validate(transform)

    monkeypatch.setattr(ModeTransform, "_validate", counting_validate)
    measurement._analyzer.cache_clear()
    for triple, conjugate in SETTING_PAIRS * 2:
        outcome_distribution(state, triple, conjugate)
    # one Gram check per (station, setting, conjugate)
    assert len(checked) == len(Station) * len(AnalyzerSetting) * 2 == 12


@pytest.mark.parametrize("conjugate", [False, True])
@pytest.mark.parametrize("setting", list(AnalyzerSetting))
@pytest.mark.parametrize("station", list(Station))
def test_phase_rows_are_the_analyzer_rules_times_sqrt2(station, setting, conjugate):
    # row: slot read +1 (H), then −1 (V); column: outcome +1 (H), then −1 (V)
    rules = analyzer_transform(station, setting, conjugate).rules
    modes = (Mode(station.beam, Polarization.H), Mode(station.beam, Polarization.V))
    expected = []
    for slot in modes:
        factors = dict(rules[slot])
        units = [factors.get(target, Amplitude()) * SQRT2 for target in modes]
        assert all(u.is_zero or (u.re_sqrt2, u.im_sqrt2, u.re.denominator, u.im.denominator)
                   == (0, 0, 1, 1) for u in units)  # each a Gaussian integer
        expected.append([(int(u.re), int(u.im)) for u in units])
    assert [list(row) for row in measurement._phases(station, setting, conjugate)] == expected


@pytest.mark.parametrize("settings", ["xxx", None, ("x", "x", "x"), Station.G])
def test_settings_that_are_not_a_triple_raise_type_error(settings):
    with pytest.raises(TypeError, match="outcome_distribution: settings must be a member of "
                                        "SettingTriple"):
        outcome_distribution(right_part(), settings)


@pytest.mark.parametrize("conjugate", ["no", None, 1, 0])
def test_a_conjugate_that_is_not_a_bool_raises_and_caches_nothing(conjugate):
    # 1 and 0 equal True and False, so an untyped cache would answer for them
    triple = SettingTriple.from_code("xyy")
    for flag in (False, True):
        outcome_distribution(right_part(), triple, flag)
    before = measurement._analyzer.cache_info().currsize
    with pytest.raises(TypeError, match="conjugate must be a bool"):
        outcome_distribution(right_part(), triple, conjugate)
    for station in STATIONS:
        with pytest.raises(TypeError, match="conjugate must be a bool"):
            analyzer_transform(station, AnalyzerSetting.CIRCULAR, conjugate)
    assert measurement._analyzer.cache_info().currsize == before


def test_setting_codes_are_fixed_at_construction():
    codes = {AnalyzerSetting.LINEAR45: "x", AnalyzerSetting.CIRCULAR: "y"}
    for triple in all_setting_triples():
        assert triple.code == "".join(codes[s] for s in (triple.g, triple.h, triple.z))
        assert str(triple) == triple.code and SettingTriple.from_code(triple.code) == triple
        assert pickle.loads(pickle.dumps(triple)).code == triple.code
        with pytest.raises(AttributeError):
            triple.code = "xxx"


@pytest.mark.parametrize("args,argument", [
    (("x", "y", "y"), "g"),
    ((AnalyzerSetting.LINEAR45, "y", AnalyzerSetting.CIRCULAR), "h"),
    ((AnalyzerSetting.LINEAR45, AnalyzerSetting.LINEAR45, []), "z"),  # unhashable
    ((Station.G, AnalyzerSetting.LINEAR45, AnalyzerSetting.LINEAR45), "g"),
])
def test_a_setting_triple_names_the_argument_that_is_not_a_member(args, argument):
    with pytest.raises(TypeError, match=f"SettingTriple: {argument} must be a member of"):
        SettingTriple(*args)


def test_analyzer_transforms_are_isometries():
    for station in Station:
        for setting in AnalyzerSetting:
            for conjugate in (False, True):
                transform = analyzer_transform(station, setting, conjugate)
                assert preserves_single_photon_norms(transform)


def test_diagonal_photon_is_a_pure_plus_outcome():
    # |45°> = (V + H)/sqrt2 at station G
    diagonal = (creation(GH) + creation(GV)) * INV_SQRT2
    analyzed = analyzer_transform(Station.G, AnalyzerSetting.LINEAR45).apply(diagonal)
    dist = pattern_distribution(analyzed)
    assert dist == {((GH, 1),): Fraction(1)}


def test_circular_plus_mode_reads_plus_at_h_and_minus_at_g():
    # (H + iV)/sqrt2: the +1 outcome at stations H/Z, mirrored labeling at G
    i_unit = Amplitude(0, 1)
    for station, h_mode, v_mode, expect_plus in (
        (Station.H, HH, HV, True),
        (Station.Z, ZH, ZV, True),
        (Station.G, GH, GV, False),
    ):
        photon = (creation(h_mode) + creation(v_mode) * i_unit) * INV_SQRT2
        analyzed = analyzer_transform(station, AnalyzerSetting.CIRCULAR).apply(photon)
        dist = pattern_distribution(analyzed)
        plus_pattern = ((h_mode, 1),)
        assert dist.get(plus_pattern, Fraction(0)) == (1 if expect_plus else 0)


# ---------------------------------------------------------------------------
# outcome tables
# ---------------------------------------------------------------------------


def test_right_part_linear_table():
    table = outcome_distribution(right_part(), SettingTriple.from_code("xxx"))
    assert table.wrong_mass == 0
    for outcome in OUTCOMES:
        expected = Fraction(1, 4) if outcome[0] * outcome[1] * outcome[2] == 1 else 0
        assert table.probabilities[outcome] == expected


def test_full_state_wrong_mass_setting_independent():
    state = heralded_state()
    masses = {
        triple.code: outcome_distribution(state, triple).wrong_mass
        for triple in all_setting_triples()
    }
    assert set(masses.values()) == {Fraction(3, 4)}
    # verified on the fully analyzed state, not assumed from the sector argument
    assert masses == {
        triple.code: full_expansion_table(state, triple).wrong_mass
        for triple in all_setting_triples()
    }
    # cross-check against the Fock norms: right part carries 1/4 of the state
    assert norm_squared(right_part() * gamma_power(2)) / norm_squared(state) == Amplitude(
        Fraction(1, 4)
    )


def test_tables_equal_the_full_expansion_on_the_heralded_state():
    state = heralded_state()
    for triple, conjugate in SETTING_PAIRS:
        table = outcome_distribution(state, triple, conjugate)
        assert table == full_expansion_table(state, triple, conjugate)


# sha256 of the JSON list of the 8 ideal then the 8 conjugate tables (each
# `TABLE`-encoded, triples in `all_setting_triples` order), taken from the
# code that analyzed the whole state
SIXTEEN_TABLES_SHA256 = "b52ef3855623348b13c3cfac52c47c3856a959b2a022a2f8198621b970f9aea3"


def test_the_sixteen_tables_keep_their_bytes():
    state = heralded_state()
    tables = [TABLE[0](outcome_distribution(state, triple, conjugate))
              for triple, conjugate in SETTING_PAIRS]
    text = json.dumps(tables, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == SIXTEEN_TABLES_SHA256


_STATION_MODES = sorted(DETECTOR_MODES - {TRIGGER}, key=lambda mode: mode.sort_key)


@st.composite
def _detector_states(draw):
    """1–4 terms on the detector modes: 0–2 trigger photons and 0–2 photons per
    station mode with a Gaussian-rational amplitude, or a right-sector term
    whose amplitude may also have √2 parts: none, only √2 parts, or all four
    parts, one choice per state; the terms' denominators differ; one gamma order."""
    order = draw(st.integers(0, 3))
    counts = st.integers(0, 2)
    right = st.tuples(*[st.sampled_from([{h: 1}, {v: 1}])
                        for h, v in zip(_STATION_MODES[::2], _STATION_MODES[1::2])])
    lanes = draw(st.sampled_from([(True, False), (False, True), (True, True)]))
    parts = st.fractions(-3, 3, max_denominator=6)
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            pattern = {TRIGGER: 1}
            for photon in draw(right):
                pattern.update(photon)
            gaussian, sqrt2 = lanes
        else:
            pattern = {mode: draw(counts) for mode in (TRIGGER, *_STATION_MODES)}
            gaussian, sqrt2 = True, False
        lane = st.tuples(parts, parts).filter(any)
        re, im = draw(lane) if gaussian else (0, 0)
        re_sqrt2, im_sqrt2 = draw(lane) if sqrt2 else (0, 0)
        terms.append((pattern, Amplitude(re, im, re_sqrt2, im_sqrt2, order)))
    return StatePolynomial(terms)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(state=_detector_states(), triple=st.sampled_from(all_setting_triples()),
       conjugate=st.booleans())
def test_tables_equal_the_full_expansion_on_random_states(state, triple, conjugate):
    # the same table, or the same error where the terms cancel (EmptyStateError) or
    # a weight is no rational share of the norm (IrrationalValueError)
    assert _table_outcome(lambda: outcome_distribution(state, triple, conjugate)) == (
        _table_outcome(lambda: full_expansion_table(state, triple, conjugate)))


def ring_table(state, settings, conjugate=False):
    """The table by the ring formula, as ``outcome_distribution`` once had it:
    each analyzed right-sector term's |c|^2 · Πn! times the ring inverse of the
    whole state's squared norm, and the norm less the right sector's for the
    wrong mass, each read with ``to_fraction``."""
    norm = norm_squared(state)
    right = filter_terms(state, lambda pattern: read_pattern(pattern)[2] is not None)
    if norm.is_zero:
        raise EmptyStateError("the zero state has no outcome distribution")
    inv_norm = norm.inverse()
    cells = dict.fromkeys(OUTCOMES, Fraction(0))
    analyzed = substitute(right, analyzer_rules(settings, conjugate))
    for pattern, coeff in analyzed.terms.items():
        cells[read_pattern(pattern)[2]] += to_fraction(coeff.abs_squared() * prod(
            factorial(n) for _, n in pattern) * inv_norm)
    wrong = to_fraction((norm - norm_squared(right)) * inv_norm)
    return OutcomeTable(settings, cells, wrong)


def _table_outcome(compute):
    try:
        return compute()
    except (IrrationalValueError, EmptyStateError) as exc:
        return type(exc)


_SQRT2_PART = st.fractions(-2, 2, max_denominator=2)


@st.composite
def _sqrt2_detector_states(draw):
    """A detector state times a factor with a √2 part, on every term (the Born
    weights stay rational multiples of the norm) or on its first term alone."""
    state = draw(_detector_states())
    factor = draw(st.builds(Amplitude, _SQRT2_PART, _SQRT2_PART, _SQRT2_PART, _SQRT2_PART))
    if draw(st.booleans()):
        return state * factor
    terms = state.terms
    first = next(iter(terms), None)
    if first is not None:
        terms[first] = terms[first] * factor
    return StatePolynomial(terms)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(state=_sqrt2_detector_states(), triple=st.sampled_from(all_setting_triples()),
       conjugate=st.booleans())
def test_tables_are_the_ring_formula_on_sqrt2_states(state, triple, conjugate):
    # the same table, or the same error where a weight is no rational share of the norm
    assert _table_outcome(lambda: outcome_distribution(state, triple, conjugate)) == (
        _table_outcome(lambda: ring_table(state, triple, conjugate)))


def test_a_common_sqrt2_factor_cancels_and_a_mixed_one_raises_as_in_the_ring():
    triple = SettingTriple.from_code("xxx")
    # |1 + √2|^2 = 3 + 2√2 on both terms cancels against the norm
    common = right_part() * Amplitude(1, 0, 1)
    assert outcome_distribution(common, triple) == ring_table(common, triple) == (
        outcome_distribution(right_part(), triple))
    # weights 1/2 and (3 + 2√2)/2: a cell is no rational share of their sum
    mixed = (monomial({TRIGGER: 1, GH: 1, HV: 1, ZV: 1}, INV_SQRT2)
             + monomial({TRIGGER: 1, GV: 1, HH: 1, ZH: 1}, INV_SQRT2 * Amplitude(1, 0, 1)))
    for compute in (outcome_distribution, ring_table):
        with pytest.raises(IrrationalValueError):
            compute(mixed, triple)


def test_the_sum_check_sees_mass_that_analysis_drops(monkeypatch):
    # the cells are over the whole state's norm, not over what they sum to
    real = measurement._phases

    def dropping(station, setting, conjugate):
        rows = real(station, setting, conjugate)
        if station is Station.G:
            rows[0][1] = (0, 0)  # the slot +1 row's phase to outcome −1 is lost
        return rows

    monkeypatch.setattr(measurement, "_phases", dropping)
    with pytest.raises(ValueError, match="table must sum to 1 exactly, got 15/16"):
        outcome_distribution(heralded_state(), SettingTriple.from_code("xxx"))


def test_only_the_right_sector_terms_are_analyzed(monkeypatch):
    # the right-sector terms are contracted with the analyzers' phases: no table
    # substitutes, and the tables are still those of the fully analyzed state
    state, handed = heralded_state(), []
    assert len(state) == 8
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "ghzsim" and getattr(module, "substitute", None) is substitute:
            monkeypatch.setattr(module, "substitute", lambda *args: handed.append(args))
    tables = [outcome_distribution(state, triple, conjugate) for triple, conjugate in SETTING_PAIRS]
    monkeypatch.undo()
    assert handed == []
    assert tables == [full_expansion_table(state, triple, conjugate)
                      for triple, conjugate in SETTING_PAIRS]


@pytest.mark.parametrize("conjugate", [False, True])
def test_pipeline_matches_oracle_on_all_triples(conjugate):
    state = heralded_state()
    for triple in all_setting_triples():
        table = outcome_distribution(state, triple, conjugate)
        conditional = {
            outcome: p / table.right_mass for outcome, p in table.probabilities.items()
        }
        assert conditional == oracle_distribution(triple, conjugate)


def test_correlation_values():
    state = heralded_state()
    expected = {
        "xxx": 1,
        "xyy": -1,
        "yxy": -1,
        "yyx": -1,
        "yyy": 0,
        "xxy": 0,
        "xyx": 0,
        "yxx": 0,
    }
    for code, value in expected.items():
        triple = SettingTriple.from_code(code)
        assert correlation(state, triple) == value
        assert oracle_correlation(triple) == value


def test_ghz_sign_structure_product_identity():
    state = heralded_state()
    product = Fraction(1)
    for code in ("xxx", "xyy", "yxy", "yyx"):
        product *= correlation(state, SettingTriple.from_code(code))
    assert product == -1


def test_empty_state_raises():
    with pytest.raises(EmptyStateError):
        outcome_distribution(StatePolynomial(), SettingTriple.from_code("xxx"))


def test_mixed_order_state_raises():
    mixed = creation(TRIGGER) * gamma_power(1) + monomial(
        {TRIGGER: 1, GH: 1}, gamma_power(2)
    )
    with pytest.raises(OrderMixError):
        outcome_distribution(mixed, SettingTriple.from_code("xxx"))


def test_a_photon_outside_the_detector_modes_is_an_error():
    # an emission state, not yet through the circuit: its aH photon reaches no detector
    with pytest.raises(ValueError, match="mode aH is not a detector mode"):
        outcome_distribution(trigger_select(two_pair_emission()), SettingTriple.from_code("xxx"))


def test_a_foreign_photon_in_a_wrong_sector_term_is_an_error():
    # the foreign photon sits only in a term that is never analyzed
    foreign = Mode(Beam.C, Polarization.V)
    state = right_part() + monomial({TRIGGER: 1, GH: 1, HH: 1, foreign: 1}, INV_SQRT2)
    assert foreign not in DETECTOR_MODES
    for triple, conjugate in SETTING_PAIRS:
        with pytest.raises(ValueError, match=f"mode {foreign.name} is not a detector mode"):
            outcome_distribution(state, triple, conjugate)
        with pytest.raises(ValueError, match=f"mode {foreign.name} is not a detector mode"):
            full_expansion_table(state, triple, conjugate)


def test_correlation_undefined_without_right_mass():
    wrong_only = monomial({TRIGGER: 1, GH: 1, GV: 1, ZV: 1}, gamma_power(2))
    with pytest.raises(UndefinedCorrelationError):
        correlation(wrong_only, SettingTriple.from_code("xxx"))


def test_table_constructor_enforces_normalization():
    cells = {outcome: Fraction(1, 8) for outcome in OUTCOMES}
    with pytest.raises(ValueError):
        OutcomeTable(SettingTriple.from_code("xxx"), cells, Fraction(1, 2))


# ---------------------------------------------------------------------------
# visibility mixing
# ---------------------------------------------------------------------------


def test_add_noise_identity_and_white():
    table = outcome_distribution(heralded_state(), SettingTriple.from_code("xxx"))
    assert add_noise(table, Fraction(1)) == table
    white = add_noise(table, Fraction(0))
    assert set(white.probabilities.values()) == {table.right_mass / 8}
    assert correlation_from_table(white) == 0


def test_add_noise_scales_correlations_exactly():
    state = heralded_state()
    for code in ("xxx", "xyy", "yxy", "yyx"):
        table = outcome_distribution(state, SettingTriple.from_code(code))
        for visibility in (Fraction(13, 20), Fraction(1, 2), Fraction(1, 3)):
            noisy = add_noise(table, visibility)
            assert correlation_from_table(noisy) == visibility * correlation_from_table(table)
            assert noisy.wrong_mass == table.wrong_mass
    assert correlation_from_table(
        add_noise(
            outcome_distribution(state, SettingTriple.from_code("xxx")),
            Fraction(13, 20),
        )
    ) == Fraction(13, 20)


def test_a_table_keeps_its_integer_form_outside_its_fields():
    table = OutcomeTable(SettingTriple.from_code("xyy"),
                         {(1, 1, 1): Fraction(1, 6), (-1, -1, 1): Fraction(1, 12)}, Fraction(3, 4))
    values = [table.probabilities[outcome] for outcome in OUTCOMES] + [table.wrong_mass]
    nums, den = over_one_denominator(values)
    assert table.integer_form == (tuple(nums), den) == ((2, 0, 0, 0, 0, 0, 1, 0, 9), 12)
    # equality, repr and pickling read the three fields alone
    assert "integer_form" not in repr(table) and table._values == (
        table.settings, table.probabilities, table.wrong_mass)
    copy = pickle.loads(pickle.dumps(table))
    assert copy == table and copy.integer_form == table.integer_form
    with pytest.raises(AttributeError):
        table.integer_form = ((1,) * 9, 9)


def test_forms_over_a_common_denominator():
    assert over_common_denominator([((1, 1), 2), ((1, 2), 3), ((0, 5), 5)]) == (
        [[15, 15], [10, 20], [0, 30]], 30)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 6), min_size=9, max_size=9).filter(any),
       st.fractions(0, 1, max_denominator=10**4))
def test_add_noise_builds_one_value_per_distinct_cell(weights, visibility):
    *cells, wrong = (Fraction(w, sum(weights)) for w in weights)
    table = OutcomeTable(SettingTriple.from_code("yxy"), dict(zip(OUTCOMES, cells)), wrong)
    noisy = add_noise(table, visibility)
    noise = (1 - visibility) * table.right_mass / 8
    assert noisy.probabilities == {o: visibility * p + noise
                                   for o, p in table.probabilities.items()}
    assert noisy.wrong_mass == table.wrong_mass
    # one value built per distinct cell, shared by the cells equal to it
    built = {id(v) for v in noisy.probabilities.values()}
    assert len(built) == len(set(table.probabilities.values()))


def _reference_noise(table, visibility):
    """The noisy cells and wrong mass by the Fraction formula, and their
    numerators over the lcm of their denominators."""
    noise = (1 - visibility) * table.right_mass / 8
    cells = {o: visibility * p + noise for o, p in table.probabilities.items()}
    values = [cells[outcome] for outcome in OUTCOMES] + [table.wrong_mass]
    nums, den = over_one_denominator(values)
    return cells, (tuple(nums), den)


@st.composite
def _valid_tables(draw):
    """A heralded-state table in either circular convention, or nine random
    non-negative weights, normalised."""
    if draw(st.booleans()):
        return draw(st.sampled_from(_ideal_tables(False) + _ideal_tables(True)))
    weights = draw(st.lists(st.integers(0, 10**6), min_size=9, max_size=9).filter(any))
    *cells, wrong = (Fraction(w, sum(weights)) for w in weights)
    return OutcomeTable(draw(st.sampled_from(all_setting_triples())),
                        dict(zip(OUTCOMES, cells)), wrong)


@settings(max_examples=150, deadline=None)
@given(_valid_tables(), st.fractions(0, 1, max_denominator=10**6))
def test_a_noisy_table_built_from_integers_is_the_fraction_formula(table, visibility):
    cells, form = _reference_noise(table, visibility)
    reference = OutcomeTable(table.settings, cells, table.wrong_mass)
    noisy = add_noise(table, visibility)
    assert noisy == reference and repr(noisy) == repr(reference)
    assert noisy.integer_form == reference.integer_form == form


def _fraction_correlation(table):
    """E by the Fraction formula: Σ r_g·r_h·r_z·p over the right mass."""
    if table.right_mass == 0:
        return UndefinedCorrelationError
    return sum(g * h * z * p for (g, h, z), p in table.probabilities.items()) / table.right_mass


@settings(max_examples=150, deadline=None)
@given(_valid_tables(), st.none() | st.fractions(0, 1, max_denominator=10**6))
def test_a_correlation_read_off_the_integer_form_is_the_fraction_formula(table, visibility):
    if visibility is not None:
        table = add_noise(table, visibility)
    try:
        value = correlation_from_table(table)
    except UndefinedCorrelationError as exc:
        value = type(exc)
    assert value == _fraction_correlation(table)
    assert type(value) in (Fraction, type)


@settings(max_examples=100, deadline=None)
@given(_valid_tables(), st.sampled_from(OUTCOMES),
       st.sampled_from(["negative", "sum", "float", "bool"]))
def test_the_constructor_and_the_integer_check_refuse_alike(table, outcome, fault):
    # the constructor takes rationals, the check their numerators over one
    # denominator; each fault raises one error class in both
    cells, wrong = dict(table.probabilities), table.wrong_mass
    if fault == "negative":  # the sum stays 1
        cells[outcome], wrong = -cells[outcome] - 1, wrong + 2 * cells[outcome] + 1
    elif fault == "sum":
        wrong += Fraction(1, 3)
    values = [cells[o] for o in OUTCOMES] + [wrong]
    nums, den = over_one_denominator(values)
    i = OUTCOMES.index(outcome)
    if fault == "float":
        cells[outcome], nums[i] = float(cells[outcome]), float(nums[i])
    elif fault == "bool":
        cells[outcome], nums[i] = True, True
    expected = TypeError if fault in ("float", "bool") else ValueError
    with pytest.raises(expected) as public:
        OutcomeTable(table.settings, cells, wrong)
    with pytest.raises(expected) as checked:
        measurement._table_form(nums, den)
    assert public.type is checked.type


def test_a_bool_is_no_cell_no_wrong_mass_and_no_visibility():
    # True is an int, and so a Rational: each of these once made a table
    triple = SettingTriple.from_code("xxx")
    zero = dict.fromkeys(OUTCOMES, Fraction(0))
    with pytest.raises(TypeError, match="exact rationals"):
        OutcomeTable(triple, {**zero, (1, 1, 1): True}, Fraction(0))
    with pytest.raises(TypeError, match="exact rationals"):
        OutcomeTable(triple, zero, True)
    table = outcome_distribution(right_part(), triple)
    for flag in (True, False):
        with pytest.raises(TypeError, match="visibility must be an exact rational"):
            add_noise(table, flag)


def test_add_noise_range_check():
    table = outcome_distribution(right_part(), SettingTriple.from_code("xxx"))
    with pytest.raises(VisibilityRangeError):
        add_noise(table, Fraction(-1, 10))
    with pytest.raises(VisibilityRangeError):
        add_noise(table, Fraction(21, 20))


def test_add_noise_takes_exact_visibilities_only():
    table = outcome_distribution(right_part(), SettingTriple.from_code("xxx"))
    assert add_noise(table, 1) == add_noise(table, Fraction(1))  # an int is exact
    for inexact in (0.5, Decimal("0.5"), "1/2"):
        with pytest.raises(TypeError):
            add_noise(table, inexact)


def test_table_json_roundtrip():
    table = outcome_distribution(heralded_state(), SettingTriple.from_code("xyy"))
    assert TABLE[1](TABLE[0](table)) == table
