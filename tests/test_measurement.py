"""Analyzer statistics against the independent state-vector oracle."""

from fractions import Fraction

import pytest

from ghzsim.circuit import innsbruck_circuit
from ghzsim.events import trigger_select, two_pair_emission
from ghzsim.fock import (
    Amplitude,
    GH,
    GV,
    HH,
    HV,
    INV_SQRT2,
    Mode,
    OrderMixError,
    Polarization,
    StatePolynomial,
    TRIGGER,
    ZH,
    ZV,
    creation,
    gamma_power,
    monomial,
    norm_squared,
)
from ghzsim.measurement import (
    AnalyzerSetting,
    EmptyStateError,
    OUTCOMES,
    OutcomeTable,
    SettingTriple,
    Station,
    TABLE,
    UndefinedCorrelationError,
    VisibilityRangeError,
    add_noise,
    all_setting_triples,
    analyzer_transform,
    correlation,
    correlation_from_table,
    outcome_distribution,
    pattern_distribution,
)
from statevector_oracle import oracle_correlation, oracle_distribution


def heralded_state():
    return innsbruck_circuit().apply(trigger_select(two_pair_emission()))


def right_part():
    return (
        monomial({TRIGGER: 1, GH: 1, HV: 1, ZV: 1}, INV_SQRT2)
        + monomial({TRIGGER: 1, GV: 1, HH: 1, ZH: 1}, INV_SQRT2)
    )


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


def test_analyzer_transforms_are_isometries():
    from ghzsim.circuit import preserves_single_photon_norms

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
    # cross-check against the Fock norms: right part carries 1/4 of the state
    assert norm_squared(right_part() * gamma_power(2)) / norm_squared(state) == Amplitude(
        Fraction(1, 4)
    )


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


def test_add_noise_range_check():
    table = outcome_distribution(right_part(), SettingTriple.from_code("xxx"))
    with pytest.raises(VisibilityRangeError):
        add_noise(table, Fraction(-1, 10))
    with pytest.raises(VisibilityRangeError):
        add_noise(table, Fraction(21, 20))


def test_table_json_roundtrip():
    table = outcome_distribution(heralded_state(), SettingTriple.from_code("xyy"))
    assert TABLE[1](TABLE[0](table)) == table
