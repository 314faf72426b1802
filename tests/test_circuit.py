"""Element constructors, exact unitarity, and the composed circuit."""

from fractions import Fraction

import pytest

from ghzsim.circuit import (
    CircuitConfigError,
    ModeTransform,
    OpticalCircuit,
    beamsplitter_5050,
    circuit_text,
    half_wave_plate_22_5,
    innsbruck_circuit,
    polarizing_beamsplitter,
    transform_text,
)
from ghzsim.events import trigger_select, two_pair_emission
from ghzsim.fock import (
    AH,
    AV,
    BH,
    BV,
    Amplitude,
    Beam,
    CH,
    CV,
    GH,
    GV,
    HH,
    HV,
    INV_SQRT2,
    ONE,
    Polarization,
    REFLECT_ARM,
    StatePolynomial,
    TRIGGER,
    ZH,
    ZV,
    amplitude,
    creation,
    equal_up_to_phase,
    gamma_power,
    monomial,
    norm_squared,
    rational,
)
from reference import preserves_single_photon_norms, vacuum_unit


def test_beamsplitter_rule():
    splitter = beamsplitter_5050(Beam.B, Beam.C, Beam.G)
    assert splitter.rules[BV] == ((CV, INV_SQRT2), (GV, INV_SQRT2))
    assert splitter.rules[BH] == ((CH, INV_SQRT2), (GH, INV_SQRT2))


def test_beamsplitter_identity_without_matching_modes():
    splitter = beamsplitter_5050(Beam.B, Beam.C, Beam.G)
    state = creation(AH) * creation(AV)
    assert splitter.apply(splitter.apply(state)) == state


def test_beamsplitter_rejects_duplicate_beams():
    with pytest.raises(CircuitConfigError):
        beamsplitter_5050(Beam.B, Beam.C, Beam.C)


def test_element_isometry_on_single_photons():
    circuit = innsbruck_circuit()
    for element in circuit.elements:
        assert preserves_single_photon_norms(element)
    assert preserves_single_photon_norms(circuit.compose())


def test_gram_check_rejects_nonunitary():
    with pytest.raises(CircuitConfigError):
        ModeTransform({BH: ((CH, ONE), (GH, ONE))})  # norm 2, not 1
    with pytest.raises(CircuitConfigError):
        # two sources mapped onto one output mode
        ModeTransform({BH: ((CH, ONE),), BV: ((CH, ONE),)})
    with pytest.raises(CircuitConfigError):
        ModeTransform({BH: ((CH, gamma_power(1)),)})
    with pytest.raises(CircuitConfigError, match="duplicate target"):
        ModeTransform({BH: ((CH, INV_SQRT2), (CH, INV_SQRT2))})


def test_pbs1_relabels_the_two_arms():
    pbs1 = polarizing_beamsplitter([Beam.A], Beam.A_H, Beam.A_V)
    assert pbs1.apply(creation(AH)) == creation(TRIGGER)
    reflected = pbs1.apply(creation(AV))
    assert reflected == creation(REFLECT_ARM)
    # V-only input produces nothing in the transmitted H arm
    assert amplitude(reflected, {TRIGGER: 1}) == Amplitude()


def test_pbs2_routes_by_polarization():
    pbs2 = polarizing_beamsplitter([Beam.C, Beam.A_45], Beam.Z, Beam.H)
    assert pbs2.apply(creation(CV)) == creation(HV)
    assert pbs2.apply(creation(CH)) == creation(ZH)


def test_pbs_rejects_bad_configurations():
    with pytest.raises(CircuitConfigError):
        polarizing_beamsplitter([Beam.A, Beam.A], Beam.Z, Beam.H)
    with pytest.raises(CircuitConfigError):
        polarizing_beamsplitter([Beam.C], Beam.C, Beam.H)
    with pytest.raises(CircuitConfigError):
        # transmit beam cannot carry H: no defined output for an H input
        polarizing_beamsplitter([Beam.A], Beam.A_V, Beam.A_H)
    for inputs in ([], [Beam.A, Beam.B, Beam.C]):
        with pytest.raises(CircuitConfigError, match="one or two inputs"):
            polarizing_beamsplitter(inputs, Beam.Z, Beam.H)


@pytest.mark.parametrize("build,argument", [
    (lambda: beamsplitter_5050("b", Beam.C, Beam.G), "input_beam"),
    (lambda: beamsplitter_5050(Beam.B, Beam.C, None), "out2_beam"),
    (lambda: polarizing_beamsplitter(["a"], Beam.A_H, Beam.A_V), "input_beams"),
    (lambda: polarizing_beamsplitter([Beam.A], Beam.A_H, "a_V"), "reflect_beam"),
    (lambda: half_wave_plate_22_5("a_V"), "input_beam"),
    (lambda: half_wave_plate_22_5(Polarization.V), "input_beam"),
], ids=["splitter input", "splitter output", "pbs input", "pbs output", "plate", "plate pol"])
def test_an_element_names_the_beam_that_is_not_a_member(build, argument):
    with pytest.raises(TypeError, match=f": {argument} must be a member of Beam"):
        build()


def test_half_wave_plate_composite_rule():
    waveplate = half_wave_plate_22_5(Beam.A_V)
    pbs2 = polarizing_beamsplitter([Beam.C, Beam.A_45], Beam.Z, Beam.H)
    composite = OpticalCircuit((waveplate, pbs2)).compose()
    assert composite.rules[REFLECT_ARM] == ((HH, INV_SQRT2), (ZV, INV_SQRT2))
    # square of the rule
    squared = pbs2.apply(waveplate.apply(monomial({REFLECT_ARM: 2})))
    half = Amplitude(Fraction(1, 2))
    expected = (
        monomial({HH: 2}, half) + monomial({HH: 1, ZV: 1}) + monomial({ZV: 2}, half)
    )
    assert squared == expected
    # no a_V modes: unchanged
    assert waveplate.apply(creation(BH)) == creation(BH)


def test_half_wave_plate_rejects_h_carrying_arm():
    with pytest.raises(CircuitConfigError):
        half_wave_plate_22_5(Beam.A)  # beam a carries H as well


def test_composed_circuit_matches_stated_map():
    composed = innsbruck_circuit().compose()
    assert composed.rules[AH] == ((TRIGGER, ONE),)
    assert composed.rules[AV] == ((HH, INV_SQRT2), (ZV, INV_SQRT2))
    assert composed.rules[BH] == ((GH, INV_SQRT2), (ZH, INV_SQRT2))
    assert composed.rules[BV] == ((GV, INV_SQRT2), (HV, INV_SQRT2))
    assert set(composed.rules) == {AH, AV, BH, BV}


def test_circuit_reproduces_heralded_product_state():
    circuit = innsbruck_circuit()
    derived = circuit.apply(trigger_select(two_pair_emission()))
    # (1/sqrt2) aH† (zV† + hH†)(hV† + gV†)(gH† + zH†), written out by hand
    product_form = (
        creation(TRIGGER)
        * (creation(ZV) + creation(HH))
        * (creation(HV) + creation(GV))
        * (creation(GH) + creation(ZH))
        * INV_SQRT2
        * gamma_power(2)
    )
    assert len(derived) == 8
    assert equal_up_to_phase(derived, product_form)
    assert derived == product_form * rational(-1)  # the single global phase


def test_circuit_on_single_pair_trigger_component():
    derived = innsbruck_circuit().apply(creation(AH) * creation(BV))
    expected = (creation(TRIGGER) * creation(HV) + creation(TRIGGER) * creation(GV)) * INV_SQRT2
    assert derived == expected


def test_circuit_on_vacuum_unit():
    assert innsbruck_circuit().apply(vacuum_unit()) == vacuum_unit()
    assert innsbruck_circuit().apply(StatePolynomial()) == StatePolynomial()


def test_composition_is_associative_and_equals_sequential():
    elements = innsbruck_circuit().elements
    def then(a, b):
        return OpticalCircuit((a, b)).compose()

    left = then(then(then(elements[0], elements[1]), elements[2]), elements[3])
    right = then(elements[0], then(elements[1], then(elements[2], elements[3])))
    assert left.rules == right.rules
    assert left.name == right.name == innsbruck_circuit().compose().name

    state = trigger_select(two_pair_emission()) + creation(AH) * gamma_power(2) * creation(BH)
    sequential = OpticalCircuit(elements).apply(state)
    assert left.apply(state) == sequential


def test_composed_name_joins_the_element_names():
    elements = innsbruck_circuit().elements
    assert OpticalCircuit(elements).compose().name == "PBS(a)>WP(a_V)>BS(b)>PBS(c+a_45)"
    unnamed = ModeTransform(elements[2].rules)
    assert OpticalCircuit((*elements[:2], unnamed, elements[3])).compose().name == ""
    assert OpticalCircuit().compose() == ModeTransform({}, name="identity")
    assert OpticalCircuit(elements[2:3]).compose() == elements[2]


def test_norm_preserved_through_whole_circuit():
    circuit = innsbruck_circuit()
    for state in (
        creation(AH),
        creation(AV),
        creation(BH) + creation(BV) * INV_SQRT2 * rational(1),
        two_pair_emission(),
    ):
        assert norm_squared(circuit.apply(state)) == norm_squared(state)


def test_circuit_text_golden():
    text = circuit_text(innsbruck_circuit())
    assert "# composed" in text
    assert "aV -> (1/2·√2)*h_H + (1/2·√2)*z_V" in text
    assert "bH -> (1/2·√2)*g_H + (1/2·√2)*z_H" in text
    assert text.splitlines()[0] == "# PBS(a)"
    single = transform_text(beamsplitter_5050(Beam.B, Beam.C, Beam.G))
    assert single.splitlines() == [
        "bH -> (1/2·√2)*cH + (1/2·√2)*g_H",
        "bV -> (1/2·√2)*cV + (1/2·√2)*g_V",
    ]
