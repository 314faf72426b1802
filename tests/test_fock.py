"""Exactness and algebra laws of the creation-operator polynomials."""

import copy
import pickle
from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

from ghzsim.fock import (
    AH,
    AV,
    BH,
    BV,
    GH,
    GV,
    HV,
    ZV,
    AMPLITUDE,
    Amplitude,
    Beam,
    HH,
    INV_SQRT2,
    I_UNIT,
    InvalidModeError,
    IrrationalValueError,
    MODE_BY_NAME,
    MODE_NAMES,
    Mode,
    ONE,
    OrderMixError,
    Polarization,
    SQRT2,
    StatePolynomial,
    TRIGGER,
    ZERO,
    ZH,
    amplitude,
    as_pattern,
    born_terms,
    born_weights,
    creation,
    equal_up_to_phase,
    filter_terms,
    gamma_power,
    monomial,
    multiply,
    norm_squared,
    over_one_denominator,
    pattern_from_json,
    pattern_to_json,
    rational,
    render_amplitude,
    render_polynomial,
    substitute,
)
from reference import to_fraction, total_photons, vacuum_unit


# ---------------------------------------------------------------------------
# amplitude ring
# ---------------------------------------------------------------------------


def test_sqrt2_squares_to_two():
    assert SQRT2 * SQRT2 == rational(2)
    assert INV_SQRT2 * INV_SQRT2 == Amplitude(Fraction(1, 2))
    assert INV_SQRT2 * SQRT2 == ONE


def test_imaginary_unit():
    assert I_UNIT * I_UNIT == rational(-1)
    assert I_UNIT.conjugate() == -I_UNIT


def test_mixed_product():
    a = Amplitude(1, 1)  # 1 + i
    b = Amplitude(0, 0, 1, -1)  # (1 - i) sqrt2
    # (1+i)(1-i) sqrt2 = 2 sqrt2
    assert a * b == Amplitude(0, 0, 2)


def test_abs_squared():
    assert (INV_SQRT2 * I_UNIT).abs_squared() == Amplitude(Fraction(1, 2))
    assert Amplitude(1, 1).abs_squared() == Amplitude(2)
    # |1 + sqrt2|^2 = 3 + 2 sqrt2 stays in the ring
    assert Amplitude(1, 0, 1).abs_squared() == Amplitude(3, 0, 2)


def test_inverse_and_division():
    values = [
        Amplitude(Fraction(3, 7)),
        INV_SQRT2,
        Amplitude(1, 2, Fraction(1, 3), -1),
        I_UNIT,
        Amplitude(1, 0, 1),  # 1 + sqrt2
    ]
    for value in values:
        assert value * value.inverse() == ONE
    assert (SQRT2 / SQRT2) == ONE
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_order_bookkeeping():
    g = gamma_power(1)
    assert (g * g).order == 2
    with pytest.raises(OrderMixError):
        gamma_power(1) + gamma_power(2)
    # adding zero is always allowed
    assert gamma_power(2) + ZERO == gamma_power(2)
    with pytest.raises(OrderMixError):
        gamma_power(1).inverse()


@pytest.mark.parametrize("make,args,kwargs", [
    (Amplitude, (0.1,), {}),  # a float is a binary fraction: 3602879701896397/2^55
    (Amplitude, (0, 0, "1/2"), {}),
    (Amplitude, (0, True), {}),
    (Amplitude, (1,), {"order": 1.5}),
    (Amplitude, (1,), {"order": True}),
    (rational, (0.5,), {}),
    (rational, ("1/2",), {}),
    (rational, (1, 2.0), {}),
    (gamma_power, (True,), {}),
    (gamma_power, (1.0,), {}),
])
def test_only_exact_rationals_and_int_orders_enter_the_ring(make, args, kwargs):
    with pytest.raises(TypeError, match="exact rationals|must be an int"):
        make(*args, **kwargs)


class _Ratio(Fraction):
    """A numbers.Rational whose type is not Fraction itself."""


@pytest.mark.parametrize("value", [Amplitude(1, 1), creation(AH, SQRT2)], ids=str)
def test_a_scalar_product_takes_only_an_exact_rational(value):
    # the constructor refuses a bool part, and so does a product with a scalar
    for scalar in (True, False, 0.5):
        with pytest.raises(TypeError):
            value * scalar
        with pytest.raises(TypeError):
            scalar * value
    half = _Ratio(1, 2)
    assert value * half == half * value == value * Fraction(1, 2)
    assert value * 2 == value * Fraction(2) == 2 * value


def test_to_fraction():
    assert to_fraction(Amplitude(Fraction(5, 3))) == Fraction(5, 3)
    for value in (SQRT2, I_UNIT, Amplitude(1, order=2)):
        with pytest.raises(IrrationalValueError):
            to_fraction(value)


def test_amplitude_rendering():
    assert render_amplitude(rational(-2)) == "-2"
    assert render_amplitude(INV_SQRT2) == "1/2·√2"
    assert render_amplitude(SQRT2) == "√2"
    assert render_amplitude(-SQRT2) == "-√2"
    assert render_amplitude(I_UNIT) == "i"
    assert render_amplitude(Amplitude(0, -1)) == "-i"
    assert render_amplitude(Amplitude(0, 2)) == "2i"
    assert render_amplitude(Amplitude(1, 1)) == "(1+i)"
    assert render_amplitude(Amplitude(1, 0, Fraction(-1, 2))) == "1 - 1/2·√2"
    assert render_amplitude(ZERO) == "0"


def test_amplitude_json_roundtrip():
    value = Amplitude(Fraction(1, 3), -2, Fraction(5, 7), Fraction(0), 2)
    assert AMPLITUDE[1](AMPLITUDE[0](value)) == value


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------


def test_mode_validation():
    assert Mode(Beam.A, Polarization.H) == AH
    with pytest.raises(InvalidModeError):
        Mode(Beam.A_H, Polarization.V)  # the trigger arm carries only H
    with pytest.raises(InvalidModeError):
        Mode(Beam.A_V, Polarization.H)


@pytest.mark.parametrize("beam,polarization,argument", [
    ("g", "H", "beam"),
    (Beam.G, "H", "polarization"),
    (None, None, "beam"),
    ([], Polarization.H, "beam"),  # unhashable
    (Beam.G, Beam.H, "polarization"),
])
def test_mode_names_the_argument_that_is_not_a_member(beam, polarization, argument):
    with pytest.raises(TypeError, match=f"Mode: {argument} must be a member of"):
        Mode(beam, polarization)


def test_mode_refuses_derived_items_that_are_not_its_own():
    with pytest.raises(TypeError, match="takes the fields beam, polarization"):
        Mode(Beam.G, Polarization.H, "x", (0, 0))


@pytest.mark.parametrize("name", sorted(MODE_BY_NAME))
def test_each_mode_is_interned(name):
    mode = MODE_BY_NAME[name]
    assert Mode(mode.beam, mode.polarization) is mode
    assert Mode(polarization=mode.polarization, beam=mode.beam) is mode
    assert mode._replace() is mode
    for copied in (pickle.loads(pickle.dumps(mode)), copy.copy(mode), copy.deepcopy(mode)):
        assert copied is mode
    assert mode != (mode.beam, mode.polarization) and (mode.beam, mode.polarization) != mode
    assert MODE_NAMES[mode.beam, mode.polarization] == name == str(mode)


def test_mode_ordering_is_total():
    modes = [ZV, AH, TRIGGER, BH, GV]
    ordered = sorted(modes)
    assert ordered == sorted(modes, key=lambda m: m.sort_key)
    assert ordered[0] == AH


def test_pattern_json_roundtrip():
    pattern = as_pattern({TRIGGER: 1, GH: 1, HV: 1, ZV: 1})
    assert pattern_from_json(pattern_to_json(pattern)) == pattern
    with pytest.raises(InvalidModeError):
        pattern_from_json({"nope": 1})


@pytest.mark.parametrize("count", [1.5, 0.9, "2", 2.7, True, False, Fraction(2)])
def test_as_pattern_rejects_a_count_that_is_not_an_int(count):
    with pytest.raises(TypeError, match="ints"):
        as_pattern({GH: count})
    with pytest.raises(TypeError, match="ints"):
        monomial({GH: count})


def test_as_pattern_takes_int_counts_and_drops_zeros():
    assert as_pattern({GH: 2, HV: 0}) == ((GH, 2),)
    assert as_pattern([(GH, 1), (GH, 1)]) == ((GH, 2),)
    with pytest.raises(ValueError, match="non-negative"):
        as_pattern({GH: -1})
    with pytest.raises(TypeError, match="keys must be Mode"):
        as_pattern({"g_H": 1})


# ---------------------------------------------------------------------------
# polynomial operations: spec examples
# ---------------------------------------------------------------------------


def test_multiply_same_mode_powers():
    squared = multiply(creation(AH), creation(AH))
    assert squared == monomial({AH: 2})


def test_multiply_binomial_square():
    pair = creation(AV) * creation(BH) - creation(AH) * creation(BV)
    squared = pair * pair
    expected = StatePolynomial(
        {
            as_pattern({AV: 2, BH: 2}): ONE,
            as_pattern({AV: 1, BH: 1, AH: 1, BV: 1}): rational(-2),
            as_pattern({AH: 2, BV: 2}): ONE,
        }
    )
    assert squared == expected


def test_multiply_by_vacuum_unit_is_identity():
    poly = creation(AV) * creation(BH) * rational(3)
    assert multiply(poly, vacuum_unit()) == poly


def test_powers_are_repeated_products_from_the_base():
    pair = creation(AV) * creation(BH) - creation(AH) * creation(BV) * I_UNIT
    assert pair ** 0 == vacuum_unit()
    assert pair ** 1 == pair
    assert pair ** 3 == pair * pair * pair


@pytest.mark.parametrize("exponent", [True, False, 2.0, Fraction(2), "2", None])
def test_a_power_takes_only_an_int_exponent(exponent):
    # a bool is no exponent, though True == 1
    with pytest.raises(TypeError, match="exponent must be an int"):
        creation(AH) ** exponent


def test_negative_powers_raise():
    with pytest.raises(ValueError, match="negative powers"):
        creation(AH) ** -1


def test_substitute_single_rule():
    rule = {BH: ((CH := Mode(Beam.C, Polarization.H), INV_SQRT2), (GH, INV_SQRT2))}
    image = substitute(creation(BH), rule)
    assert image == creation(CH) * INV_SQRT2 + creation(GH) * INV_SQRT2


def test_substitute_square_expands_multinomially():
    from ghzsim.fock import CH

    rule = {BH: ((CH, INV_SQRT2), (GH, INV_SQRT2))}
    image = substitute(monomial({BH: 2}), rule)
    half = Amplitude(Fraction(1, 2))
    expected = (
        monomial({CH: 2}, half)
        + monomial({CH: 1, GH: 1}, ONE)
        + monomial({GH: 2}, half)
    )
    assert image == expected


def test_substitute_passthrough():
    rule = {BH: ((GH, ONE),)}
    assert substitute(creation(AH), rule) == creation(AH)
    with pytest.raises(TypeError, match="ModeTransform or a rules mapping"):
        substitute(creation(AH), 5)


def test_filter_terms_partition():
    poly = creation(AH) + creation(AV) + monomial({BH: 2})
    heavy = filter_terms(poly, lambda pat: total_photons(pat) > 1)
    light = filter_terms(poly, lambda pat: total_photons(pat) <= 1)
    assert heavy + light == poly
    assert filter_terms(poly, lambda pat: True) == poly


def test_amplitude_lookup_and_linearity():
    poly = creation(AH) * rational(2) + creation(AV) * I_UNIT
    assert amplitude(poly, {AH: 1}) == rational(2)
    assert amplitude(poly, {BH: 1}) == ZERO
    other = creation(AH) * rational(3)
    assert amplitude(poly + other, {AH: 1}) == amplitude(poly, {AH: 1}) + amplitude(
        other, {AH: 1}
    )


def test_norm_two_photon_fock():
    assert norm_squared(monomial({AH: 2})) == rational(2)  # 2!


def test_norm_right_part_is_one():
    # hand-derived: two orthogonal single-occupancy terms, each of norm 1/2
    right = (
        monomial({GH: 1, HV: 1, ZV: 1}, INV_SQRT2)
        + monomial({GV: 1, HH: 1, ZH: 1}, INV_SQRT2)
    )
    assert norm_squared(right) == ONE


def test_norm_empty_polynomial():
    assert norm_squared(StatePolynomial()) == ZERO


def test_norm_rejects_mixed_orders():
    mixed = creation(AH, gamma_power(1)) + monomial({AV: 2}, gamma_power(2))
    with pytest.raises(OrderMixError):
        norm_squared(mixed)


def test_equal_up_to_phase():
    poly = creation(AH) + creation(AV) * I_UNIT
    assert equal_up_to_phase(poly, poly * rational(-1))
    assert equal_up_to_phase(poly, poly * I_UNIT)
    # (1+i)/sqrt2 is a unit-modulus ring element
    assert equal_up_to_phase(poly, poly * (Amplitude(1, 1) * INV_SQRT2))
    assert not equal_up_to_phase(poly, poly * rational(2))
    assert not equal_up_to_phase(poly, creation(AH))
    # a relative phase between terms is not a global phase
    twisted = creation(AH) - creation(AV) * I_UNIT
    assert not equal_up_to_phase(poly, twisted)
    assert equal_up_to_phase(StatePolynomial(), StatePolynomial())


def test_a_polynomial_is_unhashable_and_equals_no_other_type():
    poly = creation(GH)
    assert repr(poly) == "StatePolynomial((1)·g_H†)"
    assert (poly == 1) is False
    with pytest.raises(TypeError, match="unhashable"):
        hash(poly)
    with pytest.raises(TypeError, match="unhashable"):
        {poly, creation(AH)}


def test_render_polynomial_golden():
    post_trigger = monomial({AH: 1, AV: 1, BH: 1, BV: 1}, rational(-2, order=2))
    assert render_polynomial(post_trigger) == "(-2)·γ^2·aH†·aV†·bH†·bV†"
    assert render_polynomial(StatePolynomial()) == "0"
    assert (
        render_polynomial(monomial({TRIGGER: 1, GH: 2}, INV_SQRT2))
        == "(1/2·√2)·a_H†·g_H†^2"
    )


# ---------------------------------------------------------------------------
# algebra laws on random small polynomials
# ---------------------------------------------------------------------------

_MODES = st.sampled_from([AH, AV, BH, BV])

_amplitudes = st.builds(
    Amplitude,
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.fractions(min_value=-2, max_value=2, max_denominator=2),
    st.fractions(min_value=-2, max_value=2, max_denominator=2),
)

_patterns = st.dictionaries(_MODES, st.integers(min_value=1, max_value=2), max_size=3)

_polynomials = st.lists(
    st.tuples(_patterns, _amplitudes), min_size=0, max_size=3
).map(lambda items: StatePolynomial([(as_pattern(p), a) for p, a in items]))

_BS_RULE = {
    BH: ((Mode(Beam.C, Polarization.H), INV_SQRT2), (GH, INV_SQRT2)),
    BV: ((Mode(Beam.C, Polarization.V), INV_SQRT2), (GV, INV_SQRT2)),
}


@settings(max_examples=60, deadline=None)
@given(_polynomials, _polynomials)
def test_multiply_commutes(p, q):
    assert multiply(p, q) == multiply(q, p)


@settings(max_examples=60, deadline=None)
@given(_polynomials, _polynomials, _polynomials)
def test_multiply_distributes_and_associates(p, q, r):
    assert multiply(p, q + r) == multiply(p, q) + multiply(p, r)
    assert multiply(multiply(p, q), r) == multiply(p, multiply(q, r))


@settings(max_examples=60, deadline=None)
@given(_polynomials, _polynomials)
def test_substitute_is_linear(p, q):
    assert substitute(p + q, _BS_RULE) == substitute(p, _BS_RULE) + substitute(
        q, _BS_RULE
    )


@settings(max_examples=60, deadline=None)
@given(_patterns)
def test_substitute_preserves_photon_number(pattern):
    mono = monomial(as_pattern(pattern))
    count = total_photons(as_pattern(pattern))
    for term_pattern in substitute(mono, _BS_RULE).terms:
        assert total_photons(term_pattern) == count


@settings(max_examples=60, deadline=None)
@given(_polynomials)
def test_canonicalization_is_idempotent(p):
    assert StatePolynomial(p.terms) == p


@settings(max_examples=60, deadline=None)
@given(_polynomials)
def test_filter_complement_recovers(p):
    pred = lambda pat: total_photons(pat) % 2 == 0
    assert filter_terms(p, pred) + filter_terms(p, lambda pat: not pred(pat)) == p


# ---------------------------------------------------------------------------
# substitute and norm_squared against per-photon and per-term references
# ---------------------------------------------------------------------------


def _merge(a, b):
    counts = dict(a)
    for mode, count in b:
        counts[mode] = counts.get(mode, 0) + count
    return tuple(sorted(counts.items(), key=lambda kv: kv[0].sort_key))


def _reference_substitute(p, rules):
    """Substitution one photon at a time: each partial product's pattern is
    merged and re-sorted per photon, and equal partial patterns are summed
    before the next photon."""
    out = {}
    for pattern, coeff in p.terms.items():
        partial = {(): coeff}
        for mode, count in pattern:
            factor = [(((target, 1),), amp) for target, amp in rules.get(mode, ((mode, ONE),))]
            for _ in range(count):
                expanded = {}
                for key, value in partial.items():
                    for single, amp in factor:
                        pat, term = _merge(key, single), value * amp
                        expanded[pat] = expanded[pat] + term if pat in expanded else term
                partial = expanded
        for key, value in partial.items():
            out[key] = out[key] + value if key in out else value
    return StatePolynomial(out)


def _outcome(compute):
    try:
        result = compute()
    except OrderMixError as exc:
        return type(exc)
    return result, list(result.terms)


# A rule is a linear map of one gamma order: the nonzero amplitudes of one
# source's targets share an order (0 to 2), as in every ModeTransform (order 0)
# and every analyzer.  Targets may repeat, be zero, be other sources or be
# missing altogether (an empty rule removes the term).
_rule = st.tuples(
    st.lists(st.tuples(_MODES, _amplitudes), max_size=3), st.integers(min_value=0, max_value=2)
).map(lambda rule: tuple((target, amp * gamma_power(rule[1])) for target, amp in rule[0]))
_rules = st.dictionaries(_MODES, _rule, max_size=4)  # a mode with no rule passes through
_mixed_order_polynomials = st.lists(
    st.tuples(
        st.dictionaries(_MODES, st.integers(min_value=1, max_value=3), max_size=3),
        _amplitudes,
        st.integers(min_value=0, max_value=2),
    ),
    max_size=4,
).map(lambda items: StatePolynomial(
    {as_pattern(p): a * gamma_power(k) for p, a, k in items}
))


@settings(max_examples=300, deadline=None)
@given(_mixed_order_polynomials, _rules)
def test_substitute_matches_the_per_photon_reference(p, rules):
    # equal polynomials with the same term order, or the same error on a
    # mixed-order collision
    assert _outcome(lambda: substitute(p, rules)) == _outcome(
        lambda: _reference_substitute(p, rules)
    )


def test_substitute_raises_on_a_mixed_order_collision_as_the_reference_does():
    rules = {AH: ((BH, ONE),), AV: ((BH, gamma_power(1)),)}
    state = creation(AH) + creation(AV)
    with pytest.raises(OrderMixError):
        _reference_substitute(state, rules)
    with pytest.raises(OrderMixError):
        substitute(state, rules)
    # an empty rule removes its term, and an unruled mode passes through
    assert substitute(state * creation(GH), {AH: (), AV: ((BV, I_UNIT),)}) == monomial(
        {BV: 1, GH: 1}, I_UNIT
    )
    # a term's image joins the sum whole: the two paths of bH·bV to gH·gV cancel,
    # so they meet the earlier order-1 term there with nothing
    rules = {AH: ((GH, ONE),), AV: ((GV, ONE),),
             BH: ((GH, ONE), (GV, ONE)), BV: ((GH, ONE), (GV, -ONE))}
    state = monomial({AH: 1, AV: 1}, gamma_power(1)) + monomial({BH: 1, BV: 1})
    expected = monomial({GH: 1, GV: 1}, gamma_power(1)) + monomial({GH: 2}) - monomial({GV: 2})
    assert substitute(state, rules) == _reference_substitute(state, rules) == expected


_single_order_polynomials = st.tuples(
    st.lists(
        st.tuples(
            st.dictionaries(_MODES, st.integers(min_value=1, max_value=3), max_size=3),
            _amplitudes,
        ),
        max_size=4,
    ),
    st.integers(min_value=0, max_value=2),
).map(lambda drawn: StatePolynomial(
    {as_pattern(p): a * gamma_power(drawn[1]) for p, a in drawn[0]}
))


@settings(max_examples=200, deadline=None)
@given(_single_order_polynomials)
def test_norm_squared_matches_the_per_term_ring_sum(p):
    reference = ZERO
    for pattern, coeff in p.terms.items():
        weight = 1
        for _, n in pattern:
            weight *= factorial(n)
        reference = reference + coeff.abs_squared() * weight
    assert norm_squared(p) == reference


def test_norm_squared_sums_sqrt2_imaginary_and_factorial_parts():
    # |(1 + i) + √2|² = 4 + 2√2, times 3! for three photons in one mode
    state = monomial({AH: 3}, Amplitude(1, 1, 1)) + monomial({BV: 2}, INV_SQRT2 * I_UNIT)
    assert norm_squared(state) == Amplitude(24, 0, 12) + rational(1)


def _ring_distribution(p):
    """The Born probabilities by the ring formula, as ``pattern_distribution``
    once had it: each term's |c|^2 · Πn! times the ring inverse of the squared
    norm, read with ``to_fraction``."""
    inv_norm = ZERO if p.is_zero else norm_squared(p).inverse()
    return {pattern: to_fraction(coeff.abs_squared() * prod(factorial(n) for _, n in pattern)
                                 * inv_norm) for pattern, coeff in p.terms.items()}


def _born_outcome(compute):
    try:
        return compute()
    except (IrrationalValueError, OrderMixError) as exc:
        return type(exc)


def _born(p):
    return born_weights(*born_terms(p))


def _born_distribution(p):
    weights, den = _born(p)
    assert (den == 0) == p.is_zero
    distribution = {pattern: Fraction(w, den) for pattern, w in weights.items()}
    # the denominator is the lcm of the probabilities' denominators
    assert p.is_zero or (list(weights.values()), den) == over_one_denominator(
        list(distribution.values()))
    return distribution


_gaussian = st.builds(Amplitude, st.fractions(min_value=-3, max_value=3, max_denominator=4),
                      st.fractions(min_value=-3, max_value=3, max_denominator=4))

# one-order polynomials with √2 and imaginary parts (a √2 part on some terms
# alone mostly gives weights that are no rational multiple of the norm),
# Gaussian ones times one factor with a √2 part (rational), and mixed orders
_born_states = st.one_of(
    _single_order_polynomials,
    st.tuples(
        st.lists(st.tuples(st.dictionaries(_MODES, st.integers(min_value=1, max_value=3),
                                           min_size=1, max_size=3), _gaussian), max_size=4),
        _amplitudes,
        st.integers(min_value=0, max_value=2),
    ).map(lambda drawn: StatePolynomial(
        {as_pattern(p): a * drawn[1] * gamma_power(drawn[2]) for p, a in drawn[0]}
    )),
    _mixed_order_polynomials,
)


@settings(max_examples=200, deadline=None)
@given(_born_states)
def test_born_weights_are_the_ring_formula(p):
    assert _born_outcome(lambda: _born_distribution(p)) == _born_outcome(
        lambda: _ring_distribution(p))


def test_born_weights_of_a_common_sqrt2_factor_a_mixed_sqrt2_state_and_mixed_orders():
    # |1 + √2|^2 = 3 + 2√2 on both terms, times 2! on the second: 1/3 and 2/3
    common = (creation(AH) + monomial({BV: 2}, I_UNIT)) * Amplitude(1, 0, 1)
    assert _born(common) == ({((AH, 1),): 1, ((BV, 2),): 2}, 3)
    assert _ring_distribution(common) == {((AH, 1),): Fraction(1, 3), ((BV, 2),): Fraction(2, 3)}
    # weights 1 and 3 + 2√2: neither is a rational multiple of their sum
    mixed = creation(AH) + creation(BV, Amplitude(1, 0, 1))
    # one photon at order 1 beside one at order 0
    orders = creation(AH) + creation(BV, gamma_power(1))
    for state, error in ((mixed, IrrationalValueError), (orders, OrderMixError)):
        for compute in (_born, _ring_distribution):
            with pytest.raises(error):
                compute(state)


# ---------------------------------------------------------------------------
# integer ring against a four-Fraction reference
# ---------------------------------------------------------------------------
# A reference value is ((re, im), (re_sqrt2, im_sqrt2)): p + q*sqrt2 with p
# and q Gaussian rationals held as pairs of Fractions.


def _ref(value):
    return (value.re, value.im), (value.re_sqrt2, value.im_sqrt2)


def _cmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _cadd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _ref_mul(u, v):
    (p1, q1), (p2, q2) = u, v
    two_qq = tuple(2 * c for c in _cmul(q1, q2))
    return _cadd(_cmul(p1, p2), two_qq), _cadd(_cmul(p1, q2), _cmul(q1, p2))


def _ref_inverse(u):
    # 1/(p + q s) = (p - q s) / (p^2 - 2 q^2)
    p, q = u
    n = _cadd(_cmul(p, p), tuple(-2 * c for c in _cmul(q, q)))
    size = n[0] * n[0] + n[1] * n[1]
    inv_n = (n[0] / size, -n[1] / size)
    return _cmul(p, inv_n), _cmul((-q[0], -q[1]), inv_n)


_components = st.fractions(min_value=-50, max_value=50, max_denominator=60)
_orders = st.integers(min_value=0, max_value=3)
_ring = st.builds(Amplitude, _components, _components, _components, _components, _orders)
_ring_order0 = st.builds(Amplitude, _components, _components, _components, _components)


@settings(max_examples=100, deadline=None)
@given(_ring, _ring_order0)
def test_ring_operations_match_fraction_reference(x, y):
    (p1, q1), (p2, q2) = _ref(x), _ref(y)
    assert _ref(x * y) == _ref_mul(_ref(x), _ref(y))
    assert (x * y).order == (x.order if not (x * y).is_zero else 0)
    assert _ref(x.conjugate()) == ((p1[0], -p1[1]), (q1[0], -q1[1]))
    assert _ref(x.abs_squared()) == _ref_mul(_ref(x), _ref(x.conjugate()))
    assert x.abs_squared().order == 0
    same_order = Amplitude(y.re, y.im, y.re_sqrt2, y.im_sqrt2, x.order)
    assert _ref(x + same_order) == (_cadd(p1, p2), _cadd(q1, q2))
    assert _ref(x - same_order) == (
        _cadd(p1, (-p2[0], -p2[1])), _cadd(q1, (-q2[0], -q2[1]))
    )
    assert _ref(-x) == ((-p1[0], -p1[1]), (-q1[0], -q1[1]))
    if not y.is_zero:
        assert _ref(y.inverse()) == _ref_inverse(_ref(y))
        assert y * y.inverse() == ONE


@settings(max_examples=100, deadline=None)
@given(_ring, _ring_order0, st.integers(min_value=1, max_value=10**6))
def test_equal_values_have_equal_hashes(x, y, k):
    unreduced = Amplitude(
        Fraction(x.re.numerator * k, x.re.denominator * k),
        Fraction(x.im.numerator * k, x.im.denominator * k),
        Fraction(x.re_sqrt2.numerator * k, x.re_sqrt2.denominator * k),
        Fraction(x.im_sqrt2.numerator * k, x.im_sqrt2.denominator * k),
        x.order,
    )
    routes = [
        unreduced,
        (x * k) * Fraction(1, k),
        x * rational(Fraction(k, 3)) * rational(Fraction(3, k)),
    ]
    if not y.is_zero:
        routes.append(x * y / y)
    same_order = Amplitude(y.re, y.im, y.re_sqrt2, y.im_sqrt2, x.order)
    routes.append(x + same_order - same_order)
    for value in routes:
        assert value == x
        assert hash(value) == hash(x)
    assert len({x, *routes}) == 1


def test_unreduced_fraction_inputs_are_one_value():
    assert Amplitude(Fraction(2, 4)) == Amplitude(Fraction(1, 2))
    assert hash(Amplitude(Fraction(2, 4))) == hash(Amplitude(Fraction(1, 2)))
    assert Amplitude(2, 4, 6, 8) * Fraction(1, 2) == Amplitude(1, 2, 3, 4)
    assert Amplitude(1) != 1  # compared by value with Amplitudes only


@settings(max_examples=60, deadline=None)
@given(_ring, st.integers(min_value=1, max_value=3))
def test_zero_keeps_order_zero(x, order):
    assert Amplitude(0, 0, 0, 0, order).order == 0
    assert Amplitude(0, 0, 0, 0, order) == ZERO
    assert (x * gamma_power(order) - x * gamma_power(order)).order == 0
    assert (x * ZERO).order == 0 and (ZERO * gamma_power(order)) == ZERO
    assert hash(x - x) == hash(ZERO)


@settings(max_examples=100, deadline=None)
@given(_ring)
def test_amplitude_json_fields_and_strings(x):
    obj = AMPLITUDE[0](x)
    assert list(obj) == ["re", "im", "re_sqrt2", "im_sqrt2", "gamma_order"]
    assert obj == {
        "re": str(x.re),
        "im": str(x.im),
        "re_sqrt2": str(x.re_sqrt2),
        "im_sqrt2": str(x.im_sqrt2),
        "gamma_order": x.order,
    }
    assert AMPLITUDE[1](obj) == x
    assert AMPLITUDE[0](AMPLITUDE[1](obj)) == obj


@settings(max_examples=60, deadline=None)
@given(_ring_order0, _orders, _orders)
def test_order_mix_error_points(x, a, b):
    with pytest.raises(OrderMixError):
        Amplitude(1, 0, 0, 0, -1 - a)
    if x.is_zero:
        return
    if a != b:
        with pytest.raises(OrderMixError):
            x * gamma_power(a) + x * gamma_power(b)
        mixed = creation(AH, x * gamma_power(a)) + creation(AV, x * gamma_power(b))
        with pytest.raises(OrderMixError):
            norm_squared(mixed)
    if a:
        with pytest.raises(OrderMixError):
            (x * gamma_power(a)).inverse()
