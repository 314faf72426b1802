"""The solver-free evidence checks against the Fraction formulas they replaced.

``reference_verify_verdict`` and ``reference_evaluate_certificate`` are the
checks as first written: one ``Fraction`` operation per term, the targets
read through ``problem.table``.  The library's checks put the weights or
coefficients over one common denominator and sum integers.  On random and
tampered evidence every ``Certificate`` field and every verified bit must
equal the reference's, on exact inputs; an inexact weight or coefficient
fails the library's check.  A functional positive on one strategy column
alone, and a mixture outside the band of one cell alone, fail too: the checks
sum over the incidence's supports and must miss none of their entries.
"""

from fractions import Fraction
from functools import lru_cache
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from ghzsim import lhv
from ghzsim.lhv import (
    CHI_ZERO,
    Certificate,
    FeasibilityProblem,
    LocalStrategy,
    TRIPLES,
    evaluate_certificate,
    lhv_feasibility,
    mermin_certificate,
    quantum_targets,
    right_sector_strategies,
    verify_verdict,
)
from ghzsim.measurement import OUTCOMES, OutcomeTable


def _reference_rows(problem):
    keys, rows = lhv._incidence()
    rhs = [problem.table(triple).probabilities[outcome]
           for triple in TRIPLES for outcome in OUTCOMES]
    rhs.append(1 - problem.wrong_mass)
    return right_sector_strategies(), rows, rhs, keys


def reference_verify_verdict(problem, feasible, evidence):
    if not feasible:
        return reference_evaluate_certificate(problem, evidence).verified
    strategies, rows, rhs, _ = _reference_rows(problem)
    if not set(evidence) <= {*strategies, CHI_ZERO} or any(w < 0 for w in evidence.values()):
        return False
    weights = [evidence.get(s, Fraction(0)) for s in strategies]
    return evidence.get(CHI_ZERO) == problem.wrong_mass and sum(evidence.values()) == 1 and all(
        abs(sum(w for w, hit in zip(weights, row) if hit) - target) <= problem.slack
        for row, target in zip(rows[:-1], rhs[:-1])
    )


def reference_evaluate_certificate(problem, coeffs):
    _, rows, rhs, keys = _reference_rows(problem)
    y = [coeffs.get(key, Fraction(0)) for key in keys]
    value = sum((c * b for c, b in zip(y, rhs)), start=Fraction(0))
    value -= problem.slack * sum(abs(c) for c in y[:-1])
    max_column = max(
        sum((c for c, hit in zip(y, column) if hit), start=Fraction(0))
        for column in zip(*rows)
    )
    bound = max_column * (1 - problem.wrong_mass)
    verified = max_column <= 0 < value and set(coeffs) <= set(keys)
    return Certificate(dict(coeffs), value, bound, max_column, verified)


# ---------------------------------------------------------------------------
# evidence: solver verdicts on a grid, random mixtures and functionals
# ---------------------------------------------------------------------------

GRID_VISIBILITIES = (Fraction(0), Fraction(1, 4), Fraction(19, 41), Fraction(1, 2),
                     Fraction(13, 20), Fraction(1))
GRID_SLACKS = (Fraction(0), Fraction(1, 100), Fraction(1, 64))
FEASIBLE_GRID = [(v, s) for v in GRID_VISIBILITIES if v <= Fraction(1, 2) for s in GRID_SLACKS]
INFEASIBLE_GRID = [(Fraction(13, 20), Fraction(0)), (Fraction(1), Fraction(0)),
                   (Fraction(1), Fraction(1, 100))]
KEYS = lhv._incidence()[0]
OUTSIDER = LocalStrategy((0, 0), (0, 0), (1, 1))  # a χ=0 strategy: no LP column


@lru_cache(maxsize=None)
def _solved(visibility, slack, conjugate):
    problem = FeasibilityProblem(quantum_targets(visibility, conjugate), slack=slack)
    return problem, lhv_feasibility(problem)


_fractions = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 60))
_problems = st.builds(
    lambda v, conjugate, slack: FeasibilityProblem(quantum_targets(v, conjugate), slack=slack),
    st.fractions(0, 1, max_denominator=10 ** 6), st.booleans(),
    st.one_of(st.sampled_from(GRID_SLACKS), st.fractions(0, Fraction(1, 8), max_denominator=500)),
)


@st.composite
def feasible_cases(draw):
    """(problem, evidence): a solved feasible mixture or a random one, at the
    problem's right mass, with the χ=0 weight."""
    if draw(st.booleans()):
        problem, outcome = _solved(*draw(st.sampled_from(FEASIBLE_GRID)), draw(st.booleans()))
        mixture = dict(outcome.distribution)
    else:
        problem = draw(_problems)
        if draw(st.booleans()):  # every cell passes, so the other rules are seen alone
            problem = FeasibilityProblem(problem.targets, slack=Fraction(1))
        chosen = draw(st.lists(st.sampled_from(right_sector_strategies()), min_size=1,
                               max_size=16, unique=True))
        ints = draw(st.lists(st.integers(1, 50), min_size=len(chosen), max_size=len(chosen)))
        mixture = {s: (1 - problem.wrong_mass) * Fraction(w, sum(ints))
                   for s, w in zip(chosen, ints)}
    return problem, {**mixture, CHI_ZERO: problem.wrong_mass}


@st.composite
def infeasible_cases(draw):
    """(problem, coefficients): a solved certificate, Mermin's functional, or
    random coefficients on random rows."""
    kind = draw(st.sampled_from(("solved", "mermin", "random")))
    if kind == "solved":
        problem, outcome = _solved(*draw(st.sampled_from(INFEASIBLE_GRID)), draw(st.booleans()))
        return problem, dict(outcome.certificate.coefficients)
    problem = draw(_problems)
    if kind == "mermin":
        return problem, dict(mermin_certificate(problem).coefficients)
    keys = draw(st.lists(st.sampled_from(KEYS), min_size=1, max_size=20, unique=True))
    return problem, {key: draw(_fractions) for key in keys}


def _denominator(values):
    return lcm(*(Fraction(v).denominator for v in values))


@st.composite
def tampered(draw, evidence, extra, foreign):
    """``evidence`` as it is, or with one weight moved by 1/den (den the common
    denominator of the evidence) alone or onto another key, one made negative
    with another key taking up the difference, an ``extra`` key added (one
    the check knows), or a ``foreign`` key that names no LP row."""
    kind = draw(st.sampled_from(("none", "moved", "transferred", "negative", "extra",
                                 "foreign")))
    evidence = dict(evidence)
    keys = [key for key in evidence if key != CHI_ZERO]
    key = draw(st.sampled_from(keys))
    other = draw(st.sampled_from([k for k in keys if k != key] or [key]))
    step = Fraction(draw(st.sampled_from((1, -1))), _denominator(evidence.values()))
    if kind == "moved":
        evidence[key] += step
    elif kind == "transferred":
        evidence[key] += step
        evidence[other] -= step
    elif kind == "negative":
        flipped = -abs(evidence[key]) or -abs(step)
        evidence[other] += evidence[key] - flipped
        evidence[key] = flipped
    elif kind == "extra":
        evidence.setdefault(draw(st.sampled_from(extra)), draw(st.sampled_from((0, step))))
    elif kind == "foreign":
        evidence[draw(st.sampled_from(foreign))] = abs(step)
    return evidence


def _assert_certificates_equal(problem, coeffs):
    got = evaluate_certificate(problem, coeffs)
    want = reference_evaluate_certificate(problem, coeffs)
    assert got == want
    for field in ("value", "strategy_bound", "max_strategy_column"):
        assert type(getattr(got, field)) is Fraction, field
    assert verify_verdict(problem, False, coeffs) == want.verified


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mixture_check_equals_the_fraction_reference(data):
    problem, evidence = data.draw(feasible_cases())
    evidence = data.draw(tampered(evidence, extra=right_sector_strategies(),
                                  foreign=(OUTSIDER, "nope")))
    assert verify_verdict(problem, True, evidence) == reference_verify_verdict(
        problem, True, evidence)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_certificate_check_equals_the_fraction_reference(data):
    problem, coeffs = data.draw(infeasible_cases())
    coeffs = data.draw(tampered(coeffs, extra=KEYS,
                                foreign=(("xxx", "+1,+1,+2"), ("nope", "x"), ("mass", "x"))))
    _assert_certificates_equal(problem, coeffs)


@pytest.mark.parametrize("conjugate", [False, True])
@pytest.mark.parametrize("slack", GRID_SLACKS)
@pytest.mark.parametrize("visibility", GRID_VISIBILITIES)
def test_solved_evidence_verifies_as_in_the_reference(visibility, slack, conjugate):
    # the grid's own evidence is verified; the property tests above see it tampered
    problem, outcome = _solved(visibility, slack, conjugate)
    if outcome.feasible:
        evidence = {**outcome.distribution, CHI_ZERO: outcome.chi_zero_weight}
        assert verify_verdict(problem, True, evidence)
        assert reference_verify_verdict(problem, True, evidence)
    else:
        assert outcome.certificate == reference_evaluate_certificate(
            problem, outcome.certificate.coefficients)
        assert outcome.certificate.verified
    assert outcome.verified


# ---------------------------------------------------------------------------
# the checks read every one of the incidence: one column or one cell alone fails
# ---------------------------------------------------------------------------

BAND = Fraction(1, 200)


def _problem(cells, slack=Fraction(0)):
    """The problem whose 64 right cells are ``cells``, with no wrong mass."""
    return FeasibilityProblem([
        OutcomeTable(triple, dict(zip(OUTCOMES, cells[8 * t:8 * t + 8])), Fraction(0))
        for t, triple in enumerate(TRIPLES)], slack=slack)


def _column_sums(y):
    _, rows = lhv._incidence()
    return [sum((c for c, hit in zip(y, column) if hit), start=Fraction(0))
            for column in zip(*rows)]


@pytest.mark.parametrize("column", range(64))
def test_a_certificate_with_one_positive_column_fails(column):
    # raise the V = 1 certificate on the column's 8 cells by delta and lower
    # its mass by 6·delta: the column gains 2·delta, every other column (at
    # most 4 cells shared) loses at least 2·delta
    _, outcome = _solved(Fraction(1), Fraction(0), False)
    _, rows = lhv._incidence()
    y = [outcome.certificate.coefficients.get(key, Fraction(0)) for key in KEYS]
    delta = (1 - _column_sums(y)[column]) / 2
    raised = [c + delta * row[column] for c, row in zip(y[:-1], rows)] + [y[-1] - 6 * delta]
    sums = _column_sums(raised)
    assert [j for j, total in enumerate(sums) if total > 0] == [column] and sums[column] == 1
    # no entry of the column is 0, so leaving any one out moves its sum
    assert all(c for c, row in zip(raised, rows) if row[column])
    # against the column's own deterministic tables the value is the column's
    # sum, 1, so only the column check can refuse the functional
    own = _problem([Fraction(row[column]) for row in rows[:-1]])
    for problem in (own, FeasibilityProblem(quantum_targets(Fraction(1)))):
        certificate = evaluate_certificate(problem, dict(zip(KEYS, raised)))
        assert not certificate.verified and certificate.max_strategy_column == 1
    assert evaluate_certificate(own, dict(zip(KEYS, raised))).value == 1


def _cells(weights):
    _, rows = lhv._incidence()
    return [sum((w for w, hit in zip(weights, row) if hit), start=Fraction(0))
            for row in rows[:-1]]


@pytest.mark.parametrize("cell", range(64))
def test_a_mixture_with_one_cell_out_of_its_band_fails(cell):
    # move BAND of weight from a strategy b to a strategy a that gives the cell,
    # b differing from a at one setting the cell's triple reads; the uniform
    # mixture sits inside every band and the moved one outside the cell's only
    _, rows = lhv._incidence()
    a = rows[cell].index(1)
    changed = {b: [i for i, row in enumerate(rows[:-1]) if row[a] != row[b]]
               for b in range(64) if not rows[cell][b]}
    b = min(changed, key=lambda b: len(changed[b]))
    uniform = [Fraction(1, 64)] * 64
    moved = [w + BAND * (j == a) - BAND * (j == b) for j, w in enumerate(uniform)]
    before, after = _cells(uniform), _cells(moved)
    # targets halfway between, but BAND/2 on the other side for the cell, and
    # an untouched cell of its triple takes up what that takes from the triple
    targets = [(x + y) / 2 for x, y in zip(before, after)]
    targets[cell] = before[cell] - BAND / 2
    spare = next(i for i in range(cell - cell % 8, cell - cell % 8 + 8) if i not in changed[b])
    targets[spare] += BAND
    problem = _problem(targets, BAND)
    assert all(abs(x - t) <= BAND for x, t in zip(before, targets))
    assert [i for i, (x, t) in enumerate(zip(after, targets)) if abs(x - t) > BAND] == [cell]
    strategies = right_sector_strategies()
    for weights, verified in ((uniform, True), (moved, False)):
        evidence = {**dict(zip(strategies, weights)), CHI_ZERO: Fraction(0)}
        assert verify_verdict(problem, True, evidence) is verified
        assert reference_verify_verdict(problem, True, evidence) is verified


# ---------------------------------------------------------------------------
# no float enters a table, a mixture or a functional
# ---------------------------------------------------------------------------


def test_tables_with_float_cells_raise():
    for table in quantum_targets(Fraction(1, 2)):
        floats = {outcome: float(p) for outcome, p in table.probabilities.items()}
        with pytest.raises(TypeError):
            OutcomeTable(table.settings, floats, table.wrong_mass)
        with pytest.raises(TypeError):
            OutcomeTable(table.settings, table.probabilities, float(table.wrong_mass))
    with pytest.raises(TypeError):
        OutcomeTable(TRIPLES[0], {OUTCOMES[0]: "1/4"}, Fraction(3, 4))


def test_a_float_weight_fails_the_mixture_check():
    problem, outcome = _solved(Fraction(1, 2), Fraction(0), False)
    evidence = {**outcome.distribution, CHI_ZERO: outcome.chi_zero_weight}
    assert verify_verdict(problem, True, evidence)
    strategy = next(iter(outcome.distribution))
    # 1/64 and 3/4 are binary floats exactly: the Fraction formulas pass them
    for key in (strategy, CHI_ZERO):
        inexact = {**evidence, key: float(evidence[key])}
        assert reference_verify_verdict(problem, True, inexact)
        assert not verify_verdict(problem, True, inexact)
    # on the tables of one strategy, its weight is 1 and the χ=0 weight 0:
    # True and False pass the Fraction formulas for them, and no more
    _, rows = lhv._incidence()
    own = _problem([Fraction(row[0]) for row in rows[:-1]])
    strategy = right_sector_strategies()[0]
    assert verify_verdict(own, True, {strategy: 1, CHI_ZERO: 0})
    for evidence in ({strategy: True, CHI_ZERO: 0}, {strategy: 1, CHI_ZERO: False}):
        assert reference_verify_verdict(own, True, evidence)
        assert not verify_verdict(own, True, evidence)


def test_a_float_coefficient_fails_the_certificate_check():
    problem, outcome = _solved(Fraction(1), Fraction(0), False)
    coefficients = outcome.certificate.coefficients
    key = next(iter(coefficients))
    inexact = {**coefficients, key: float(coefficients[key])}
    assert reference_evaluate_certificate(problem, inexact).verified
    certificate = evaluate_certificate(problem, inexact)
    assert not certificate.verified and not verify_verdict(problem, False, inexact)
    # the inexact coefficient is left out of the sums, and kept in the record
    left_out = evaluate_certificate(problem, {**coefficients, key: Fraction(0)})
    assert (certificate.value, certificate.max_strategy_column) == (
        left_out.value, left_out.max_strategy_column)
    assert certificate.coefficients == inexact
    # a coefficient 1 given as True is left out as well
    flagged = {**coefficients, next(k for k, c in coefficients.items() if c == 1): True}
    assert reference_evaluate_certificate(problem, flagged).verified
    assert not evaluate_certificate(problem, flagged).verified
