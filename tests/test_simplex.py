"""Exact Phase-I feasibility and Farkas certificates on small systems."""

import random
from decimal import Decimal
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from ghzsim import lhv, simplex
from ghzsim.simplex import FeasibilityResult, solve_feasibility, verify_farkas


def F(*args):
    return Fraction(*args)


def test_simple_feasible_system():
    rows = [[F(1), F(1)], [F(1), F(-1)]]
    rhs = [F(1), F(0)]
    result = solve_feasibility(rows, rhs)
    assert result.feasible
    assert result.solution == [F(1, 2), F(1, 2)]
    assert result.infeasibility_gap == 0


def test_contradictory_equalities_yield_certificate():
    rows = [[F(1), F(1)], [F(1), F(1)]]
    rhs = [F(1), F(2)]
    result = solve_feasibility(rows, rhs)
    assert not result.feasible
    assert result.infeasibility_gap > 0
    assert verify_farkas(rows, rhs, result.certificate)


def test_negative_rhs_rows_are_handled():
    rows = [[F(-1), F(0)], [F(0), F(1)]]
    rhs = [F(-3), F(2)]
    result = solve_feasibility(rows, rhs)
    assert result.feasible
    assert result.solution == [F(3), F(2)]


def test_sign_infeasibility():
    # x = -1 with x >= 0
    result = solve_feasibility([[F(1)]], [F(-1)])
    assert not result.feasible
    assert verify_farkas([[F(1)]], [F(-1)], result.certificate)


def test_redundant_rows_are_fine():
    rows = [[F(1), F(1)], [F(2), F(2)]]
    rhs = [F(1), F(2)]
    result = solve_feasibility(rows, rhs)
    assert result.feasible
    assert sum(result.solution) == 1


def test_verify_farkas_rejects_bogus_vectors():
    rows = [[F(1), F(1)]]
    rhs = [F(1)]
    assert not verify_farkas(rows, rhs, [F(1)])  # y.A = (1,1) > 0
    assert not verify_farkas(rows, rhs, [F(0)])  # y.b = 0, not > 0
    assert not verify_farkas(rows, rhs, [F(1), F(1)])  # wrong length


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        solve_feasibility([[F(1), F(2)], [F(1)]], [F(0), F(0)])


def test_verify_farkas_rejects_ragged_rows():
    with pytest.raises(ValueError):
        verify_farkas([[F(1), F(2)], [F(1)]], [F(0), F(1)], [F(0), F(1)])
    with pytest.raises(ValueError):
        verify_farkas([[F(1)]], [F(1), F(2)], [F(1)])


def test_verify_farkas_rejects_a_float_certificate():
    # a float a hair off each exact entry sums to a passing value in binary
    rows, rhs = _handed(lhv.FeasibilityProblem(lhv.quantum_targets(F(13, 20))))
    certificate = solve_feasibility(rows, rhs).certificate
    assert verify_farkas(rows, rhs, certificate)
    assert not verify_farkas(rows, rhs, [float(c) + 1e-17 for c in certificate])
    assert not verify_farkas(rows, rhs, [*certificate[:-1], float(certificate[-1])])
    # nor does a bool pass for the int it equals
    assert verify_farkas([[F(-1)]], [F(1)], [1])
    assert not verify_farkas([[F(-1)]], [F(1)], [True])


def test_verify_farkas_rejects_float_rows_and_right_hand_sides():
    # 1e16 + 1 - 1e16 is 0 in binary, so the float column passes y.A <= 0,
    # while its exact sum is 1 > 0: the certificate proves nothing
    assert not verify_farkas([[1e16], [1], [-1e16]], [F(0), F(1), F(0)], [F(1)] * 3)
    assert not verify_farkas([[F(-1)]], [1.0], [F(1)])
    assert not verify_farkas([[F(-1)]], [True], [F(1)])
    # 0/1 int rows with Fraction right-hand sides, as the benchmark hands them, still pass
    assert verify_farkas([[1], [0]], [F(-1, 2), F(3)], [F(-1), F(0)])


def _handed(problem):
    """The rows and targets that ``lhv_feasibility`` hands the kernel: the
    reduced LP, with its slack band if the problem has one."""
    _, _, rhs, _ = lhv._cell_rows(problem)
    _, rows = lhv._reduced_lp(lhv._partition(rhs[:-1]))
    return lhv._with_slack(rows, rhs, problem.slack) if problem.slack else (rows, rhs)


@pytest.mark.parametrize("k", [2, 5])
@pytest.mark.parametrize("visibility,slack", [(F(13, 20), F(0)), (F(1), F(1, 64))],
                         ids=["13/20", "slack1/64"])
def test_repeating_every_row_keeps_pivots_and_evidence(visibility, slack, k):
    problem = lhv.FeasibilityProblem(lhv.quantum_targets(visibility), slack=slack)
    rows, rhs = _handed(problem)
    once = solve_feasibility(rows, rhs)
    repeated = solve_feasibility([row for row in rows for _ in range(k)],
                                 [b for b in rhs for _ in range(k)])
    assert repeated.iterations == once.iterations
    assert repeated.feasible == once.feasible == bool(problem.slack)
    assert repeated.solution == once.solution
    assert repeated.infeasibility_gap == k * once.infeasibility_gap
    if once.certificate is not None:
        assert repeated.certificate == [y for y in once.certificate for _ in range(k)]


def test_random_mixtures_are_recovered_exactly():
    rng = random.Random(123)
    for _ in range(20):
        m, n = 6, 9
        rows = [[F(rng.randint(0, 1)) for _ in range(n)] for _ in range(m)]
        hidden = [F(rng.randint(0, 4), rng.randint(1, 4)) for _ in range(n)]
        rhs = [sum(rows[i][j] * hidden[j] for j in range(n)) for i in range(m)]
        result = solve_feasibility(rows, rhs)
        assert result.feasible
        for i in range(m):
            assert sum(rows[i][j] * result.solution[j] for j in range(n)) == rhs[i]
        assert all(x >= 0 for x in result.solution)


def test_random_perturbed_systems_verify_their_certificates():
    rng = random.Random(321)
    checked = 0
    for _ in range(30):
        m, n = 5, 4
        rows = [[F(rng.randint(0, 2)) for _ in range(n)] for _ in range(m)]
        rhs = [F(rng.randint(-3, 3)) for _ in range(m)]
        result = solve_feasibility(rows, rhs)
        if result.feasible:
            for i in range(m):
                assert (
                    sum(rows[i][j] * result.solution[j] for j in range(n)) == rhs[i]
                )
        else:
            checked += 1
            assert verify_farkas(rows, rhs, result.certificate)
    assert checked > 0


def test_unit_columns_start_basic():
    # every row has a unit column, so no artificial starts basic and no pivot runs
    result = solve_feasibility([[F(1), F(0), F(2)], [F(0), F(1), F(1)]], [F(4), F(1, 3)])
    assert result == FeasibilityResult(True, [F(4), F(1, 3), F(0)], None, F(0), 0)


def test_inexact_entries_are_rejected():
    for rows, rhs in (([[0.5, 1]], [F(1, 4)]), ([[F(1, 2), 1]], [0.25]),
                      ([[Decimal("0.5")]], [F(1)]), ([["1/2"]], [F(1)])):
        with pytest.raises(TypeError):
            solve_feasibility(rows, rhs)
    # ints are rationals; a bool is not, as at every other entry point
    assert solve_feasibility([[1, 1]], [2]).feasible
    for rows, rhs in (([[1, True]], [2]), ([[1, 1]], [True])):
        with pytest.raises(TypeError):
            solve_feasibility(rows, rhs)


def test_empty_system_is_trivially_feasible():
    assert solve_feasibility([], []) == FeasibilityResult(True, [], None, F(0), 0)
    with pytest.raises(ValueError):
        solve_feasibility([], [F(1)])


# Coprime denominators of mixed sizes, so row lcms and pivot gcds are not
# trivial; the large ones are primes (10^9 + 7, 2^61 - 1).
DENOMINATORS = (1, 2, 3, 5, 7, 11, 12, 35, 10**9 + 7, 2**61 - 1)
rationals = st.builds(
    Fraction, st.integers(-7, 7), st.sampled_from(DENOMINATORS)
) | st.just(F(0))


@st.composite
def systems(draw):
    """``(rows, rhs)`` with zero, negative and mixed-size entries, plus
    all-zero rows and duplicated rows; half the draws are built around a
    non-negative point so that they are feasible."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 6))
    rows = [draw(st.lists(rationals, min_size=n, max_size=n)) for _ in range(m)]
    for i in draw(st.lists(st.integers(0, m - 1), max_size=2)):
        rows[i] = [F(0)] * n
    if draw(st.booleans()):
        hidden = draw(st.lists(rationals.map(abs), min_size=n, max_size=n))
        rhs = [sum(a * x for a, x in zip(row, hidden)) for row in rows]
    else:
        rhs = draw(st.lists(rationals, min_size=m, max_size=m))
    for i in draw(st.lists(st.integers(0, m - 1), max_size=2)):
        rows.append(list(rows[i]))
        rhs.append(rhs[i] if draw(st.booleans()) else draw(rationals))
    return rows, rhs


@settings(max_examples=300, deadline=None)
@given(systems())
def test_verdicts_carry_exact_evidence(system):
    rows, rhs = system
    result = solve_feasibility(rows, rhs)
    assert all(isinstance(v, Fraction) for v in result.solution or result.certificate)
    if result.feasible:
        assert result.infeasibility_gap == 0 and result.certificate is None
        x = result.solution
        assert len(x) == len(rows[0]) and all(v >= 0 for v in x)
        for row, b in zip(rows, rhs):
            assert sum(a * v for a, v in zip(row, x)) == b
    else:
        assert result.infeasibility_gap > 0 and result.solution is None
        assert verify_farkas(rows, rhs, result.certificate)


@st.composite
def repeated_systems(draw):
    """``(rows, rhs, distinct)``: small integer equations, each repeated 1 to
    4 times, then shuffled; ``distinct`` lists each equation once, in the
    order of its first copy.  Half the draws are built around a non-negative
    point so that they are feasible."""
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 5))
    rows = [tuple(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)))
            for _ in range(m)]
    if draw(st.booleans()):
        hidden = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        rhs = [sum(a * x for a, x in zip(row, hidden)) for row in rows]
    else:
        rhs = draw(st.lists(st.integers(-3, 3), min_size=m, max_size=m))
    copies = [i for i in range(m) for _ in range(draw(st.integers(1, 4)))]
    order = draw(st.permutations(copies))
    system = [(rows[i], F(rhs[i])) for i in order]
    return [row for row, _ in system], [b for _, b in system], list(dict.fromkeys(system))


@settings(max_examples=300, deadline=None)
@given(repeated_systems())
def test_repeated_rows_are_merged_without_changing_the_verdict(system):
    rows, rhs, distinct = system
    result = solve_feasibility(rows, rhs)
    assert result.feasible == solve_feasibility(*map(list, zip(*distinct))).feasible
    if result.feasible:
        x = result.solution
        assert all(v >= 0 for v in x)
        assert all(sum(a * v for a, v in zip(row, x)) == b for row, b in zip(rows, rhs))
    else:
        assert verify_farkas(rows, rhs, result.certificate)
        # every copy of an equation gets the same coefficient
        coefficients = {}
        for equation, y in zip(zip(rows, rhs), result.certificate):
            assert coefficients.setdefault(equation, y) == y


# Mostly word-sized primes, so that row denominators outgrow
# simplex.WORD_BITS within a few pivots and the reducing branch runs.
WIDE_DENOMINATORS = (1, 3, 999983, 2**31 - 1, 10**9 + 7, 2**61 - 1)
wide_rationals = st.builds(
    Fraction, st.integers(-50, 50), st.sampled_from(WIDE_DENOMINATORS)
) | st.just(F(0))


@st.composite
def wide_systems(draw):
    """Systems of up to 12 x 12 entries over WIDE_DENOMINATORS; half
    the draws are built around a non-negative point so that they are
    feasible."""
    m = draw(st.integers(4, 12))
    n = draw(st.integers(4, 12))
    rows = [draw(st.lists(wide_rationals, min_size=n, max_size=n)) for _ in range(m)]
    if draw(st.booleans()):
        hidden = draw(st.lists(wide_rationals.map(abs), min_size=n, max_size=n))
        rhs = [sum(a * x for a, x in zip(row, hidden)) for row in rows]
    else:
        rhs = draw(st.lists(wide_rationals, min_size=m, max_size=m))
    return rows, rhs


def _solve_reducing_every_row(rows, rhs):
    # a width of 0 divides every row by its gcd after every elimination
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simplex, "WORD_BITS", 0)
        return solve_feasibility(rows, rhs)


@settings(max_examples=200, deadline=None)
@given(systems())
def test_when_a_row_is_reduced_never_changes_a_result(system):
    assert solve_feasibility(*system) == _solve_reducing_every_row(*system)


@settings(max_examples=60, deadline=None)
@given(wide_systems())
def test_when_a_wide_row_is_reduced_never_changes_a_result(system):
    result = solve_feasibility(*system)
    assert result == _solve_reducing_every_row(*system)
    if not result.feasible:
        assert verify_farkas(*system, result.certificate)


@settings(max_examples=200, deadline=None)
@given(systems(), st.lists(st.booleans(), min_size=8, max_size=8))
def test_an_int_row_reads_in_as_its_fractions(system, as_int):
    # a flagged row is scaled to ints; the same values as Fractions are read
    # in the same way, over the lcm of their denominators, with the same result
    rows, rhs = [], []
    for row, b, flag in zip(*system, as_int):
        scale = lcm(*(v.denominator for v in row)) if flag else 1
        rows.append([int(v * scale) for v in row] if flag else row)
        rhs.append(b * scale)
    fractions = [[F(v) for v in row] for row in rows]
    assert solve_feasibility(rows, rhs) == solve_feasibility(fractions, rhs)


@st.composite
def int_systems(draw):
    """``(rows, rhs)`` of ints alone: each of up to 6 equations repeated 1 to
    4 times and shuffled, right-hand sides negative, zero and positive, and
    each row given as a tuple or as a list.  Half the draws are built around
    a non-negative point so that they are feasible."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 5))
    rows = [draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n)) for _ in range(m)]
    if draw(st.booleans()):
        hidden = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        rhs = [sum(a * x for a, x in zip(row, hidden)) for row in rows]
    else:
        rhs = draw(st.lists(st.integers(-4, 4), min_size=m, max_size=m))
    copies = [i for i in range(m) for _ in range(draw(st.integers(1, 4)))]
    order = draw(st.permutations(copies))
    given = [tuple(rows[i]) if draw(st.booleans()) else list(rows[i]) for i in order]
    return given, [rhs[i] for i in order]


@settings(max_examples=300, deadline=None)
@given(int_systems())
def test_an_int_system_solves_as_its_fractions(system):
    # rows are merged on their values as given, ints and Fractions alike, and
    # only the row that opens a class is scaled, by the lcm of its denominators
    rows, rhs = system
    fractions = [[F(v) for v in row] for row in rows], [F(b) for b in rhs]
    mixed = [[F(v) for v in row] if i % 2 else row for i, row in enumerate(rows)], rhs
    assert solve_feasibility(rows, rhs) == solve_feasibility(*fractions)
    assert solve_feasibility(rows, rhs) == solve_feasibility(*mixed)


def test_a_float_anywhere_in_an_int_system_is_rejected():
    rows, rhs = [(1, 0), (0, 1), (1, 1)], [1, 2, 3]
    assert solve_feasibility(rows, rhs).feasible
    with pytest.raises(TypeError, match="exact rationals"):
        solve_feasibility([*rows[:-1], (1, 1.0)], rhs)
    with pytest.raises(TypeError, match="exact rationals"):
        solve_feasibility(rows, [*rhs[:-1], 3.0])
