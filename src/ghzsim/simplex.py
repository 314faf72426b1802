"""Exact rational feasibility of ``{x >= 0 : A x = b}`` via Phase-I simplex.

The tableau holds each row as a list of integers over one positive integer
denominator, and the reduced-cost row the same way.  A pivot is
integer-preserving elimination in the spirit of Edmonds (1967) and Bareiss
(1968): every other row is cross-multiplied with the pivot row on the pivot
row's nonzero support only.  Such a row is divided by the gcd of its entries
and its denominator only once that denominator is wider than
:data:`WORD_BITS`, while the pivot row is made primitive at every pivot.
The pivot rules compare ratios that no row scaling changes, so the moment a
row is reduced changes no pivot and no result.  No rounding happens anywhere, so
every boundary question (feasible at visibility 1/2, infeasible just above)
is decided exactly; entries must pass :func:`ghzsim.fock.exact` (a
:class:`numbers.Rational` that is not a ``bool``), and
:class:`fractions.Fraction` appears only where the result is read out.
Pivoting uses Dantzig's rule and falls back to Bland's rule inside long
degenerate runs, which keeps the method finite.  An infeasible system yields
a Farkas certificate ``y`` with ``y·A <= 0`` componentwise and ``y·b > 0``,
which :func:`verify_farkas` re-checks from scratch, independently of the
solver's internal state.

Repeated equations are merged before Phase I, a standard presolve step
(Andersen & Andersen, Math. Program. 71, 1995): a row whose entries and
right-hand side equal those of an earlier row joins that row's class, and
only the first row of each class enters the tableau.  Its artificial stands
for the artificials of every row of the class, so its Phase-I cost is the
class's size, in the reduced costs, in the objective and in the gap, and
Dantzig's rule sees the costs of the rows as given.  A system with every row
repeated k times takes the same pivots to the same solution as the system
itself, with k times its gap.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain, compress, count, islice
from numbers import Rational
from operator import mul
from typing import Dict, List, Sequence, Tuple

from .fock import Record, exact, over_one_denominator

WORD_BITS = 64  # rows are divided by their gcd only above this denominator width


class FeasibilityResult(Record):
    """The solution (structural variable values) if feasible, else the Farkas
    certificate; the Phase-I optimum, 0 iff feasible; and the pivot count."""

    __slots__ = ()
    _fields = ("feasible", "solution", "certificate", "infeasibility_gap", "iterations")


def _eliminate(
    row: List[int], den: int, a: int, p: int, support: Sequence[Tuple[int, int]]
) -> Tuple[List[int], int]:
    """``row/den − (a/den)·(pivot/p)`` as integers over one denominator.

    ``a`` is the row's entry in the entering column and ``support`` the
    nonzero ``(column, value)`` pairs of the pivot row, whose entering entry
    is ``p > 0``.
    """
    g = math.gcd(a, p)
    scale, factor = p // g, a // g
    if scale != 1:
        row = [v * scale for v in row]
        den *= scale
    for k, v in support:
        row[k] -= factor * v
    if den.bit_length() > WORD_BITS:
        g = math.gcd(den, *row)
        row, den = [v // g for v in row], den // g
    return row, den


def solve_feasibility(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> FeasibilityResult:
    """Decide whether ``rows · x = rhs`` admits a non-negative solution.  If
    not, the certificate gives every row of a class of repeated equations the
    class's dual divided by its size, so equal rows get equal coefficients."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    if any(len(row) != n for row in rows) or len(rhs) != m:
        raise ValueError("inconsistent system dimensions")
    if not exact(chain(rhs, *rows)):
        raise TypeError("entries must be exact rationals (numbers.Rational)")

    # tableau rows: [structural | artificial | rhs] / den, each row scaled to
    # integers over the lcm of its denominators and flipped so that its rhs is
    # non-negative.  A repeat of an earlier row, rhs included, is found by its
    # values as given (ints and Fractions hash alike by value): it joins that
    # row's class, and only the first row of a class is scaled and kept
    classes: Dict[Tuple[Rational, ...], int] = {}
    owner: List[int] = []  # the class of each given row
    weight: List[int] = []  # the number of given rows in each class
    flip: List[int] = []
    tableau: List[List[int]] = []
    dens: List[int] = []
    for values, b in zip(rows, rhs):
        c = classes.setdefault((*values, b), len(tableau))
        owner.append(c)
        if c < len(tableau):
            weight[c] += 1
            continue
        sign = -1 if b.numerator < 0 else 1
        row, den = over_one_denominator([*values, b])
        weight.append(1)
        flip.append(sign)
        tableau.append([sign * v for v in row])
        dens.append(den)
    m = len(tableau)
    for i, row in enumerate(tableau):
        row[n:n] = [0] * m
        row[n + i] = dens[i]

    # crash basis: a structural column that is a unit vector for a kept row
    # can start basic there, so only the remaining rows need a basic artificial
    # (all artificial columns are kept, passively, to read the dual off)
    basis = [n + i for i in range(m)]
    for j, column in zip(range(n), zip(*tableau)):
        if column.count(0) == m - 1:
            value = next(filter(None, column))
            i = column.index(value)
            if basis[i] >= n and value == dens[i]:
                basis[i] = j

    # reduced-cost row for min(sum of basic artificials of the given rows): a
    # class's artificial stands for those of all its rows, so it costs the
    # class's size.  It holds z_j - c_j over the common denominator of the
    # artificial rows; an artificial entry is 0 if basic, else -cost·obj_den
    artificial_rows = [i for i in range(m) if basis[i] >= n]
    obj_den = math.lcm(*(dens[i] for i in artificial_rows))
    scales = [weight[i] * obj_den // dens[i] for i in artificial_rows]
    columns = zip(*(tableau[i] for i in artificial_rows))
    obj = [sum(map(mul, scales, column)) for column in islice(columns, n)] or [0] * n
    obj += [0 if basis[i] >= n else -weight[i] * obj_den for i in range(m)]
    obj.append(sum(map(mul, scales, (tableau[i][-1] for i in artificial_rows))))

    # artificials never enter: the crash ones never were basic, the others
    # are driven out and stay out
    blocked = [False] * n + [basis[i] != n + i for i in range(m)]
    iterations = 0
    stalled = 0  # degenerate steps in a row; Bland's rule kicks in when stuck
    while True:
        # obj shares one positive denominator, so numerators order the costs
        enter = -1
        if stalled < 32:
            best_cost = 0  # Dantzig: most positive reduced cost
            for j in range(n + m):
                if not blocked[j] and obj[j] > best_cost:
                    best_cost, enter = obj[j], j
        else:
            for j in range(n + m):  # Bland: guaranteed finite
                if not blocked[j] and obj[j] > 0:
                    enter = j
                    break
        if enter < 0:
            break
        # ratio rhs_i / a_i: the row denominator cancels, so compare
        # numerators cross-multiplied (both a_i are positive)
        leave, best_rhs, best_coeff = -1, 0, 1
        for i in range(m):
            coeff = tableau[i][enter]
            if coeff > 0:
                value = tableau[i][-1]
                if leave < 0:
                    leave, best_rhs, best_coeff = i, value, coeff
                    continue
                lhs, rhs_cross = value * best_coeff, best_rhs * coeff
                if lhs < rhs_cross or (lhs == rhs_cross and basis[i] < basis[leave]):
                    leave, best_rhs, best_coeff = i, value, coeff
        if leave < 0:
            raise ArithmeticError("Phase-I objective is bounded; this cannot happen")
        stalled = stalled + 1 if best_rhs == 0 else 0
        # dividing the pivot row by its entering value p/den leaves it over p
        pivot_row = tableau[leave]
        g = math.gcd(*pivot_row)
        if g != 1:
            pivot_row = [v // g for v in pivot_row]
        pivot = pivot_row[enter]
        tableau[leave], dens[leave] = pivot_row, pivot
        support = list(zip(compress(count(), pivot_row), filter(None, pivot_row)))
        for i in range(m):
            if i != leave and tableau[i][enter]:
                tableau[i], dens[i] = _eliminate(
                    tableau[i], dens[i], tableau[i][enter], pivot, support
                )
        if obj[enter]:
            obj, obj_den = _eliminate(obj, obj_den, obj[enter], pivot, support)
        if basis[leave] >= n:
            blocked[basis[leave]] = True
        basis[leave] = enter
        iterations += 1

    # current sum of artificial variables: basic ones carry their rhs value,
    # once for each row of their class
    gap = sum(
        (Fraction(weight[i] * tableau[i][-1], dens[i]) for i in range(m) if basis[i] >= n),
        start=Fraction(0),
    )
    if gap == 0:
        solution = [Fraction(0)] * n
        for i, var in enumerate(basis):
            if var < n:
                solution[var] = Fraction(tableau[i][-1], dens[i])
        return FeasibilityResult(True, solution, None, gap, iterations)

    # dual values: for artificial column j, reduced cost = y_j - cost_j; a
    # class's dual is shared out evenly over its rows
    duals = [
        Fraction(flip[i] * (obj[n + i] + weight[i] * obj_den), weight[i] * obj_den)
        for i in range(m)
    ]
    certificate = [duals[i] for i in owner]
    return FeasibilityResult(False, None, certificate, gap, iterations)


def verify_farkas(
    rows: Sequence[Sequence[Fraction]],
    rhs: Sequence[Fraction],
    certificate: Sequence[Fraction],
) -> bool:
    """Independent exact check that ``certificate`` proves infeasibility.

    A certificate, row entry or right-hand side that fails
    :func:`ghzsim.fock.exact` fails the check, so the sums below are exact;
    a system of inconsistent dimensions raises ``ValueError``, as in
    :func:`solve_feasibility`."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    if any(len(row) != n for row in rows) or len(rhs) != m:
        raise ValueError("inconsistent system dimensions")
    if len(certificate) != m or not exact(chain(certificate, rhs, *rows)):
        return False
    for j in range(n):
        if sum(certificate[i] * rows[i][j] for i in range(m)) > 0:
            return False
    return sum(certificate[i] * rhs[i] for i in range(m)) > 0
