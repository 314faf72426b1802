"""Local-hidden-variable analysis of the three-station statistics.

A deterministic local strategy assigns each station, per analyzer setting,
a value in {+1, −1, 0}; zero encodes a locally wrong event (a two-photon
count or a non-detection).  The sum of outcome moduli can only take the
values 3 (all right) and 1 (wrong events come in pairs), which forces the
moduli to be independent of the local settings — enumerated exhaustively in
:func:`lemma_check`, on masks whose bit v is set where a station's modulus
is v: a strategy's σ values are the bits of its masks' shift-and-OR sum.  The
hidden-variable distribution therefore splits into a right sector (64 all-±1
strategies) and an aggregated wrong-sector weight, and reproducing the
quantum tables becomes a small exact-rational LP solved in :mod:`ghzsim.simplex`.

That LP is solved over orbits.  Permuting the stations, and negating one
station's outcome at one of its settings, map strategies to strategies and
outcome cells to cells: 384 relabellings in all.  Those that fix every target
cell form a group (of order 48 for the quantum tables at every visibility
above 0).  Averaging a mixture over that group keeps it a solution, so the LP
over mixtures that give every member of a strategy orbit one weight has the
full LP's verdict (Bödi, Herr & Joswig, Math. Program. 137, 2013).  Its
columns are the strategy orbits (4 in place of 64).  It is handed all 65
rows, and the rows of one cell orbit are equal, and so are their targets: the
simplex kernel merges such repeated equations, pivots on the distinct ones (at
most 7 for the quantum tables), and gives every copy of a merged row the same
share of its dual.  A Farkas certificate is therefore constant on cell orbits,
so the group fixes it, and it bounds every strategy column and not only their
orbit sums.  The mixture is lifted back to the 64 strategies, and either
evidence is checked on the full 65 × 64 problem by code that shares nothing
with the solver.

The GHZ contradiction itself needs no inequalities
(:func:`ghz_paradox_check`), while the noise tolerance is an LP boundary:
white-noise-mixed quantum tables are feasible exactly up to visibility 1/2
(:func:`critical_visibility`).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import compress, permutations, product
from math import prod
from operator import itemgetter, mul, xor
from numbers import Rational
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .fock import (
    BOOL,
    GhzsimError,
    INT,
    RATIONAL,
    Record,
    TEXT,
    derived_codec,
    exact,
    mapping_codec,
    over_common_denominator,
    over_one_denominator,
    record_codec,
    require_type,
    sequence_codec,
    tuple_codec,
)
from .measurement import (
    AnalyzerSetting,
    OUTCOMES,
    Outcome,
    OutcomeTable,
    SettingTriple,
    _ideal_tables,
    all_setting_triples,
    correlation_from_table,
    outcome_code,
    quantum_targets,
)
from .simplex import solve_feasibility

# perfbench traces and resets these through lhv (tracing.BOUNDARIES, workloads.clear_caches)
from .events import heralded_state, trigger_select, two_pair_emission  # noqa: F401
from .measurement import outcome_distribution  # noqa: F401


class InadmissibleStrategyError(GhzsimError):
    """A strategy whose outcome modulus depends on the local setting."""


class TargetFormatError(GhzsimError):
    """Feasibility targets are malformed (coverage, normalization, wrong mass)."""


TRIPLES = all_setting_triples()
VALUES = (1, -1, 0)


StationAssignment = Tuple[int, int]  # value at linear45, value at circular
_ASSIGNMENTS: Tuple[StationAssignment, ...] = tuple(product(VALUES, repeat=2))
# station modulus masks (1 dead, 2 live, 3 setting-dependent); per mask triple,
# the shift-and-OR mask of the sums of one modulus per station, and its even bits
_MODULUS_MASK = {a: 1 << abs(a[0]) | 1 << abs(a[1]) for a in _ASSIGNMENTS}
_SIGMA_MASK = {m: reduce(lambda a, b: (a if b & 1 else 0) | (a << 1 if b & 2 else 0), m)
               for m in product((1, 2, 3), repeat=3)}
_EVEN = 0b0101


class LocalStrategy(Record):
    """Deterministic responses of the three stations for both settings."""

    __slots__ = _fields = ("g", "h", "z")

    def __init__(self, g: StationAssignment, h: StationAssignment, z: StationAssignment) -> None:
        if not _MODULUS_MASK.keys() >= {g, h, z}:
            raise ValueError("each station assigns one of {+1, -1, 0} to each of its 2 settings")
        self._set(g, h, z)

    def outcomes(self, triple: SettingTriple) -> Outcome:
        circular = AnalyzerSetting.CIRCULAR  # index 1 of an assignment
        return (self.g[triple.g is circular], self.h[triple.h is circular],
                self.z[triple.z is circular])


@lru_cache(maxsize=None)
def enumerate_strategies() -> Tuple[LocalStrategy, ...]:
    """All 729 joint strategies (9 per station), built once per process."""
    return tuple(LocalStrategy(*s) for s in product(_ASSIGNMENTS, repeat=3))


@lru_cache(maxsize=None)
def right_sector_strategies() -> Tuple[LocalStrategy, ...]:
    """The 64 all-±1 strategies (χ = 1), in the order of the enumeration."""
    return tuple(s for s in enumerate_strategies() if 0 not in (*s.g, *s.h, *s.z))


# The four perfect GHZ correlations as (settings code, sign): E(xxx) = +1,
# E(xyy) = E(yxy) = E(yyx) = −1.  The paradox takes them as constraints on
# a strategy's outcome parities; Mermin's combination is Σ sign·E.
PERFECT_CORRELATIONS: Tuple[Tuple[str, int], ...] = (
    ("xxx", 1), ("xyy", -1), ("yxy", -1), ("yyx", -1),
)


def _parity(strategy: LocalStrategy, code: str) -> int:
    """Product of the three outcomes of ``strategy`` at the settings ``code``."""
    return prod(strategy.outcomes(SettingTriple.from_code(code)))


def sigma(strategy: LocalStrategy, triple: SettingTriple) -> int:
    """Sum of the three outcome moduli at the given settings."""
    return sum(abs(v) for v in strategy.outcomes(triple))


def _masks(strategy: LocalStrategy) -> Tuple[int, int, int]:
    return _MODULUS_MASK[strategy.g], _MODULUS_MASK[strategy.h], _MODULUS_MASK[strategy.z]


def _sigmas(strategy: LocalStrategy) -> int:
    """The values of sigma over all eight triples, as a mask with bit s set
    when some triple gives sigma s: each station adds either modulus."""
    return _SIGMA_MASK[_masks(strategy)]


def chi(strategy: LocalStrategy) -> int:
    """Indicator of an all-right strategy; defined only on admissible ones."""
    masks = _masks(strategy)
    if 3 in masks:
        raise InadmissibleStrategyError("outcome modulus depends on a local setting; "
                                        "chi is undefined")
    return int(masks == (2, 2, 2))


class LemmaReport(Record):
    """Exhaustive audit of which strategies keep sigma in {1, 3} everywhere.

    ``excluded_with_even_sigma`` counts the excluded strategies that hit
    sigma 0 or 2.  Sigma takes values in {0, 1, 2, 3}, so "not within
    {1, 3}" and "hits 0 or 2" are one condition: on :func:`lemma_check`'s
    output ``excluded_with_even_sigma == excluded`` holds by definition, and
    ``consistent`` reads that clause as a check of the report against the
    definition, beside the two counts that must add up (``admissible`` splits
    into the χ = 1 and χ = 0 strategies, and ``admissible + excluded`` is
    ``total``) and the lemma's finding that no admissible modulus depends on
    a setting.
    """

    __slots__ = _fields = (
        "total", "admissible", "chi_one", "chi_zero", "excluded", "excluded_with_even_sigma",
        "setting_dependent_excluded", "all_admissible_moduli_setting_independent",
    )

    @property
    def consistent(self) -> bool:
        return (
            self.admissible == self.chi_one + self.chi_zero
            and self.admissible + self.excluded == self.total
            and self.excluded == self.excluded_with_even_sigma
            and self.all_admissible_moduli_setting_independent
        )


def admissible(strategy: LocalStrategy) -> bool:
    return not _sigmas(strategy) & _EVEN


def lemma_check() -> LemmaReport:
    """Enumerate all 729 strategies against the sigma constraint.

    The admissible set is exactly: per-station moduli independent of the
    local setting, with either all three stations live (χ = 1) or exactly
    one live (the paired-wrong sector, χ = 0).  Every excluded strategy has
    sigma 0 or 2 at some triple.  Counts are read off :func:`_sigmas`' masks:
    admissible is no even sigma bit, setting-dependent a mask 3, χ = 1 all 2.
    """
    strategies = enumerate_strategies()
    tally = Counter(map(_masks, strategies))
    allowed = {masks: n for masks, n in tally.items() if not _SIGMA_MASK[masks] & _EVEN}
    excluded = {masks: n for masks, n in tally.items() if masks not in allowed}
    return LemmaReport(
        total=len(strategies),
        admissible=sum(allowed.values()),
        chi_one=allowed.get((2, 2, 2), 0),
        chi_zero=sum(n for masks, n in allowed.items() if masks != (2, 2, 2)),
        excluded=sum(excluded.values()),
        excluded_with_even_sigma=sum(n for m, n in excluded.items() if _SIGMA_MASK[m] & _EVEN),
        setting_dependent_excluded=sum(n for masks, n in excluded.items() if 3 in masks),
        all_admissible_moduli_setting_independent=not any(3 in masks for masks in allowed),
    )


# ---------------------------------------------------------------------------
# Feasibility LP
# ---------------------------------------------------------------------------


class FeasibilityProblem(Record):
    """Can a strategy mixture reproduce all eight outcome tables exactly?

    ``slack`` (a value that passes :func:`ghzsim.fock.exact`, default zero)
    loosens each cell equation to ``|model − target| <= slack`` for
    experiment-data ingestion; the wrong-mass match stays exact either way.

    ``integer_targets`` is ``(numerators, e)``: the 65 right-hand sides of
    the LP (the 64 cells in :data:`TRIPLES` × :data:`OUTCOMES` order, then
    the right mass) as integers over one denominator ``e``, the lcm of the
    tables' ``integer_form`` denominators, which is also the lcm of the 65
    values'.  It is no field, so equality, ``repr`` and pickling read
    ``targets`` and ``slack`` alone.
    """

    _fields = ("targets", "slack")
    __slots__ = (*_fields, "integer_targets")

    def __init__(self, targets: Sequence[OutcomeTable], slack: Fraction = Fraction(0)) -> None:
        if not exact((slack,)):
            raise TypeError(f"slack must be an exact rational, got {slack!r}")
        targets, slack = tuple(targets), Fraction(slack)
        if slack < 0:
            raise TargetFormatError("slack must be non-negative")
        by_code = {t.settings.code: t for t in targets}
        if len(targets) != len(TRIPLES) or set(by_code) != {
            t.code for t in TRIPLES
        }:
            raise TargetFormatError("targets must cover all 8 setting triples once")
        masses = {t.wrong_mass for t in targets}
        if len(masses) != 1:
            raise TargetFormatError(
                f"wrong mass must be setting-independent, got {sorted(masses)}"
            )
        # each table's cells, then the right mass: e less the scaled wrong mass
        scaled, e = over_common_denominator([by_code[t.code].integer_form for t in TRIPLES])
        cells = [n for nums in scaled for n in nums[:-1]]
        cells.append(e - scaled[0][-1])
        object.__setattr__(self, "integer_targets", (tuple(cells), e))
        self._set(targets, slack)

    def table(self, triple: SettingTriple) -> OutcomeTable:
        return next(t for t in self.targets if t.settings == triple)

    @property
    def wrong_mass(self) -> Fraction:
        return self.targets[0].wrong_mass


CertificateKey = Tuple[str, str]  # (settings code, outcome code) or ("mass", "")


@dataclass(frozen=True)
class Certificate:
    """Farkas functional proving no strategy mixture matches the targets.

    ``value`` is the functional applied to the targets, less
    ``slack · Σ |y_i|`` over the cell coefficients: the least it can take on
    any tables within the problem's ±slack band.  ``strategy_bound`` is the
    maximum over the 64 right-sector strategies of the functional applied
    to that strategy's deterministic table, scaled by the right mass.
    ``value > strategy_bound`` (with every strategy column non-positive)
    certifies infeasibility of the problem at its slack; ``verified``
    records the solver-independent re-check.
    """

    coefficients: Mapping[CertificateKey, Fraction]
    value: Fraction
    strategy_bound: Fraction
    max_strategy_column: Fraction
    verified: bool


@dataclass(frozen=True)
class FeasibilityOutcome:
    feasible: bool
    distribution: Optional[Mapping[LocalStrategy, Fraction]]
    chi_zero_weight: Optional[Fraction]
    certificate: Optional[Certificate]
    iterations: int
    # solver-free re-check of the evidence: the distribution and the χ=0
    # weight reproduce the targets, or the certificate is ``verified``
    verified: bool = False


# the key of the aggregated χ=0 weight in a feasible verdict's evidence
CHI_ZERO = "chi=0"

Incidence = Tuple[Tuple[int, ...], ...]


@lru_cache(maxsize=None)
def _incidence() -> Tuple[Tuple[CertificateKey, ...], Incidence]:
    """Row keys and 0/1 rows of the LP: 64 cell rows, then the mass row,
    over the 64 right-sector strategy columns.  Only the targets vary from
    problem to problem, so this is built once and shared, read-only.

    Row 8t + o holds a 1 at strategy j when j gives outcome o at settings t,
    read off the bit layout :func:`_candidate_maps` states: station k's
    outcome (bit 2 − k of o) is bit 5 − 2k − x of j, x its setting in t."""
    rows = [[0] * 64 for _ in range(64)]
    for t in range(8):
        g, h, z = (5 - 2 * k - (t >> 2 - k & 1) for k in range(3))
        for j in range(64):
            rows[8 * t + ((j >> g & 1) << 2 | (j >> h & 1) << 1 | j >> z & 1)][j] = 1
    keys = product([triple.code for triple in TRIPLES], map(outcome_code, OUTCOMES))
    return (*keys, ("mass", "")), (*map(tuple, rows), (1,) * 64)


@lru_cache(maxsize=None)
def _supports() -> Tuple[Tuple[itemgetter, ...], Tuple[itemgetter, ...]]:
    """Each row's strategies (8 per cell) and each column's 9 rows, as ``itemgetter``s."""
    _, rows = _incidence()
    return (tuple(itemgetter(*compress(range(64), row)) for row in rows),
            tuple(itemgetter(*compress(range(65), column)) for column in zip(*rows)))


def _cell_rows(problem: FeasibilityProblem):
    """LP data: 64 cell rows + 1 mass row over 64 strategy columns."""
    keys, rows = _incidence()
    tables = {t.settings.code: t.probabilities for t in problem.targets}
    rhs = [cells[outcome] for cells in (tables[t.code] for t in TRIPLES) for outcome in OUTCOMES]
    rhs.append(1 - problem.wrong_mass)
    return right_sector_strategies(), rows, rhs, keys


def _with_slack(rows, rhs, slack: Rational):
    """Relax cell equalities to a ±slack band via surplus columns.

    Cells with equal rows and equal targets share one surplus pair, so their
    band rows are repeats, which the kernel merges into one.  No two cells of
    the full 65 × 64 rows are equal, so there every cell has its own pair.
    The targets and the slack may be on any one scale: the integer targets
    e·q·t with the band e·p for a slack p/q give the same rows, times e·q."""
    n = len(rows[0])
    pairs: Dict[Tuple, int] = {}
    shared = [pairs.setdefault((row, t), len(pairs))
              for row, t in zip(rows[:-1], rhs)]  # the mass row stays exact
    width = 2 * len(pairs)
    wide_rows: List[List[int]] = []
    wide_rhs: List[Rational] = []
    for row, t, p in zip(rows, rhs, shared):
        upper = list(row) + [0] * width
        upper[n + p] = 1
        wide_rows.append(upper)
        wide_rhs.append(t + slack)
        lower = list(row) + [0] * width
        lower[n + len(pairs) + p] = -1
        wide_rows.append(lower)
        wide_rhs.append(t - slack)
    wide_rows.append(list(rows[-1]) + [0] * width)
    wide_rhs.append(rhs[-1])
    return wide_rows, wide_rhs


Permutation = bytes  # the image of each index
Orbits = Tuple[Tuple[int, ...], ...]  # each sorted, ordered by least index


@lru_cache(maxsize=None)
def _candidate_maps() -> Tuple[Tuple[Permutation, Permutation], ...]:
    """The 384 relabellings that keep the LP's incidence, each as a permutation
    of the 64 cell rows and one of the 64 strategy columns (as ``bytes``, about
    a sixth of a tuple's memory).

    A relabelling moves station k to place ``order[k]`` (6 orders), then
    negates the outcome of station k at setting x for each (k, x) of a set
    ``f`` of the 6 pairs.  A strategy gives a cell exactly when its image
    gives the image cell.  Both indices are bit fields, as the product
    orders of :data:`TRIPLES`, :data:`OUTCOMES` and the enumeration make
    them (x = 0 linear, 1 circular; a bit is set for −1):

    * strategy j holds station k's value at setting x in bit 5 − 2k − x;
    * cell 8t + o holds station k's setting in bit 2 − k of t, and its
      outcome in bit 2 − k of o.

    So ``f``, written as a strategy bit field, maps strategy j to j ^ f.
    Built on the first solve of a process, never at import.
    """
    flips = [((0,) * 8, 0)]  # (the outcome bits flipped in each triple t, the strategy bits)
    for k, x in product(range(3), (0, 1)):
        single = tuple(((t >> 2 - k & 1) == x) << 2 - k for t in range(8))
        flips += [(tuple(map(xor, masks, single)), bits ^ (1 << 5 - 2 * k - x))
                  for masks, bits in flips]
    flips = [(tuple([8 * t + (o ^ mask) for t, mask in enumerate(masks) for o in range(8)]),
              tuple([j ^ bits for j in range(64)])) for masks, bits in flips]
    maps = []
    for order in permutations(range(3)):
        # where the order moves a 3-bit field of settings or outcomes, and a strategy
        moved = [sum(v << 2 - to for v, to in zip(field, order))
                 for field in product((0, 1), repeat=3)]
        strategies = itemgetter(*[sum(v << 4 - 2 * to for v, to in zip(field, order))
                                  for field in product(range(4), repeat=3)])
        cells = itemgetter(*[8 * t + o for t in moved for o in moved])
        maps += [(bytes(cells(cell_flip)), bytes(strategies(strategy_flip)))
                 for cell_flip, strategy_flip in flips]
    return tuple(maps)


def _orbits(group: Sequence[Permutation]) -> Orbits:
    """The orbits of a group given as the list of all its permutations."""
    orbits: List[Tuple[int, ...]] = []
    seen = set()
    for i in range(len(group[0])):
        if i not in seen:
            orbits.append(tuple(sorted({p[i] for p in group})))
            seen.update(orbits[-1])
    return tuple(orbits)


@lru_cache(maxsize=64)
def _orbit_lp(partition: Tuple[int, ...]) -> Tuple[Orbits, Incidence]:
    """The strategy orbits of the maps that fix every target cell, ordered by
    least index, and the LP's 65 rows over them: one column per orbit, whose
    entry counts the members of the orbit that give the row's cell, so the
    mass row holds the orbit sizes.  A trivial stabiliser gives back the full
    rows.  The rows of one cell orbit are equal, and so are their targets, so
    the kernel merges them and shares each merged dual evenly over them.

    ``partition`` labels each cell by the first cell with an equal target,
    so it alone decides which candidate maps fix the targets."""
    stabiliser = [m for m in _candidate_maps() if itemgetter(*m[0])(partition) == partition]
    strategies = _orbits([strategy_map for _, strategy_map in stabiliser])
    _, rows = _incidence()
    return strategies, tuple(
        tuple([sum([row[j] for j in orbit]) for orbit in strategies]) for row in rows)


def _partition(cells: Sequence[Rational]) -> Tuple[int, ...]:
    """Each cell labelled by the first cell of equal value.  A verdict passes
    its integer targets over one denominator, where equal values are equal
    integers; equal rationals of any type hash alike, so ``Fraction`` cells
    give the same labels."""
    first: Dict[Rational, int] = {}
    return tuple([first.setdefault(v, i) for i, v in enumerate(cells)])


def _orbit_system(problem: FeasibilityProblem) -> Tuple[Orbits, Sequence, List[int], int]:
    """The orbit LP a verdict hands the kernel, on the integer scale of the
    problem's targets: the strategy orbits, the rows, the integer right-hand
    sides and the scale s by which they multiply the targets.

    Without slack the right-hand sides are the ``integer_targets`` e·t
    (s = e); with a slack p/q they are e·q·t ± e·p and e·q times the right
    mass (s = e·q).  One positive scaling of the right-hand sides changes no
    pivot of the kernel (its entering rule reads the structural costs, and
    its ratio test compares right-hand sides that all scale alike) and no
    merge class or dual, and multiplies its solution by s."""
    targets, e = problem.integer_targets
    columns, rows = _orbit_lp(_partition(targets[:-1]))
    if not problem.slack:
        return columns, rows, list(targets), e
    p, q = problem.slack.numerator, problem.slack.denominator
    rows, rhs = _with_slack(rows, [q * t for t in targets], e * p)
    return columns, rows, rhs, e * q


def lhv_feasibility(problem: FeasibilityProblem) -> FeasibilityOutcome:
    """Exact LP over the right-sector strategies plus the aggregated χ=0 mass.

    The wrong mass is matched by construction (it is setting-independent in
    the targets, validated at problem build time, and carried by the
    aggregated χ=0 weight), so the LP only asks whether non-negative
    weights on the 64 all-±1 strategies reproduce every right-event cell.

    The LP's columns are the orbits of the targets' stabiliser on the
    strategies (see :func:`_orbit_lp`): averaging a solution over the
    stabiliser keeps it a solution, so one weight per orbit decides the full
    LP's verdict.  Its 65 rows are handed to the kernel as they are, with
    the problem's ``integer_targets`` as right-hand sides (see
    :func:`_orbit_system`), so the kernel reads every row in as integers and
    the targets are put over one denominator once, when the problem is built;
    the kernel's solution is divided by that scale, and its dual needs no
    change.  The rows of one cell orbit are equal, and so are their targets,
    so the kernel merges them and pivots on the distinct ones; with slack,
    equal cells share one surplus pair (see :func:`_with_slack`), so their
    band rows are merged too.  The evidence is lifted to the full problem
    and checked there, against the same integer targets, by
    :func:`verify_verdict` or :func:`evaluate_certificate`: a mixture gives
    every member of a strategy orbit the orbit's weight, and a certificate
    is the kernel's dual as solved, each slack pair folded into its cell.
    The kernel gives every copy of a merged row the same share of its dual,
    so the certificate is constant on cell orbits and its value on a
    strategy's column is the same across the strategy's orbit: the orbit
    column's value over the orbit size, which the solve makes non-positive.
    """
    columns, rows, rhs, scale = _orbit_system(problem)
    result = solve_feasibility(rows, rhs)
    if result.feasible:
        weights = [w / scale for w in result.solution[:len(columns)]]
        weight = {j: w for orbit, w in zip(columns, weights) for j in orbit}
        mixture = {s: weight[j] for j, s in enumerate(right_sector_strategies()) if weight[j]}
        return FeasibilityOutcome(True, mixture, problem.wrong_mass, None, result.iterations,
                                  verify_verdict(problem, True,
                                                 {**mixture, CHI_ZERO: problem.wrong_mass}))
    dual = result.certificate
    if problem.slack:  # the dual covers doubled cell rows; fold the pairs back
        dual = [dual[i] + dual[i + 1] for i in range(0, len(dual) - 1, 2)] + [dual[-1]]
    certificate = evaluate_certificate(problem, dict(zip(_incidence()[0], dual)))
    return FeasibilityOutcome(False, None, None, certificate, result.iterations,
                              certificate.verified)


def verify_verdict(problem: FeasibilityProblem, feasible: bool, evidence: Mapping) -> bool:
    """The solver-free check that a verdict's evidence proves it.

    Feasible evidence is the whole model: the mixture ``LocalStrategy →
    weight`` and the aggregated χ=0 weight under :data:`CHI_ZERO`.  Its
    strategies are right-sector, its weights pass :func:`ghzsim.fock.exact`,
    are non-negative and sum to 1, the χ=0 weight is the wrong mass, and
    every cell is within the slack of its target, read from the problem's
    ``integer_targets``.  Infeasible evidence is the certificate's
    coefficients; they must pass :func:`evaluate_certificate`.
    """
    if not feasible:
        return evaluate_certificate(problem, evidence).verified
    strategies = right_sector_strategies()
    if not set(evidence) <= {*strategies, CHI_ZERO} or not exact(evidence.values()) or (
        evidence.get(CHI_ZERO) != problem.wrong_mass
    ):
        return False
    # weights over one denominator d and targets over another, e: cell i
    # passes when |w_i/d − t_i/e| <= p/q, that is |w_i·e − t_i·d|·q <= p·d·e
    # (the mass row is the exact sum check)
    (*weights, chi_zero), d = over_one_denominator(
        [evidence.get(s, 0) for s in strategies] + [evidence[CHI_ZERO]])
    targets, e = problem.integer_targets
    p, q = problem.slack.numerator, problem.slack.denominator
    return min(weights) >= 0 and sum(weights) + chi_zero == d and all(
        abs(sum(row(weights)) * e - t * d) * q <= p * d * e
        for row, t in zip(_supports()[0], targets[:-1])
    )


def evaluate_certificate(
    problem: FeasibilityProblem, coeffs: Mapping[CertificateKey, Fraction]
) -> Certificate:
    """Verify a Farkas functional against the problem's ``integer_targets``,
    solver-free.  A coefficient whose key names no LP row, or whose value
    fails :func:`ghzsim.fock.exact`, is left out of the sums and fails the
    check."""
    keys = _incidence()[0]
    kept = coeffs  # the coefficient types are read once; only a stray type filters per item
    if not exact(coeffs.values()):
        kept = {key: c for key, c in coeffs.items() if exact((c,))}
    # y over d, targets over e; within the ±p/q band cell i moves y·(Aw) by (p/q)·|y_i|
    y, d = over_one_denominator([kept.get(key, 0) for key in keys])
    b, e = problem.integer_targets
    p, q = problem.slack.numerator, problem.slack.denominator
    value = Fraction(sum(map(mul, y, b)) * q - sum(map(abs, y[:-1])) * p * e, d * e * q)
    top = max([sum(column(y)) for column in _supports()[1]])
    max_column = Fraction(top, d)
    bound = max_column * (1 - problem.wrong_mass)
    verified = top <= 0 < value and len(kept) == len(coeffs) and set(coeffs) <= set(keys)
    return Certificate(dict(coeffs), value, bound, max_column, verified)


def _certificate_key(text: str) -> CertificateKey:
    code, outcome = ("mass", "") if text == "mass" else text.split("|")
    return code, outcome


CERTIFICATE_KEY = (lambda key: "mass" if key[0] == "mass" else "|".join(key), _certificate_key)
# the decoder keeps only the coefficients: value, bound and verdict are
# re-derived from them by evaluate_certificate, never trusted from the wire
CERTIFICATE = record_codec(
    lambda coefficients, **evidence: coefficients,
    ("coefficients", "coefficients", mapping_codec(CERTIFICATE_KEY, RATIONAL)),
    ("value", "value", RATIONAL),
    ("strategy_bound", "strategy_bound", RATIONAL),
    ("max_strategy_column", "max_strategy_column", RATIONAL),
    ("verified", "verified", BOOL),
)
certificate_from_json = CERTIFICATE[1]  # perfbench decodes certificates by this name


# a mixture as its list of strategies, each carrying its weight
_WEIGHTED = sequence_codec(tuple_codec(*((name, sequence_codec(INT)) for name in "ghz"),
                                       ("weight", RATIONAL)))
DISTRIBUTION = (
    lambda mixture: _WEIGHTED[0]((s.g, s.h, s.z, weight) for s, weight in mixture.items()),
    lambda obj: {LocalStrategy(g, h, z): weight for g, h, z, weight in _WEIGHTED[1](obj)},
)
# (visibility, feasible, chi_zero_weight, distribution, certificate): the
# evidence is either the mixture or the certificate, decoded to its
# coefficients; either is what verify_verdict checks; the rest are None
FEASIBILITY_VERDICT = tuple_codec(
    ("visibility", RATIONAL), ("feasible", BOOL), ("chi_zero_weight", RATIONAL),
    ("distribution", DISTRIBUTION), ("certificate", CERTIFICATE),
    optional=("chi_zero_weight", "distribution", "certificate"),
)


# ---------------------------------------------------------------------------
# Mermin combination
# ---------------------------------------------------------------------------


def mermin_value(tables: Sequence[OutcomeTable]) -> Fraction:
    """Σ sign·E over :data:`PERFECT_CORRELATIONS`, from conditional correlations."""
    by_code = {t.settings.code: t for t in tables}
    return sum(sign * correlation_from_table(by_code[code])
               for code, sign in PERFECT_CORRELATIONS)


def mermin_strategy_bound() -> int:
    """Exhaustive bound of the Mermin combination over deterministic strategies:
    the largest |Σ sign·parity| over the right sector."""
    return max(abs(sum(sign * _parity(strategy, code) for code, sign in PERFECT_CORRELATIONS))
               for strategy in right_sector_strategies())


def mermin_certificate(problem: FeasibilityProblem) -> Certificate:
    """The Mermin combination recast as an explicit Farkas functional.

    Each outcome cell of a :data:`PERFECT_CORRELATIONS` triple gets the
    coefficient sign·parity: the correlation's sign times the outcome
    parity.  The mass row gets −2, one −2 per unit of right mass, so that
    every deterministic strategy column is non-positive.  Positive
    ``value`` then proves infeasibility — exactly the statement that the
    quantum combination exceeds the deterministic bound of 2.
    """
    coeffs: Dict[CertificateKey, Fraction] = {("mass", ""): Fraction(-2)}
    for code, sign in PERFECT_CORRELATIONS:
        for outcome in OUTCOMES:
            coeffs[(code, outcome_code(outcome))] = Fraction(sign * prod(outcome))
    return evaluate_certificate(problem, coeffs)


# ---------------------------------------------------------------------------
# GHZ paradox and critical visibility
# ---------------------------------------------------------------------------


class GhzParadoxReport(Record):
    __slots__ = _fields = ("conjugate_convention", "quantum_correlations", "satisfying_all",
                           "satisfying_after_drop", "contradiction")


def ghz_paradox_check(conjugate: bool = False) -> GhzParadoxReport:
    """The inequality-free argument, restricted to the right sector.

    Verifies the four perfect quantum correlations from the derived state's
    tables, then counts the all-±1 strategies compatible with all four product
    constraints (none) and with each constraint dropped (eight each).
    """
    by_code = {table.settings.code: table for table in _ideal_tables(conjugate)}
    correlations = {code: correlation_from_table(by_code[code])
                    for code, _ in PERFECT_CORRELATIONS}
    for code, expected in PERFECT_CORRELATIONS:
        if correlations[code] != expected:
            raise GhzsimError(
                f"derived correlation E({code}) = {correlations[code]}, "
                f"expected {expected}"
            )

    def satisfying(constraints) -> int:
        return sum(all(_parity(strategy, code) == sign for code, sign in constraints)
                   for strategy in right_sector_strategies())

    all_four = satisfying(PERFECT_CORRELATIONS)
    drops = [satisfying(PERFECT_CORRELATIONS[:skip] + PERFECT_CORRELATIONS[skip + 1:])
             for skip in range(len(PERFECT_CORRELATIONS))]
    return GhzParadoxReport(
        conjugate_convention=conjugate,
        quantum_correlations=correlations,
        satisfying_all=all_four,
        satisfying_after_drop=tuple(drops),
        contradiction=all_four == 0 and all(d > 0 for d in drops),
    )


GHZ_REPORT = record_codec(
    GhzParadoxReport,
    ("conjugate", "conjugate_convention", BOOL),
    ("correlations", "quantum_correlations", mapping_codec(TEXT, RATIONAL)),
    ("satisfying_all", "satisfying_all", INT),
    ("satisfying_after_drop", "satisfying_after_drop", sequence_codec(INT)),
    ("contradiction", "contradiction", BOOL),
)
# (reports,) for both sign conventions, with the verdict they share derived
GHZ_PARADOX = derived_codec(
    tuple_codec(("conventions", sequence_codec(GHZ_REPORT))),
    "contradiction", lambda value: all(report.contradiction for report in value[0]),
)


class Evaluation(NamedTuple):
    """One verdict of the reported bracket search."""

    visibility: Fraction
    feasible: bool


class CriticalVisibilityResult(Record):
    __slots__ = _fields = ("v_star", "feasible_at", "infeasible_above", "evaluations")


CRITICAL_RESULT = record_codec(
    CriticalVisibilityResult,
    *((name, name, RATIONAL) for name in ("v_star", "feasible_at", "infeasible_above")),
    ("evaluations", "evaluations", sequence_codec(record_codec(
        Evaluation, ("visibility", "visibility", RATIONAL), ("feasible", "feasible", BOOL),
    ))),
)


def feasibility_at_visibility(visibility: Fraction) -> FeasibilityOutcome:
    return lhv_feasibility(FeasibilityProblem(quantum_targets(visibility)))


def _affine_boundary(
    solve: Callable[[Fraction], FeasibilityOutcome],
    problem_at: Callable[[Fraction], FeasibilityProblem],
) -> Fraction:
    """Exact largest feasible V of an affine family of targets t(V) on [0, 1].

    ``solve(v)`` decides ``problem_at(v)``.  The strategy columns of a
    Farkas functional y do not depend on V, and y·t(V) is affine in V, so
    y proves infeasibility for every V above the root of y·t(V).  The
    search solves at 0 (must be feasible) and at 1 (must be infeasible),
    then at the root of each new certificate until a root is feasible —
    the parametric-LP view of Gass and Saaty (1955), run as a
    Dinkelbach-style iteration.  Each root lies strictly below the V whose
    certificate gave it, and the simplex visits finitely many bases, so
    the search ends.  Every verdict it relies on must be ``verified``: a
    mixture that reproduces its targets, or a verified certificate.
    """

    def decided(v: Fraction) -> FeasibilityOutcome:
        outcome = solve(v)
        if not outcome.verified:
            raise GhzsimError(f"the verdict at V = {v} does not verify")
        return outcome

    if not decided(Fraction(0)).feasible:
        raise GhzsimError("white noise must be classically reproducible")
    v, outcome = Fraction(1), decided(Fraction(1))
    if outcome.feasible:
        raise GhzsimError("the noiseless targets must be infeasible")
    origin = problem_at(Fraction(0))
    while not outcome.feasible:
        certificate = outcome.certificate
        intercept = evaluate_certificate(origin, certificate.coefficients).value
        if intercept > 0:
            raise GhzsimError(f"the certificate from V = {v} is positive at V = 0")
        slope = (certificate.value - intercept) / v
        root = -intercept / slope if slope > 0 else v
        if not root < v:
            raise GhzsimError(f"the certificate from V = {v} has no root below it")
        v, outcome = root, decided(root)
    return v


# the deepest reported bracket: the evaluations hold about depth^2 / 2 bits of
# midpoints (0.3 MB at this depth), while V* itself is exact from 3 solves
MAX_DEPTH = 1000


def critical_visibility(depth: int = 8) -> CriticalVisibilityResult:
    """Exact LP boundary V* over the visibility interval [0, 1].

    :func:`_affine_boundary` finds V* exactly, for any rational boundary,
    from LP solves at V = 0, V = 1 and the root of each Farkas certificate
    (for the quantum targets: 0, 1 and 1/2, so V* = 1/2).

    ``depth``, from 1 to :data:`MAX_DEPTH`, sets only the width 2^(−depth)
    of the reported bracket ``feasible_at`` ≤ V* < ``infeasible_above``,
    whose ends are bisection midpoints of [0, 1].  ``evaluations`` lists the
    verdicts at 0 and 1, then at each midpoint; the entries after the first
    two are verdicts deduced from the solves, not LP calls:

    * a midpoint above V* is infeasible: the last certificate's columns
      are non-positive for every V, and its value there is positive;
    * a midpoint at or below V* is feasible by convexity: the targets are
      affine in V, and V = 0 and V = V* were both solved feasible.
    """
    require_type(int, depth, "bisection depth must be an int")
    if not 1 <= depth <= MAX_DEPTH:
        raise ValueError(f"bisection depth must be from 1 to {MAX_DEPTH}, got {depth}")
    v_star = _affine_boundary(
        feasibility_at_visibility, lambda v: FeasibilityProblem(quantum_targets(v))
    )
    evaluations = [Evaluation(Fraction(0), True), Evaluation(Fraction(1), False)]
    low, high = Fraction(0), Fraction(1)
    for _ in range(depth):
        mid = (low + high) / 2
        evaluations.append(Evaluation(mid, mid <= v_star))
        low, high = (mid, high) if mid <= v_star else (low, mid)
    return CriticalVisibilityResult(v_star, low, high, tuple(evaluations))
