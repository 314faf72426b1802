"""Local-hidden-variable analysis of the three-station statistics.

A deterministic local strategy assigns each station, per analyzer setting,
a value in {+1, −1, 0}; zero encodes a locally wrong event (a two-photon
count or a non-detection).  The sum of outcome moduli can only take the
values 3 (all right) and 1 (wrong events come in pairs), which forces the
moduli to be independent of the local settings — enumerated exhaustively in
:func:`lemma_check`.  The hidden-variable distribution therefore splits
into a right sector (64 all-±1 strategies) and an aggregated wrong-sector
weight, and reproducing the quantum tables becomes a small exact-rational
linear program solved in :mod:`ghzsim.simplex`.

The GHZ contradiction itself needs no inequalities
(:func:`ghz_paradox_check`), while the noise tolerance is an LP boundary:
white-noise-mixed quantum tables are feasible exactly up to visibility 1/2
(:func:`critical_visibility`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import prod
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .circuit import innsbruck_circuit
from .events import CLASSIFIED_TERMS, trigger_select, two_pair_emission
from .fock import (
    BOOL,
    GhzsimError,
    INT,
    RATIONAL,
    StatePolynomial,
    TERMS,
    TEXT,
    derived_codec,
    mapping_codec,
    record_codec,
    sequence_codec,
    tuple_codec,
)
from .measurement import (
    AnalyzerSetting,
    OUTCOMES,
    Outcome,
    OutcomeTable,
    SettingTriple,
    TABLE,
    add_noise,
    all_setting_triples,
    correlation,
    correlation_from_table,
    outcome_code,
    outcome_distribution,
)
from .simplex import solve_feasibility


class InadmissibleStrategyError(GhzsimError):
    """A strategy whose outcome modulus depends on the local setting."""


class TargetFormatError(GhzsimError):
    """Feasibility targets are malformed (coverage, normalization, wrong mass)."""


TRIPLES = all_setting_triples()
VALUES = (1, -1, 0)


StationAssignment = Tuple[int, int]  # value at linear45, value at circular
_POSITION = {setting: index for index, setting in enumerate(AnalyzerSetting)}


@dataclass(frozen=True)
class LocalStrategy:
    """Deterministic responses of the three stations for both settings."""

    g: StationAssignment
    h: StationAssignment
    z: StationAssignment

    def __post_init__(self) -> None:
        for assignment in (self.g, self.h, self.z):
            if any(v not in VALUES for v in assignment):
                raise ValueError("strategy values must lie in {+1, -1, 0}")

    def outcomes(self, triple: SettingTriple) -> Outcome:
        return (self.g[_POSITION[triple.g]], self.h[_POSITION[triple.h]],
                self.z[_POSITION[triple.z]])


def enumerate_strategies() -> Tuple[LocalStrategy, ...]:
    """All 729 joint strategies (9 per station)."""
    per_station = tuple(product(VALUES, repeat=2))
    return tuple(LocalStrategy(*s) for s in product(per_station, repeat=3))


@lru_cache(maxsize=None)
def right_sector_strategies() -> Tuple[LocalStrategy, ...]:
    """The 64 all-±1 strategies (χ = 1)."""
    signs = tuple(product((1, -1), repeat=2))
    return tuple(LocalStrategy(*s) for s in product(signs, repeat=3))


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


def _sigmas(strategy: LocalStrategy) -> set:
    return {sigma(strategy, triple) for triple in TRIPLES}


def has_setting_independent_moduli(strategy: LocalStrategy) -> bool:
    return all(
        abs(assignment[0]) == abs(assignment[1])
        for assignment in (strategy.g, strategy.h, strategy.z)
    )


def chi(strategy: LocalStrategy) -> int:
    """Indicator of an all-right strategy; defined only on admissible ones."""
    if not has_setting_independent_moduli(strategy):
        raise InadmissibleStrategyError(
            "outcome modulus depends on a local setting; chi is undefined"
        )
    return int(all(abs(a[0]) == 1 for a in (strategy.g, strategy.h, strategy.z)))


@dataclass(frozen=True)
class LemmaReport:
    """Exhaustive audit of which strategies keep sigma in {1, 3} everywhere."""

    total: int
    admissible: int
    chi_one: int
    chi_zero: int
    excluded: int
    excluded_with_even_sigma: int  # excluded strategies hitting sigma 0 or 2
    setting_dependent_excluded: int
    all_admissible_moduli_setting_independent: bool

    @property
    def consistent(self) -> bool:
        return (
            self.admissible == self.chi_one + self.chi_zero
            and self.excluded == self.excluded_with_even_sigma
            and self.all_admissible_moduli_setting_independent
        )


def admissible(strategy: LocalStrategy) -> bool:
    return _sigmas(strategy) <= {1, 3}


def lemma_check() -> LemmaReport:
    """Enumerate all 729 strategies against the sigma constraint.

    The admissible set is exactly: per-station moduli independent of the
    local setting, with either all three stations live (χ = 1) or exactly
    one live (the paired-wrong sector, χ = 0).  Every excluded strategy is
    caught with sigma equal to 0 or 2 at some setting triple.
    """
    strategies = enumerate_strategies()
    sigmas = {strategy: _sigmas(strategy) for strategy in strategies}
    allowed = [s for s in strategies if sigmas[s] <= {1, 3}]
    excluded = [s for s in strategies if not sigmas[s] <= {1, 3}]
    independent = [has_setting_independent_moduli(s) for s in allowed]
    chi_one = sum(ind and chi(s) == 1 for s, ind in zip(allowed, independent))
    return LemmaReport(
        total=len(strategies),
        admissible=len(allowed),
        chi_one=chi_one,
        chi_zero=len(allowed) - chi_one,
        excluded=len(excluded),
        excluded_with_even_sigma=sum(bool(sigmas[s] & {0, 2}) for s in excluded),
        setting_dependent_excluded=sum(
            not has_setting_independent_moduli(s) for s in excluded
        ),
        all_admissible_moduli_setting_independent=all(independent),
    )


# ---------------------------------------------------------------------------
# Quantum targets
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def heralded_state() -> StatePolynomial:
    """The post-trigger three-station state behind the circuit."""
    return innsbruck_circuit().apply(trigger_select(two_pair_emission()))


@lru_cache(maxsize=None)
def _ideal_tables(conjugate: bool) -> Tuple[OutcomeTable, ...]:
    state = heralded_state()
    return tuple(outcome_distribution(state, triple, conjugate) for triple in TRIPLES)


def quantum_targets(
    visibility: Fraction = Fraction(1), conjugate: bool = False
) -> Tuple[OutcomeTable, ...]:
    """The eight outcome tables at the given fringe visibility."""
    return tuple(add_noise(t, Fraction(visibility)) for t in _ideal_tables(conjugate))


# the stages of heralded_state: (emission, post-trigger, heralded)
DERIVATION = tuple_codec(("two_pair_emission", TERMS), ("post_trigger", TERMS),
                         ("behind_circuit", CLASSIFIED_TERMS))
# (visibility, tables), with the correlations derived from the tables
QUANTUM_TABLES = derived_codec(
    tuple_codec(("visibility", RATIONAL), ("tables", sequence_codec(TABLE))), "correlations",
    lambda value: {t.settings.code: str(correlation_from_table(t)) for t in value[1]},
)


# ---------------------------------------------------------------------------
# Feasibility LP
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FeasibilityProblem:
    """Can a strategy mixture reproduce all eight outcome tables exactly?

    ``slack`` (an exact rational, default zero) loosens each cell equation
    to ``|model − target| <= slack`` for experiment-data ingestion; the
    wrong-mass match stays exact either way.
    """

    targets: Tuple[OutcomeTable, ...]
    slack: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "targets", tuple(self.targets))
        object.__setattr__(self, "slack", Fraction(self.slack))
        if self.slack < 0:
            raise TargetFormatError("slack must be non-negative")
        by_code = {t.settings.code: t for t in self.targets}
        if len(self.targets) != len(TRIPLES) or set(by_code) != {
            t.code for t in TRIPLES
        }:
            raise TargetFormatError("targets must cover all 8 setting triples once")
        masses = {t.wrong_mass for t in self.targets}
        if len(masses) != 1:
            raise TargetFormatError(
                f"wrong mass must be setting-independent, got {sorted(masses)}"
            )

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
    problem to problem, so this is built once and shared, read-only."""
    responses = [
        [strategy.outcomes(triple) for triple in TRIPLES]
        for strategy in right_sector_strategies()
    ]
    keys: List[CertificateKey] = []
    rows: List[Tuple[int, ...]] = []
    for t, triple in enumerate(TRIPLES):
        for outcome in OUTCOMES:
            keys.append((triple.code, outcome_code(outcome)))
            rows.append(tuple(int(r[t] == outcome) for r in responses))
    keys.append(("mass", ""))
    rows.append((1,) * len(responses))
    return tuple(keys), tuple(rows)


def _cell_rows(problem: FeasibilityProblem):
    """LP data: 64 cell rows + 1 mass row over 64 strategy columns."""
    keys, rows = _incidence()
    rhs = [
        problem.table(triple).probabilities[outcome]
        for triple in TRIPLES
        for outcome in OUTCOMES
    ]
    rhs.append(1 - problem.wrong_mass)
    return right_sector_strategies(), rows, rhs, keys


def _with_slack(rows, rhs, slack: Fraction):
    """Relax cell equalities to a ±slack band via surplus columns."""
    n = len(rows[0])
    cells = len(rows) - 1  # mass row stays exact
    wide_rows: List[List[int]] = []
    wide_rhs: List[Fraction] = []
    for i in range(cells):
        upper = list(rows[i]) + [0] * (2 * cells)
        upper[n + i] = 1
        wide_rows.append(upper)
        wide_rhs.append(rhs[i] + slack)
        lower = list(rows[i]) + [0] * (2 * cells)
        lower[n + cells + i] = -1
        wide_rows.append(lower)
        wide_rhs.append(rhs[i] - slack)
    wide_rows.append(list(rows[-1]) + [0] * (2 * cells))
    wide_rhs.append(rhs[-1])
    return wide_rows, wide_rhs


def lhv_feasibility(problem: FeasibilityProblem) -> FeasibilityOutcome:
    """Exact LP over the right-sector strategies plus the aggregated χ=0 mass.

    The wrong mass is matched by construction (it is setting-independent in
    the targets, validated at problem build time, and carried by the
    aggregated χ=0 weight), so the LP only asks whether non-negative
    weights on the 64 all-±1 strategies reproduce every right-event cell.
    """
    strategies, rows, rhs, keys = _cell_rows(problem)
    if problem.slack:
        rows, rhs = _with_slack(rows, rhs, problem.slack)
    result = solve_feasibility(rows, rhs)
    if result.feasible:
        mixture = {s: w for s, w in zip(strategies, result.solution) if w}
        return FeasibilityOutcome(True, mixture, problem.wrong_mass, None, result.iterations,
                                  verify_verdict(problem, True,
                                                 {**mixture, CHI_ZERO: problem.wrong_mass}))
    dual = result.certificate
    if problem.slack:  # the dual covers doubled cell rows; fold the pairs back
        dual = [dual[i] + dual[i + 1] for i in range(0, len(dual) - 1, 2)] + [dual[-1]]
    certificate = evaluate_certificate(problem, dict(zip(keys, dual)))
    return FeasibilityOutcome(False, None, None, certificate, result.iterations,
                              certificate.verified)


def verify_verdict(problem: FeasibilityProblem, feasible: bool, evidence: Mapping) -> bool:
    """The solver-free check that a verdict's evidence proves it.

    Feasible evidence is the whole model: the mixture ``LocalStrategy →
    weight`` and the aggregated χ=0 weight under :data:`CHI_ZERO`.  Its
    strategies are right-sector, its weights non-negative and summing to 1,
    the χ=0 weight is the wrong mass, and every cell is within the slack of
    its target.  Infeasible evidence is the certificate's coefficients; they
    must pass :func:`evaluate_certificate`.
    """
    if not feasible:
        return evaluate_certificate(problem, evidence).verified
    strategies, rows, rhs, _ = _cell_rows(problem)
    if not set(evidence) <= {*strategies, CHI_ZERO} or any(w < 0 for w in evidence.values()):
        return False
    weights = [evidence.get(s, Fraction(0)) for s in strategies]
    return evidence.get(CHI_ZERO) == problem.wrong_mass and sum(evidence.values()) == 1 and all(
        abs(sum(w for w, hit in zip(weights, row) if hit) - target) <= problem.slack
        for row, target in zip(rows[:-1], rhs[:-1])
    )


def evaluate_certificate(
    problem: FeasibilityProblem, coeffs: Mapping[CertificateKey, Fraction]
) -> Certificate:
    """Verify a Farkas functional against the targets, solver-free.  A
    coefficient whose key names no LP row fails the check."""
    _, rows, rhs, keys = _cell_rows(problem)
    y = [coeffs.get(key, Fraction(0)) for key in keys]
    # within the ±slack band, cell i moves y·(Aw) by at most slack·|y_i|
    value = sum((c * b for c, b in zip(y, rhs)), start=Fraction(0))
    value -= problem.slack * sum(abs(c) for c in y[:-1])
    max_column = max(
        sum((c for c, hit in zip(y, column) if hit), start=Fraction(0))
        for column in zip(*rows)
    )
    bound = max_column * (1 - problem.wrong_mass)
    verified = max_column <= 0 < value and set(coeffs) <= set(keys)
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


@dataclass(frozen=True)
class GhzParadoxReport:
    conjugate_convention: bool
    quantum_correlations: Mapping[str, Fraction]
    satisfying_all: int
    satisfying_after_drop: Tuple[int, ...]
    contradiction: bool


def ghz_paradox_check(conjugate: bool = False) -> GhzParadoxReport:
    """The inequality-free argument, restricted to the right sector.

    Verifies the four perfect quantum correlations from the derived state,
    then counts the all-±1 strategies compatible with all four product
    constraints (none) and with each constraint dropped (eight each).
    """
    state = heralded_state()
    correlations = {
        code: correlation(state, SettingTriple.from_code(code), conjugate)
        for code, _ in PERFECT_CORRELATIONS
    }
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


@dataclass(frozen=True)
class CriticalVisibilityResult:
    v_star: Fraction
    feasible_at: Fraction
    infeasible_above: Fraction
    evaluations: Tuple[Evaluation, ...]


CRITICAL_RESULT = record_codec(
    CriticalVisibilityResult,
    *((name, name, RATIONAL) for name in ("v_star", "feasible_at", "infeasible_above")),
    ("evaluations", "evaluations", sequence_codec(record_codec(
        Evaluation, ("visibility", "visibility", RATIONAL), ("feasible", "feasible", BOOL),
    ))),
)


def feasibility_at_visibility(visibility: Fraction) -> FeasibilityOutcome:
    return lhv_feasibility(FeasibilityProblem(quantum_targets(Fraction(visibility))))


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


def critical_visibility(depth: int = 8) -> CriticalVisibilityResult:
    """Exact LP boundary V* over the visibility interval [0, 1].

    :func:`_affine_boundary` finds V* exactly, for any rational boundary,
    from LP solves at V = 0, V = 1 and the root of each Farkas certificate
    (for the quantum targets: 0, 1 and 1/2, so V* = 1/2).

    ``depth`` sets only the width 2^(−depth) of the reported bracket
    ``feasible_at`` ≤ V* < ``infeasible_above``, whose ends are bisection
    midpoints of [0, 1].  ``evaluations`` lists the verdicts at 0 and 1,
    then at each midpoint; the entries after the first two are verdicts
    deduced from the solves, not LP calls:

    * a midpoint above V* is infeasible: the last certificate's columns
      are non-positive for every V, and its value there is positive;
    * a midpoint at or below V* is feasible by convexity: the targets are
      affine in V, and V = 0 and V = V* were both solved feasible.
    """
    if depth < 1:
        raise ValueError("bisection depth must be at least 1")
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
