"""Strategy enumeration, the sigma lemma, the GHZ paradox, and the LP boundary."""

from dataclasses import replace
from fractions import Fraction

import pytest

from ghzsim import lhv
from ghzsim.fock import GhzsimError
from ghzsim.lhv import (
    CERTIFICATE,
    CHI_ZERO,
    CRITICAL_RESULT,
    Certificate,
    FeasibilityOutcome,
    FeasibilityProblem,
    GHZ_REPORT,
    InadmissibleStrategyError,
    LocalStrategy,
    TRIPLES,
    TargetFormatError,
    admissible,
    certificate_from_json,
    chi,
    critical_visibility,
    enumerate_strategies,
    evaluate_certificate,
    feasibility_at_visibility,
    ghz_paradox_check,
    lemma_check,
    lhv_feasibility,
    mermin_certificate,
    mermin_strategy_bound,
    mermin_value,
    quantum_targets,
    right_sector_strategies,
    sigma,
    verify_verdict,
)
from ghzsim.measurement import (
    OUTCOMES,
    OutcomeTable,
    SettingTriple,
    all_setting_triples,
    outcome_code,
    outcome_from_code,
)
from ghzsim.simplex import FeasibilityResult, solve_feasibility


# ---------------------------------------------------------------------------
# sigma and chi
# ---------------------------------------------------------------------------


def test_sigma_values():
    xxx = SettingTriple.from_code("xxx")
    all_live = LocalStrategy((1, 1), (-1, -1), (1, -1))
    assert sigma(all_live, xxx) == 3
    one_live = LocalStrategy((0, 0), (0, 0), (1, -1))
    assert sigma(one_live, xxx) == 1
    all_dead = LocalStrategy((0, 0), (0, 0), (0, 0))
    assert sigma(all_dead, xxx) == 0
    assert not admissible(all_dead)


def test_setting_dependent_modulus_is_caught():
    # live at one of Anton's settings, dead at the other
    anton = LocalStrategy((1, 1), (1, 1), (1, 0))
    sigmas = {sigma(anton, triple) for triple in TRIPLES}
    assert 3 in sigmas and 2 in sigmas
    assert not admissible(anton)
    with pytest.raises(InadmissibleStrategyError):
        chi(anton)


def test_one_dead_station_is_excluded():
    strategy = LocalStrategy((1, 1), (0, 0), (1, -1))
    assert {sigma(strategy, triple) for triple in TRIPLES} == {2}
    assert not admissible(strategy)


def test_chi_values_and_setting_invariance():
    assert chi(LocalStrategy((1, -1), (1, 1), (-1, -1))) == 1
    assert chi(LocalStrategy((1, -1), (0, 0), (0, 0))) == 0
    # chi never depends on which triple you would evaluate outcomes at
    for strategy in enumerate_strategies():
        if admissible(strategy):
            moduli = {
                abs(strategy.outcomes(triple)[0] * strategy.outcomes(triple)[1] * strategy.outcomes(triple)[2])
                for triple in TRIPLES
            }
            assert len(moduli) == 1


def test_lemma_enumeration_counts():
    report = lemma_check()
    assert report.total == 729
    assert report.admissible == 76
    assert report.chi_one == 64
    assert report.chi_zero == 12
    assert report.excluded == 653
    assert report.excluded_with_even_sigma == 653
    assert report.setting_dependent_excluded == 604
    assert report.all_admissible_moduli_setting_independent
    assert report.consistent


def test_every_setting_dependent_strategy_hits_even_sigma():
    for strategy in enumerate_strategies():
        dependent = any(
            abs(a[0]) != abs(a[1]) for a in (strategy.g, strategy.h, strategy.z)
        )
        if dependent:
            assert {0, 2} & {sigma(strategy, triple) for triple in TRIPLES}


# ---------------------------------------------------------------------------
# feasibility LP
# ---------------------------------------------------------------------------


def _strategy_point_targets(strategy: LocalStrategy):
    tables = []
    for triple in all_setting_triples():
        cells = {outcome: Fraction(0) for outcome in OUTCOMES}
        cells[strategy.outcomes(triple)] = Fraction(1)
        tables.append(OutcomeTable(triple, cells, Fraction(0)))
    return tuple(tables)


def test_deterministic_vertex_is_feasible_with_point_mass():
    strategy = right_sector_strategies()[17]
    outcome = lhv_feasibility(FeasibilityProblem(_strategy_point_targets(strategy)))
    assert outcome.feasible
    assert outcome.distribution == {strategy: Fraction(1)}
    assert outcome.chi_zero_weight == 0


def test_quantum_targets_have_uniform_wrong_mass():
    targets = quantum_targets()
    assert {t.wrong_mass for t in targets} == {Fraction(3, 4)}


def test_mismatched_wrong_mass_is_rejected():
    targets = list(quantum_targets())
    bad = OutcomeTable(
        targets[0].settings,
        {o: (Fraction(1, 16) if o[0] == 1 else Fraction(0)) for o in OUTCOMES},
        Fraction(3, 4),
    )
    mangled = [bad if i == 0 else t for i, t in enumerate(targets)]
    changed = OutcomeTable(
        targets[0].settings,
        {o: Fraction(1, 16) for o in OUTCOMES},
        Fraction(1, 2),
    )
    with pytest.raises(TargetFormatError):
        FeasibilityProblem([changed] + list(targets[1:]))
    # coverage must be the 8 distinct triples
    with pytest.raises(TargetFormatError):
        FeasibilityProblem(list(targets[:7]) + [targets[6]])
    FeasibilityProblem(mangled)  # same wrong mass, different cells: well-formed


def test_noiseless_targets_are_infeasible_with_verified_certificate():
    outcome = feasibility_at_visibility(Fraction(1))
    assert not outcome.feasible
    certificate = outcome.certificate
    assert certificate.verified
    assert certificate.max_strategy_column <= 0 < certificate.value
    assert certificate.value > certificate.strategy_bound


def test_observed_visibility_is_infeasible():
    outcome = feasibility_at_visibility(Fraction(13, 20))
    assert not outcome.feasible
    assert outcome.certificate.verified


def test_boundary_visibility_is_feasible_and_splits():
    problem = FeasibilityProblem(quantum_targets(Fraction(1, 2)))
    outcome = lhv_feasibility(problem)
    assert outcome.feasible
    weights = outcome.distribution
    assert all(w > 0 for w in weights.values())
    assert sum(weights.values()) == Fraction(1, 4)  # the right-sector mass
    assert outcome.chi_zero_weight == Fraction(3, 4)
    # the returned mixture reproduces every target cell exactly
    for triple in all_setting_triples():
        table = problem.table(triple)
        for outcome_cell in OUTCOMES:
            model = sum(
                w for s, w in weights.items() if s.outcomes(triple) == outcome_cell
            )
            assert model == table.probabilities[outcome_cell]
    # conditioning on chi = 1 reproduces the conditional right-event sector
    right_mass = Fraction(1, 4)
    for triple in all_setting_triples():
        table = problem.table(triple)
        for outcome_cell in OUTCOMES:
            model = sum(
                w / right_mass
                for s, w in weights.items()
                if s.outcomes(triple) == outcome_cell
            )
            assert model == table.probabilities[outcome_cell] / right_mass


def test_feasibility_monotone_on_grid():
    for v in (Fraction(0), Fraction(1, 8), Fraction(1, 4), Fraction(3, 8), Fraction(1, 2)):
        assert feasibility_at_visibility(v).feasible
    for v in (Fraction(33, 64), Fraction(5, 8), Fraction(3, 4), Fraction(1)):
        assert not feasibility_at_visibility(v).feasible


def test_critical_visibility_is_exactly_one_half():
    result = critical_visibility(depth=6)
    assert result.v_star == Fraction(1, 2)
    assert result.feasible_at == Fraction(1, 2)
    assert Fraction(1, 2) < result.infeasible_above <= Fraction(1, 2) + Fraction(1, 2**6)
    assert dict(result.evaluations)[Fraction(1, 2)] is True


def _interpolated_problem(lam: Fraction) -> FeasibilityProblem:
    """Cell by cell (1 − λ)·t(1/4) + λ·t(1): boundary at λ = 1/3, not dyadic."""
    pairs = zip(quantum_targets(Fraction(1, 4)), quantum_targets(Fraction(1)))
    return FeasibilityProblem(tuple(
        OutcomeTable(
            low.settings,
            {o: (1 - lam) * low.probabilities[o] + lam * high.probabilities[o]
             for o in OUTCOMES},
            (1 - lam) * low.wrong_mass + lam * high.wrong_mass,
        )
        for low, high in pairs
    ))


def test_affine_boundary_is_exact_off_the_dyadic_grid():
    solved = []

    def solve(lam):
        solved.append(lam)
        return lhv_feasibility(_interpolated_problem(lam))

    assert lhv._affine_boundary(solve, _interpolated_problem) == Fraction(1, 3)
    assert len(solved) <= 3
    assert lhv_feasibility(_interpolated_problem(Fraction(1, 3))).feasible
    above = Fraction(1, 3) + Fraction(1, 10**6)
    assert not lhv_feasibility(_interpolated_problem(above)).feasible


def _solve_with(monkeypatch, outcome_at):
    """Route the threshold search's solves through ``outcome_at``; returns
    the list of visibilities it was asked for."""
    calls = []

    def fake(visibility):
        calls.append(visibility)
        return outcome_at(visibility)

    monkeypatch.setattr(lhv, "feasibility_at_visibility", fake)
    return calls


def _tampered(at, **fields):
    """Real outcomes, except that the one at V = ``at`` has ``fields`` set on
    its certificate, or on itself when it is feasible."""
    real = feasibility_at_visibility(at)
    if real.feasible:
        tampered = replace(real, **fields)
    else:
        certificate = replace(real.certificate, **fields)
        tampered = replace(real, certificate=certificate, verified=certificate.verified)
    return lambda v: tampered if v == at else feasibility_at_visibility(v)


@pytest.mark.parametrize("outcome_at,message", [
    (lambda: _tampered(1, verified=False), "does not verify"),
    (lambda: _tampered(Fraction(1, 2), verified=False), "does not verify"),
    (lambda: _tampered(1, value=Fraction(-1)), "no root below"),
    (lambda: _tampered(1, coefficients={("mass", ""): Fraction(1)}),
     "positive at V = 0"),
    (lambda: lambda v: feasibility_at_visibility(Fraction(1)),
     "white noise must be classically reproducible"),
    (lambda: lambda v: feasibility_at_visibility(Fraction(0)),
     "noiseless targets must be infeasible"),
], ids=["unverified-certificate", "unverified-mixture", "root-not-below",
        "positive-intercept", "white-noise", "noiseless"])
def test_threshold_search_guards(monkeypatch, outcome_at, message):
    _solve_with(monkeypatch, outcome_at())
    with pytest.raises(GhzsimError, match=message):
        critical_visibility(8)


def test_threshold_depth_is_checked_before_any_solve(monkeypatch):
    calls = _solve_with(monkeypatch, feasibility_at_visibility)
    with pytest.raises(ValueError):
        critical_visibility(0)
    assert calls == []


def test_deduced_verdicts_agree_with_direct_solves():
    reported = {
        (v, ok)
        for depth in range(1, 5)
        for v, ok in critical_visibility(depth).evaluations
    }
    for v, ok in sorted(reported):
        assert feasibility_at_visibility(v).feasible is ok


def test_slack_relaxation():
    exact = FeasibilityProblem(quantum_targets(Fraction(1)))
    assert not lhv_feasibility(exact).feasible
    # the visibility-1/2 mixture sits within 1/64 of every noiseless cell
    relaxed = FeasibilityProblem(quantum_targets(Fraction(1)), slack=Fraction(1, 64))
    assert lhv_feasibility(relaxed).feasible
    with pytest.raises(TargetFormatError):
        FeasibilityProblem(quantum_targets(Fraction(1)), slack=Fraction(-1))


# Pivot counts and exact values of the Phase-I solve, pinned from the dense
# Fraction tableau that preceded the integer-row one: the same pivot rule on
# the same exact values must take the same path to the same answer.
PINNED_PIVOTS = {
    Fraction(0): 45,
    Fraction(1, 4): 51,
    Fraction(1, 2): 51,
    Fraction(51, 100): 38,
    Fraction(13, 20): 37,
    Fraction(3, 4): 24,
    Fraction(1): 18,
}


@pytest.mark.parametrize("visibility", sorted(PINNED_PIVOTS))
def test_pivot_counts_are_pinned(visibility):
    outcome = feasibility_at_visibility(visibility)
    assert outcome.iterations == PINNED_PIVOTS[visibility]
    assert outcome.feasible == (visibility <= Fraction(1, 2))
    # feasible: the mixture re-checked; infeasible: the certificate re-checked
    assert outcome.verified
    assert outcome.feasible or outcome.certificate.verified


def test_slack_lp_pivot_count_is_pinned():
    problem = FeasibilityProblem(quantum_targets(Fraction(1)), slack=Fraction(1, 64))
    _, rows, rhs, _ = lhv._cell_rows(problem)
    wide_rows, wide_rhs = lhv._with_slack(rows, rhs, problem.slack)
    assert (len(wide_rows), len(wide_rows[0])) == (129, 192)
    outcome = lhv_feasibility(problem)
    assert outcome.feasible and outcome.verified
    assert outcome.iterations == 118


def _lp(visibility):
    _, rows, rhs, _ = lhv._cell_rows(FeasibilityProblem(quantum_targets(visibility)))
    return rows, rhs


def test_exact_solution_at_one_half_is_pinned():
    support = (1, 5, 11, 12, 16, 22, 27, 30, 34, 39, 42, 44, 48, 55, 57, 61)
    solution = [Fraction(1, 64) if j in support else Fraction(0) for j in range(64)]
    assert solve_feasibility(*_lp(Fraction(1, 2))) == FeasibilityResult(
        True, solution, None, Fraction(0), 51
    )


def test_exact_certificate_at_thirteen_twentieths_is_pinned():
    negative = (1, 2, 4, 7, 24, 27, 29, 30, 40, 43, 45, 46, 48, 51, 53, 54)
    certificate = [Fraction(-8) if i in negative else Fraction(1) for i in range(65)]
    assert solve_feasibility(*_lp(Fraction(13, 20))) == FeasibilityResult(
        False, None, certificate, Fraction(27, 40), 37
    )


def test_incidence_is_shared_and_read_only():
    keys, rows = lhv._incidence()
    assert len(keys) == len(rows) == 65 and keys[-1] == ("mass", "")
    assert all(len(row) == 64 and set(row) <= {0, 1} for row in rows)
    assert all(sum(row) == 8 for row in rows[:-1]) and rows[-1] == (1,) * 64
    assert isinstance(rows, tuple) and all(isinstance(row, tuple) for row in rows)
    # the same object backs every problem; only the right-hand side differs
    _, rows_a, rhs_a, keys_a = lhv._cell_rows(FeasibilityProblem(quantum_targets(0)))
    _, rows_b, rhs_b, keys_b = lhv._cell_rows(FeasibilityProblem(quantum_targets(1)))
    assert rows_a is rows_b is rows and keys_a is keys_b is keys
    assert rhs_a != rhs_b
    strategies = right_sector_strategies()
    for (code, cell), row in zip(keys, rows):
        if code != "mass":
            triple = SettingTriple.from_code(code)
            outcome = outcome_from_code(cell)
            assert row == tuple(int(s.outcomes(triple) == outcome) for s in strategies)


def test_feasible_verdicts_are_verified_apart_from_the_solver():
    problem = FeasibilityProblem(quantum_targets(Fraction(1, 2)))
    outcome = lhv_feasibility(problem)
    assert outcome.feasible and outcome.verified
    assert verify_verdict(problem, True, {**outcome.distribution,
                                          CHI_ZERO: outcome.chi_zero_weight})
    strategies = right_sector_strategies()
    weights = [outcome.distribution.get(s, Fraction(0)) for s in strategies]

    def verifies(problem, weights, chi_zero=problem.wrong_mass):
        return verify_verdict(problem, True, {**dict(zip(strategies, weights)),
                                              CHI_ZERO: chi_zero})

    # the χ=0 weight is part of the evidence: it must be there, and be the wrong mass
    assert not verifies(problem, weights, Fraction(1, 7))
    assert not verify_verdict(problem, True, outcome.distribution)

    # moving weight between strategies keeps the mass but breaks the cells
    moved = list(weights)
    j = next(j for j, w in enumerate(weights) if w)
    moved[j], moved[j - 1] = Fraction(0), weights[j - 1] + weights[j]
    assert not verifies(problem, moved)
    # a negative weight or a wrong right-event mass is rejected outright
    negative = list(weights)
    negative[j], negative[j - 1] = -weights[j], weights[j - 1] + 2 * weights[j]
    assert not verifies(problem, negative)
    assert not verifies(problem, [2 * w for w in weights])
    # within a slack the same move can pass: cells may miss by up to the slack
    loose = FeasibilityProblem(problem.targets, slack=Fraction(1, 64))
    assert verifies(loose, moved)
    # at slack 1 every cell passes, so each of the other rules is seen alone:
    # the sign, the mass, and the right sector
    wide = FeasibilityProblem(problem.targets, slack=Fraction(1))
    assert verifies(wide, moved)
    assert not verifies(wide, negative)
    assert not verifies(wide, [2 * w for w in weights])
    outside = {**dict(zip(strategies, moved)), CHI_ZERO: problem.wrong_mass}
    outside[LocalStrategy((0, 0), (0, 0), (1, 1))] = outside.pop(strategies[j - 1])
    assert not verify_verdict(wide, True, outside)


# visibilities on both sides of 1/2 at three slacks: (13/20, 0), (1, 0) and
# (1, 1/100) are infeasible, the rest feasible, (13/20, 1) among them
SLACK_GRID = [(v, s) for v in (Fraction(1, 2), Fraction(13, 20), Fraction(1))
              for s in (Fraction(0), Fraction(1, 100), Fraction(1))]


def test_certificates_are_checked_against_the_slack_they_claim():
    problems = [FeasibilityProblem(quantum_targets(v), slack=s) for v, s in SLACK_GRID]
    outcomes = [lhv_feasibility(problem) for problem in problems]
    assert all(outcome.verified for outcome in outcomes)
    feasible = [p for p, outcome in zip(problems, outcomes) if outcome.feasible]
    certificates = [o.certificate.coefficients for o in outcomes if not o.feasible]
    assert FeasibilityProblem(quantum_targets(Fraction(13, 20)), slack=1) in feasible
    assert len(certificates) == 3
    # a certificate that held at a smaller slack must not prove a feasible
    # problem infeasible
    for coefficients in certificates:
        for problem in feasible:
            assert not verify_verdict(problem, False, coefficients)


def test_slack_certificate_value_subtracts_the_band():
    problem = FeasibilityProblem(quantum_targets(Fraction(1)), slack=Fraction(1, 100))
    outcome = lhv_feasibility(problem)
    assert not outcome.feasible and outcome.verified and outcome.iterations == 47
    # y·b = 9/4 on the exact targets; the band of ±1/100 costs Σ|y_i|/100
    coefficients = outcome.certificate.coefficients
    band = sum(abs(c) for key, c in coefficients.items() if key != ("mass", ""))
    assert outcome.certificate.value == Fraction(49, 100) == Fraction(9, 4) - band / 100
    exact = evaluate_certificate(FeasibilityProblem(problem.targets), coefficients)
    assert exact.value == Fraction(9, 4) and exact.verified


def test_certificate_keys_that_name_no_row_fail_the_check():
    problem = FeasibilityProblem(quantum_targets(Fraction(1)))
    outcome = lhv_feasibility(problem)
    assert not outcome.feasible and verify_verdict(problem, False,
                                                   outcome.certificate.coefficients)
    foreign = {**outcome.certificate.coefficients,
               ("xxx", "+1,+1,+2"): Fraction(1), ("nope", "x"): Fraction(1)}
    assert not verify_verdict(problem, False, foreign)
    assert not evaluate_certificate(problem, foreign).verified


@pytest.mark.parametrize("visibility,evidence", [
    (Fraction(1, 2), {"solution": [Fraction(1, 256)] * 64}),  # right mass, wrong cells
    (Fraction(1), {"certificate": [Fraction(0)] * 65}),  # value 0 proves nothing
])
def test_solver_evidence_that_fails_the_check_is_reported_unverified(
    monkeypatch, visibility, evidence
):
    real = solve_feasibility(*_lp(visibility))
    monkeypatch.setattr(lhv, "solve_feasibility", lambda rows, rhs: replace(real, **evidence))
    outcome = feasibility_at_visibility(visibility)
    assert outcome.feasible == real.feasible and not outcome.verified


def test_outcome_built_positionally_defaults_to_unverified():
    outcome = FeasibilityOutcome(True, {}, Fraction(0), None, 0)
    assert outcome.verified is False


# ---------------------------------------------------------------------------
# Mermin combination and certificates
# ---------------------------------------------------------------------------


def test_mermin_combination_quantum_versus_deterministic():
    assert mermin_strategy_bound() == 2
    assert mermin_value(quantum_targets(Fraction(1))) == 4
    assert mermin_value(quantum_targets(Fraction(1, 2))) == 2
    assert mermin_value(quantum_targets(Fraction(13, 20))) == Fraction(13, 5)


def test_mermin_functional_is_a_farkas_certificate_above_threshold():
    for v in (Fraction(13, 20), Fraction(3, 4), Fraction(1)):
        certificate = mermin_certificate(FeasibilityProblem(quantum_targets(v)))
        assert certificate.verified
        # value R(4V - 2), bound 0: the deterministic combination never exceeds 2
        assert certificate.value == Fraction(1, 4) * (4 * v - 2)
        assert certificate.max_strategy_column == 0
    at_boundary = mermin_certificate(FeasibilityProblem(quantum_targets(Fraction(1, 2))))
    assert not at_boundary.verified  # value 0: no violation at the threshold


# the Mermin functional's coefficients, pinned: per triple, the
# sign of each cell in OUTCOMES order (+1,+1,+1 first); −2 on the mass row
MERMIN_COEFFICIENT_SIGNS = {
    "xxx": "+--+-++-",
    "xyy": "-++-+--+",
    "yxy": "-++-+--+",
    "yyx": "-++-+--+",
}


@pytest.mark.parametrize("visibility, value", [
    (Fraction(13, 20), Fraction(3, 20)),
    (Fraction(1), Fraction(1, 2)),
])
def test_mermin_certificate_is_pinned(visibility, value):
    certificate = mermin_certificate(FeasibilityProblem(quantum_targets(visibility)))
    expected = [(("mass", ""), Fraction(-2))] + [
        ((code, outcome_code(outcome)), Fraction(1 if sign == "+" else -1))
        for code, signs in MERMIN_COEFFICIENT_SIGNS.items()
        for outcome, sign in zip(OUTCOMES, signs)
    ]
    assert list(certificate.coefficients.items()) == expected
    assert all(type(c) is Fraction for c in certificate.coefficients.values())
    assert certificate.value == value
    assert (certificate.strategy_bound, certificate.max_strategy_column) == (0, 0)
    assert certificate.verified


def test_report_json_roundtrips():
    ghz = ghz_paradox_check()
    assert GHZ_REPORT[1](GHZ_REPORT[0](ghz)) == ghz
    result = critical_visibility(depth=2)
    assert CRITICAL_RESULT[1](CRITICAL_RESULT[0](result)) == result


def test_certificate_json_roundtrip():
    outcome = feasibility_at_visibility(Fraction(1))
    payload = CERTIFICATE[0](outcome.certificate)
    coeffs = certificate_from_json(payload)
    rebuilt = evaluate_certificate(
        FeasibilityProblem(quantum_targets(Fraction(1))), coeffs
    )
    assert isinstance(rebuilt, Certificate)
    assert rebuilt.value == outcome.certificate.value
    assert rebuilt.verified


# ---------------------------------------------------------------------------
# GHZ paradox
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("conjugate", [False, True])
def test_ghz_paradox_counts(conjugate):
    report = ghz_paradox_check(conjugate)
    assert report.satisfying_all == 0
    assert report.satisfying_after_drop == (8, 8, 8, 8)
    assert report.contradiction
    assert report.quantum_correlations["xxx"] == 1
    assert report.quantum_correlations["xyy"] == -1
    assert report.quantum_correlations["yxy"] == -1
    assert report.quantum_correlations["yyx"] == -1
