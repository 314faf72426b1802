"""Strategy enumeration, the sigma lemma, the GHZ paradox, and the LP boundary."""

import hashlib
import json
import os
import pickle
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from operator import itemgetter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ghzsim import lhv, measurement
from ghzsim.fock import GhzsimError, over_one_denominator
from ghzsim.lhv import (
    CERTIFICATE,
    CHI_ZERO,
    CRITICAL_RESULT,
    Certificate,
    FEASIBILITY_VERDICT,
    FeasibilityOutcome,
    FeasibilityProblem,
    GHZ_REPORT,
    InadmissibleStrategyError,
    LemmaReport,
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
    AnalyzerSetting,
    OUTCOMES,
    OutcomeTable,
    SettingTriple,
    all_setting_triples,
    outcome_code,
)
from ghzsim.simplex import FeasibilityResult, solve_feasibility, verify_farkas


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


def reference_sigmas(strategy):
    """The sigma values over all eight triples as a set, as first written:
    each station adds either of its moduli."""
    g, h, z = ({abs(v) for v in values} for values in (strategy.g, strategy.h, strategy.z))
    return {a + b + c for a in g for b in h for c in z}


def reference_lemma_check():
    """The set-based audit that the mask audit replaced."""
    def independent(s):
        return all(abs(a[0]) == abs(a[1]) for a in (s.g, s.h, s.z))

    strategies = enumerate_strategies()
    sigmas = list(map(reference_sigmas, strategies))
    allowed = [s for s, values in zip(strategies, sigmas) if values <= {1, 3}]
    excluded = [(s, values) for s, values in zip(strategies, sigmas) if not values <= {1, 3}]
    chi_one = sum(independent(s) and all(abs(a[0]) == 1 for a in (s.g, s.h, s.z))
                  for s in allowed)
    return LemmaReport(
        total=len(strategies),
        admissible=len(allowed),
        chi_one=chi_one,
        chi_zero=len(allowed) - chi_one,
        excluded=len(excluded),
        excluded_with_even_sigma=sum(bool(values & {0, 2}) for _, values in excluded),
        setting_dependent_excluded=sum(not independent(s) for s, _ in excluded),
        all_admissible_moduli_setting_independent=all(map(independent, allowed)),
    )


def test_mask_audit_equals_the_set_based_reference_field_by_field():
    report, reference = lemma_check(), reference_lemma_check()
    for field, expected in zip(LemmaReport._fields, (729, 76, 64, 12, 653, 653, 604, True)):
        assert getattr(report, field) == getattr(reference, field) == expected, field


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


# each hand-built report breaks one clause of ``consistent`` and keeps the others
@pytest.mark.parametrize("field,value", [
    ("chi_zero", 13),  # admissible is no longer chi_one + chi_zero
    ("total", 730),  # admissible + excluded is no longer total
    ("excluded_with_even_sigma", 652),  # an excluded strategy without even sigma
    ("all_admissible_moduli_setting_independent", False),
])
def test_a_report_that_breaks_one_clause_is_not_consistent(field, value):
    fields = dict(zip(LemmaReport._fields, lemma_check()._values))
    assert LemmaReport(**fields).consistent
    fields[field] = value
    assert not LemmaReport(**fields).consistent


def test_strategies_are_enumerated_once():
    # the right sector is the chi = 1 slice of the one enumeration, in its order
    strategies = enumerate_strategies()
    assert strategies is enumerate_strategies()
    chi_one = tuple(s for s in strategies if all(abs(v) == 1 for v in (*s.g, *s.h, *s.z)))
    right = right_sector_strategies()
    assert right == chi_one and all(a is b for a, b in zip(right, chi_one))


def test_sigmas_sum_per_station_moduli():
    # bit s of _sigmas's mask is set exactly when sigma is s at some triple
    for strategy in enumerate_strategies():
        mask = lhv._sigmas(strategy)
        bits = {s for s in range(mask.bit_length()) if mask >> s & 1}
        assert bits == {sigma(strategy, triple) for triple in TRIPLES}
        assert bits == reference_sigmas(strategy)
        assert admissible(strategy) == (bits <= {1, 3})


def test_outcomes_read_each_station_at_its_setting():
    position = {setting: index for index, setting in enumerate(AnalyzerSetting)}
    for strategy in enumerate_strategies():
        for triple in TRIPLES:
            assert strategy.outcomes(triple) == (strategy.g[position[triple.g]],
                                                 strategy.h[position[triple.h]],
                                                 strategy.z[position[triple.z]])


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


def _mixture_tables(mixture, wrong_mass):
    """The tables that the right-sector ``mixture`` (strategy → weight) reproduces."""
    tables = []
    for triple in all_setting_triples():
        cells = {outcome: Fraction(0) for outcome in OUTCOMES}
        for strategy, weight in mixture.items():
            cells[strategy.outcomes(triple)] += weight
        tables.append(OutcomeTable(triple, cells, wrong_mass))
    return tuple(tables)


def test_deterministic_vertex_is_feasible_with_point_mass():
    strategy = right_sector_strategies()[17]
    outcome = lhv_feasibility(FeasibilityProblem(_mixture_tables({strategy: 1}, Fraction(0))))
    assert outcome.feasible
    assert outcome.distribution == {strategy: Fraction(1)}
    assert outcome.chi_zero_weight == 0


def test_quantum_targets_have_uniform_wrong_mass():
    targets = quantum_targets()
    assert {t.wrong_mass for t in targets} == {Fraction(3, 4)}


def test_quantum_targets_check_the_visibility_once_as_add_noise_does(monkeypatch):
    ideal = quantum_targets()
    out_of_range = measurement.VisibilityRangeError
    for bad, error in ((0.5, TypeError), (True, TypeError), (Fraction(3, 2), out_of_range),
                       (Fraction(-1, 3), out_of_range)):
        with pytest.raises(error) as raised:
            quantum_targets(bad)
        with pytest.raises(error) as reference:
            measurement.add_noise(ideal[0], bad)
        assert str(raised.value) == str(reference.value)
    checks = []
    monkeypatch.setattr(measurement, "exact", lambda values: checks.append(values) or True)
    noisy = quantum_targets(Fraction(13, 20))
    assert len(checks) == 1
    assert noisy == tuple(measurement.add_noise(t, Fraction(13, 20)) for t in ideal)


@pytest.mark.parametrize("conjugate", ["no", None, 1])
def test_quantum_targets_refuse_a_conjugate_that_is_not_a_bool(conjugate):
    # the ideal tables are cached by conjugate, where an untyped key 1 finds True's entry
    from ghzsim.measurement import _ideal_tables

    quantum_targets(conjugate=True)
    before = (_ideal_tables.cache_info().currsize, measurement._analyzer.cache_info().currsize)
    with pytest.raises(TypeError, match="quantum_targets: conjugate must be a bool"):
        quantum_targets(conjugate=conjugate)
    with pytest.raises(TypeError, match="conjugate must be a bool"):
        ghz_paradox_check(conjugate)
    assert (_ideal_tables.cache_info().currsize,
            measurement._analyzer.cache_info().currsize) == before


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


def test_threshold_depth_is_bounded_before_any_solve(monkeypatch):
    # the evaluations grow as depth^2, so a depth past the maximum is refused
    # before the search starts; the maximum itself runs
    result = critical_visibility(lhv.MAX_DEPTH)
    assert len(result.evaluations) == lhv.MAX_DEPTH + 2
    assert result.infeasible_above - result.feasible_at == Fraction(1, 2**lhv.MAX_DEPTH)
    calls = _solve_with(monkeypatch, feasibility_at_visibility)
    with pytest.raises(ValueError, match=f"from 1 to {lhv.MAX_DEPTH}, got {lhv.MAX_DEPTH + 1}"):
        critical_visibility(lhv.MAX_DEPTH + 1)
    assert calls == []


@pytest.mark.parametrize("depth", [2.5, 8.0, True, Fraction(8), "8", None],
                         ids=["float", "whole float", "bool", "fraction", "text", "none"])
def test_threshold_depth_must_be_an_int_before_any_solve(monkeypatch, depth):
    calls = _solve_with(monkeypatch, feasibility_at_visibility)
    with pytest.raises(TypeError, match="bisection depth must be an int"):
        critical_visibility(depth)
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


def test_no_float_enters_a_verdict():
    # 0.65 is 5854679515581645/2^53 as a binary float: not the visibility asked for
    with pytest.raises(TypeError):
        quantum_targets(0.65)
    with pytest.raises(TypeError):
        feasibility_at_visibility(0.5)
    with pytest.raises(TypeError):
        FeasibilityProblem(quantum_targets(Fraction(1)), slack=0.01)
    assert FeasibilityProblem(quantum_targets(1), slack=0) == FeasibilityProblem(
        quantum_targets(Fraction(1)), slack=Fraction(0)
    )


def test_a_bool_is_no_slack():
    # True is an int, and so a Rational: it once gave slack 1
    for flag in (True, False):
        with pytest.raises(TypeError, match="slack must be an exact rational"):
            FeasibilityProblem(quantum_targets(Fraction(1)), slack=flag)


# Pivot counts of each verdict's LP over strategy orbits (see
# test_orbit_lp_of_the_quantum_targets): 65 rows by 1 column at V = 0, where
# every cell is equal, and 65 by 4 above it
PINNED_PIVOTS = {
    Fraction(0): 1,
    Fraction(1, 4): 3,
    Fraction(1, 2): 3,
    Fraction(51, 100): 2,
    Fraction(13, 20): 2,
    Fraction(3, 4): 2,
    Fraction(1): 2,
}
# The same verdicts as the kernel solves them on the full 65 x 64 rows, pinned
# from the dense Fraction tableau that preceded the integer-row one: the same
# pivot rule on the same exact values must take the same path to the same answer.
FULL_LP_PIVOTS = {
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


@pytest.mark.parametrize("visibility", sorted(FULL_LP_PIVOTS))
def test_full_lp_pivot_counts_are_pinned(visibility):
    result = solve_feasibility(*_lp(visibility))
    assert result.iterations == FULL_LP_PIVOTS[visibility]
    assert result.feasible == feasibility_at_visibility(visibility).feasible


def test_slack_lp_pivot_count_is_pinned():
    problem = FeasibilityProblem(quantum_targets(Fraction(1)), slack=Fraction(1, 64))
    outcome = lhv_feasibility(problem)
    assert outcome.feasible and outcome.verified
    # handed 129 rows by 4 + 2·5 columns (5 cell classes share surplus pairs),
    # the kernel pivots on the 11 distinct ones
    assert outcome.iterations == 3
    # the kernel on the full rows: the same verdict after 118 pivots
    _, rows, rhs, _ = lhv._cell_rows(problem)
    wide_rows, wide_rhs = lhv._with_slack(rows, rhs, problem.slack)
    assert (len(wide_rows), len(wide_rows[0])) == (129, 192)
    full = solve_feasibility(wide_rows, wide_rhs)
    assert full.feasible and full.iterations == 118


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


# Visibilities with 2- to 6-digit denominators, as the benchmark draws them:
# pivot count, Phase-I gap and the sha256 of the space-joined solution (if
# feasible) or certificate, pinned from the kernel that reduced every row by
# its gcd after each elimination.
LARGE_DENOMINATOR_PINS = {
    Fraction(19, 41): (48, Fraction(0),
                       "2f435b189dfc0440d5a80cd2d7c8285dcfabbaf51c68c193b58d9b83c15fcc1c"),
    Fraction(259, 409): (37, Fraction(981, 1636),
                         "faecd14f9738edd6ac4fdf8dccdd4ad1b31baaf079ed2adb677876a0a62b40f9"),
    Fraction(8343, 40438): (48, Fraction(0),
                            "c5e4e4b1760a6cc44ce3566861e9b5424ea3565820cdb5dcda46fd74ad51e9a5"),
    Fraction(254623, 263008): (18, Fraction(1108071, 526016),
                               "faecd14f9738edd6ac4fdf8dccdd4ad1b31baaf079ed2adb677876a0a62b40f9"),
}


@pytest.mark.parametrize("visibility", sorted(LARGE_DENOMINATOR_PINS))
def test_large_denominator_lps_are_pinned(visibility):
    iterations, gap, digest = LARGE_DENOMINATOR_PINS[visibility]
    result = solve_feasibility(*_lp(visibility))
    assert result.feasible == (visibility <= Fraction(1, 2))
    assert (result.iterations, result.infeasibility_gap) == (iterations, gap)
    values = result.solution if result.feasible else result.certificate
    assert hashlib.sha256(" ".join(map(str, values)).encode()).hexdigest() == digest


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
    # read off the bit layout, they are the rows and keys the outcomes give
    assert (keys, rows) == _incidence_from_outcomes()


def _incidence_from_outcomes():
    """The LP's keys and rows read from ``LocalStrategy.outcomes``, one call per
    strategy and triple."""
    responses = [[s.outcomes(triple) for triple in TRIPLES] for s in right_sector_strategies()]
    keys, rows = [], []
    for t, triple in enumerate(TRIPLES):
        for outcome in OUTCOMES:
            keys.append((triple.code, outcome_code(outcome)))
            rows.append(tuple(int(r[t] == outcome) for r in responses))
    keys.append(("mass", ""))
    rows.append((1,) * len(responses))
    return tuple(keys), tuple(rows)


# ---------------------------------------------------------------------------
# The orbit LP and its lifted evidence
# ---------------------------------------------------------------------------


def test_candidate_maps_keep_the_incidence_and_form_a_group():
    maps = lhv._candidate_maps()
    assert len(maps) == len(set(maps)) == 384
    _, rows = lhv._incidence()
    for cells, strategies in maps:
        assert sorted(cells) == sorted(strategies) == list(range(64))
        # strategy s gives cell c exactly when its image gives the image cell
        permuted = itemgetter(*strategies)
        assert all(permuted(rows[cells[c]]) == rows[c] for c in range(64))
    # closed under composition, so the maps that fix a table form a group
    known = set(maps)
    for first in maps[::11]:
        for second in maps:
            assert tuple(bytes(b[i] for i in a) for a, b in zip(first, second)) in known


def test_candidate_maps_are_built_on_the_first_solve_not_at_import():
    code = ("from fractions import Fraction; from ghzsim import lhv; "
            "lhv.quantum_targets(Fraction(1, 2)); "
            "before = lhv._candidate_maps.cache_info().currsize; "
            "lhv.feasibility_at_visibility(Fraction(1, 2)); "
            "print(before, lhv._candidate_maps.cache_info().currsize)")
    src = str(Path(lhv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "1"]


def _orbit_lp_of(problem):
    """(cell orbits, strategy orbits, rows) of the problem's orbit LP; the cell
    orbits are computed here, since the solver leaves them to the kernel."""
    _, _, rhs, _ = lhv._cell_rows(problem)
    cells = lhv._orbits([cell_map for cell_map, _ in _stabiliser(problem)])
    return (cells, *lhv._orbit_lp(lhv._partition(rhs[:-1])))


def _stabiliser(problem):
    """The candidate maps that fix every target cell, compared as values."""
    _, _, rhs, _ = lhv._cell_rows(problem)
    return [m for m in lhv._candidate_maps() if all(rhs[m[0][c]] == rhs[c] for c in range(64))]


def test_orbit_lp_of_the_quantum_targets():
    _, rows = lhv._incidence()
    for visibility in (Fraction(1, 4), Fraction(13, 20), Fraction(1)):
        problem = FeasibilityProblem(quantum_targets(visibility))
        assert len(_stabiliser(problem)) == 48
        cells, strategies, reduced = _orbit_lp_of(problem)
        assert [len(orbit) for orbit in cells] == [4, 4, 24, 12, 12, 8]
        assert [len(orbit) for orbit in strategies] == [8, 24, 24, 8]
        assert len(reduced) == 65 and reduced[-1] == (8, 24, 24, 8)  # mass row: orbit sizes
        # an entry counts the members of the strategy orbit that give the row's
        # cell, and every cell of one orbit gives the same counts
        for c, row in enumerate(reduced[:-1]):
            assert row == tuple(sum(rows[c][s] for s in members) for members in strategies)
        assert all(len({reduced[c] for c in orbit}) == 1 for orbit in cells)
    # at V = 0 every cell is equal: all 384 maps fix the targets
    problem = FeasibilityProblem(quantum_targets(0))
    assert len(_stabiliser(problem)) == 384
    cells, strategies, _ = _orbit_lp_of(problem)
    assert [len(orbit) for orbit in cells] == [8, 24, 24, 8]
    assert strategies == (tuple(range(64)),)


@pytest.mark.parametrize("slack,shape", [(Fraction(0), (65, 4)), (Fraction(1, 64), (129, 14))])
def test_the_kernel_is_handed_every_row_over_the_strategy_orbits(monkeypatch, slack, shape):
    seen = []

    def recorded(rows, rhs):
        seen.append((len(rows), len(rows[0])))
        # the integer-scaled LP: every entry and every right-hand side an int
        assert {type(v) for row in rows for v in row} == {type(b) for b in rhs} == {int}
        return solve_feasibility(rows, rhs)

    monkeypatch.setattr(lhv, "solve_feasibility", recorded)
    outcome = lhv_feasibility(FeasibilityProblem(quantum_targets(Fraction(1)), slack=slack))
    assert outcome.verified and seen == [shape]


def _moved(tables, moves):
    """``tables`` with mass ``delta`` moved from cell ``a`` to cell ``b`` of
    table ``i``, for each ``(i, a, b, delta)`` of ``moves``."""
    tables = list(tables)
    for i, a, b, delta in moves:
        cells = dict(tables[i].probabilities)
        cells[a] -= delta
        cells[b] += delta
        tables[i] = OutcomeTable(tables[i].settings, cells, tables[i].wrong_mass)
    return tables


# Two problems whose stabiliser is trivial, so that the orbit LP is the full
# LP: (feasible, pivots, sha256 of the FEASIBILITY_VERDICT JSON), pinned from
# the full-LP solve that preceded the orbit LP
ASYMMETRIC_PROBLEMS = {
    # the V = 3/5 tables with (i + 1)/1000 moved from cell i to cell i + 1 of table i
    "moved cells": (lambda: (Fraction(3, 5), FeasibilityProblem(_moved(
        quantum_targets(Fraction(3, 5)),
        [(i, OUTCOMES[i], OUTCOMES[(i + 1) % 8], Fraction(i + 1, 1000)) for i in range(8)]))),
        False, 30, "d33b760dcb84867c78909c8d7816791aa6763eb9bbf831ae553436b4d0e317c2"),
    # strategy j of the right sector weighted (j + 1)/8320
    "distinct weights": (lambda: (None, FeasibilityProblem(_mixture_tables(
        {s: Fraction(j + 1, 4 * 2080) for j, s in enumerate(right_sector_strategies())},
        Fraction(3, 4)))),
        True, 63, "e5d4d24904e23e114918df9f6c22cbb1397547f5d1f1444c68d085cfdd76b6e2"),
}


@pytest.mark.parametrize("name", sorted(ASYMMETRIC_PROBLEMS))
def test_a_trivial_stabiliser_keeps_the_full_lp(name):
    build, feasible, pivots, digest = ASYMMETRIC_PROBLEMS[name]
    visibility, problem = build()
    cells, strategies, reduced = _orbit_lp_of(problem)
    _, rows, _, _ = lhv._cell_rows(problem)
    assert len(_stabiliser(problem)) == 1
    assert reduced == rows and len(cells) == len(strategies) == 64
    outcome = lhv_feasibility(problem)
    assert (outcome.feasible, outcome.verified, outcome.iterations) == (feasible, True, pivots)
    payload = FEASIBILITY_VERDICT[0]((visibility, outcome.feasible, outcome.chi_zero_weight,
                                      outcome.distribution, outcome.certificate))
    assert hashlib.sha256(json.dumps(payload).encode()).hexdigest() == digest


@st.composite
def _problems(draw):
    """Quantum or random-mixture targets at a random slack, with mass moved
    between two cells of up to three tables, which breaks their symmetry."""
    if draw(st.booleans()):
        tables = quantum_targets(draw(st.fractions(0, 1, max_denominator=10**4)))
    else:
        counts = draw(st.lists(st.integers(0, 4), min_size=64, max_size=64).filter(any))
        right = draw(st.fractions(Fraction(1, 16), 1, max_denominator=64))
        tables = _mixture_tables({s: right * n / sum(counts)
                                  for s, n in zip(right_sector_strategies(), counts)}, 1 - right)
    for _ in range(draw(st.integers(0, 3))):
        i, a, b = draw(st.integers(0, 7)), *draw(st.lists(st.sampled_from(OUTCOMES),
                                                          min_size=2, max_size=2))
        share = draw(st.fractions(0, 1, max_denominator=20))
        tables = _moved(tables, [(i, a, b, tables[i].probabilities[a] * share)])
    slack = draw(st.one_of(st.just(Fraction(0)),
                           st.fractions(0, Fraction(1, 100), max_denominator=1000)))
    return FeasibilityProblem(tables, slack=slack)


@settings(max_examples=30, deadline=None)
@given(_problems(), st.data())
def test_the_orbit_lp_has_the_full_lps_verdict_and_lifted_evidence(problem, data):
    outcome = lhv_feasibility(problem)
    _, rows, rhs, keys = lhv._cell_rows(problem)
    full = (lhv._with_slack(rows, rhs, problem.slack) if problem.slack else (rows, rhs))
    assert outcome.feasible == solve_feasibility(*full).feasible
    assert outcome.verified
    if outcome.feasible:
        assert verify_verdict(problem, True, {**outcome.distribution,
                                              CHI_ZERO: outcome.chi_zero_weight})
        return
    coefficients = outcome.certificate.coefficients
    assert list(coefficients) == list(keys)  # every row, in row order
    assert verify_verdict(problem, False, coefficients)
    assert verify_farkas(rows, rhs, [coefficients[key] for key in keys])
    cells = _orbit_lp_of(problem)[0]
    _assert_constant_on(cells, [coefficients[key] for key in keys])
    # the check reads every cell, not one per orbit: raising one cell's
    # coefficient past every column's size makes its strategies' columns positive
    cell = data.draw(st.sampled_from(data.draw(st.sampled_from(cells))))
    changed = dict(coefficients)
    changed[keys[cell]] += 1 + sum(map(abs, coefficients.values()))
    assert not evaluate_certificate(problem, changed).verified


@settings(max_examples=30, deadline=None)
@given(_problems())
def test_the_integer_hand_off_is_the_fraction_lp_times_its_scale(problem):
    targets, e = problem.integer_targets
    _, _, rhs, _ = lhv._cell_rows(problem)
    assert (list(targets), e) == over_one_denominator(rhs)
    # the integer forms are no fields: a pickle round trip rebuilds equal ones
    copy = pickle.loads(pickle.dumps(problem))
    assert copy == problem and copy.integer_targets == problem.integer_targets
    assert [t.integer_form for t in copy.targets] == [t.integer_form for t in problem.targets]
    # the orbit LP as handed to the kernel, and the same LP on the Fraction targets
    columns, rows, scaled, scale = lhv._orbit_system(problem)
    orbits, orbit_rows = lhv._orbit_lp(lhv._partition(rhs[:-1]))
    fraction_lp = (lhv._with_slack(orbit_rows, rhs, problem.slack) if problem.slack
                   else (orbit_rows, rhs))
    assert all(type(b) is int for b in scaled)
    assert columns == orbits and rows == fraction_lp[0]
    assert scaled == [scale * b for b in fraction_lp[1]]
    handed, exact = solve_feasibility(rows, scaled), solve_feasibility(*fraction_lp)
    assert (handed.feasible, handed.iterations, handed.certificate) == (
        exact.feasible, exact.iterations, exact.certificate)
    if exact.feasible:
        assert handed.solution == [scale * x for x in exact.solution]


def _assert_constant_on(cells, coefficients):
    """The kernel gives every copy of a merged row the same share of its dual,
    so an infeasible certificate takes one coefficient across each cell orbit."""
    assert all(len({coefficients[c] for c in orbit}) == 1 for orbit in cells)


@pytest.mark.parametrize("slack", [Fraction(0), Fraction(1, 100)])
@pytest.mark.parametrize("visibility", [Fraction(13, 20), Fraction(1)])
def test_certificates_are_constant_on_cell_orbits(visibility, slack):
    problem = FeasibilityProblem(quantum_targets(visibility), slack=slack)
    outcome = lhv_feasibility(problem)
    # a verdict takes a slack below (V − 1/2)/32, so 1/100 makes V = 13/20 feasible
    assert outcome.feasible == (slack >= (visibility - Fraction(1, 2)) / 32)
    if not outcome.feasible:
        _, _, _, keys = lhv._cell_rows(problem)
        cells = _orbit_lp_of(problem)[0]
        assert len(cells) == 6
        _assert_constant_on(cells, [outcome.certificate.coefficients[key] for key in keys])
    assert outcome.verified


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
    assert not outcome.feasible and outcome.verified and outcome.iterations == 2
    # y·b = 9/4 on the exact targets; the band of ±1/100 costs Σ|y_i|/100
    coefficients = outcome.certificate.coefficients
    band = sum(abs(c) for key, c in coefficients.items() if key != ("mass", ""))
    assert outcome.certificate.value == Fraction(49, 100) == Fraction(9, 4) - band / 100
    exact = evaluate_certificate(FeasibilityProblem(problem.targets), coefficients)
    assert exact.value == Fraction(9, 4) and exact.verified
    # the kernel on the full rows: infeasible after 47 pivots, and its folded
    # certificate is worth 49/100 as well
    _, rows, rhs, keys = lhv._cell_rows(problem)
    full = solve_feasibility(*lhv._with_slack(rows, rhs, problem.slack))
    assert not full.feasible and full.iterations == 47
    dual = full.certificate  # each cell's two band rows summed
    folded = [dual[i] + dual[i + 1] for i in range(0, len(dual) - 1, 2)] + [dual[-1]]
    folded = evaluate_certificate(problem, dict(zip(keys, folded)))
    assert folded.verified and folded.value == Fraction(49, 100)


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
    monkeypatch.setattr(lhv, "solve_feasibility", lambda rows, rhs: real._replace(**evidence))
    outcome = feasibility_at_visibility(visibility)
    assert outcome.feasible == real.feasible and not outcome.verified


def test_traced_layers_stay_module_attributes_that_lhv_calls_through(monkeypatch):
    # a benchmark traces these layers by replacing the module attributes
    calls = Counter()

    def counted(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    names = ("solve_feasibility", "evaluate_certificate", "quantum_targets",
             "feasibility_at_visibility", "lemma_check")
    for name in names:
        monkeypatch.setattr(lhv, name, counted(name, getattr(lhv, name)))
    assert critical_visibility(2).v_star == Fraction(1, 2)
    lhv.lemma_check()
    # solves at 0, 1 and 1/2; the targets once more at the origin; the
    # certificate from V = 1 once in its verdict and once for its intercept
    assert calls == {"feasibility_at_visibility": 3, "solve_feasibility": 3,
                     "quantum_targets": 4, "evaluate_certificate": 2, "lemma_check": 1}


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
