"""Acceptance suite.

One test per acceptance criterion; each prints a single PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -v -s``).  Probabilistic
checks use 3-sigma bands with a fixed seed; everything else is exact
rational equality, and each criterion asserts its runtime budget.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from ghzsim.circuit import innsbruck_circuit
from ghzsim.events import (
    REASON_UNPAIRED,
    PairingViolationError,
    filter_loss_demo,
    pairing_report,
    sample_events,
    trigger_select,
    two_pair_emission,
)
from ghzsim.fock import (
    GH,
    GV,
    HH,
    HV,
    INV_SQRT2,
    TRIGGER,
    ZH,
    ZV,
    StatePolynomial,
    creation,
    equal_up_to_phase,
    filter_terms,
    gamma_power,
    monomial,
    rational,
)
from ghzsim.lhv import (
    FeasibilityProblem,
    critical_visibility,
    evaluate_certificate,
    ghz_paradox_check,
    lemma_check,
    lhv_feasibility,
    quantum_targets,
    sigma,
    enumerate_strategies,
    TRIPLES,
)
from ghzsim.measurement import all_setting_triples, outcome_distribution, SettingTriple
from ghzsim.sampler import summarize_events
from statevector_oracle import oracle_correlation, oracle_distribution

from test_events import _variant_circuit
from test_measurement import full_expansion_table


@contextmanager
def criterion(number: int, title: str, budget_seconds: float):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL: {title}")
        raise
    elapsed = time.perf_counter() - started
    if elapsed >= budget_seconds:
        print(f"ACCEPTANCE {number} FAIL: {title} (over budget: {elapsed:.2f}s)")
        raise AssertionError(f"criterion {number} exceeded {budget_seconds}s: {elapsed:.2f}s")
    print(f"ACCEPTANCE {number} PASS: {title} ({elapsed:.2f}s)")


def _heralded():
    return innsbruck_circuit().apply(trigger_select(two_pair_emission()))


def test_criterion_1_exact_state_derivation():
    with criterion(1, "exact heralded-state derivation and right/wrong split", 1.0):
        derived = _heralded()
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

        def is_right(pattern):
            counts = [sum(n for m, n in pattern if m.beam == beam) for beam in
                      (GH.beam, HH.beam, ZH.beam)]
            return counts == [1, 1, 1]

        right = filter_terms(derived, is_right)
        wrong = filter_terms(derived, lambda pattern: not is_right(pattern))
        phase = rational(-1)  # the one global phase of the derivation
        expected_right = (
            monomial({TRIGGER: 1, GH: 1, HV: 1, ZV: 1}, INV_SQRT2 * gamma_power(2))
            + monomial({TRIGGER: 1, GV: 1, HH: 1, ZH: 1}, INV_SQRT2 * gamma_power(2))
        )
        expected_wrong_patterns = [
            {TRIGGER: 1, GH: 1, GV: 1, ZV: 1},
            {TRIGGER: 1, GH: 1, HH: 1, HV: 1},
            {TRIGGER: 1, HH: 1, GH: 1, GV: 1},
            {TRIGGER: 1, ZH: 1, ZV: 1, HV: 1},
            {TRIGGER: 1, ZH: 1, ZV: 1, GV: 1},
            {TRIGGER: 1, ZH: 1, HH: 1, HV: 1},
        ]
        expected_wrong = StatePolynomial()
        for p in expected_wrong_patterns:
            expected_wrong = expected_wrong + monomial(p, INV_SQRT2 * gamma_power(2))
        assert right == expected_right * phase
        assert wrong == expected_wrong * phase
        assert len(right) == 2 and len(wrong) == 6


def test_criterion_2_pairing_property():
    with criterion(2, "wrong events come in pairs (plus fuzzed circuit variants)", 1.0):
        report = pairing_report(_heralded())
        assert report.right_terms == 2 and report.wrong_terms == 6
        assert len(report.census) == 6  # every (double, empty) station pair once

        rng = random.Random(987)
        post_trigger = trigger_select(two_pair_emission())
        for _ in range(25):
            fuzzed = _variant_circuit(rng).apply(post_trigger)
            fuzzed_report = pairing_report(fuzzed)
            assert fuzzed_report.right_terms == 2
            assert fuzzed_report.wrong_terms == 6

        fabricated = monomial({TRIGGER: 1, GH: 2, HH: 2, ZH: 2})
        try:
            pairing_report(fabricated)
        except PairingViolationError:
            pass
        else:
            raise AssertionError("fabricated violating term was not rejected")


def test_criterion_3_quantum_correlations_against_oracle():
    with criterion(3, "Fock pipeline equals the state-vector oracle, exact", 1.0):
        state = _heralded()
        for triple in all_setting_triples():
            table = outcome_distribution(state, triple)
            conditional = {
                outcome: p / table.right_mass
                for outcome, p in table.probabilities.items()
            }
            assert conditional == oracle_distribution(triple)
        e = {
            code: oracle_correlation(SettingTriple.from_code(code))
            for code in ("xxx", "xyy", "yxy", "yyx", "yyy")
        }
        assert e["xxx"] == 1
        assert e["xyy"] == e["yxy"] == e["yyx"] == -1
        assert e["yyy"] == 0
        assert e["xxx"] * e["xyy"] * e["yxy"] * e["yyx"] == -1


def test_criterion_4_sigma_lemma_enumeration():
    with criterion(4, "sigma lemma over all 729 strategies", 1.0):
        report = lemma_check()
        assert report.total == 729
        assert report.admissible == 76
        assert report.chi_one == 64 and report.chi_zero == 12
        assert report.consistent
        for strategy in enumerate_strategies():
            dependent = any(
                abs(a[0]) != abs(a[1]) for a in (strategy.g, strategy.h, strategy.z)
            )
            if dependent:
                sigmas = {sigma(strategy, triple) for triple in TRIPLES}
                assert sigmas & {0, 2}


def test_criterion_5_ghz_paradox_without_inequalities():
    with criterion(5, "GHZ contradiction, invariant under conjugate convention", 1.0):
        for conjugate in (False, True):
            report = ghz_paradox_check(conjugate)
            assert report.satisfying_all == 0
            assert all(count > 0 for count in report.satisfying_after_drop)
            assert report.contradiction


def test_criterion_6_critical_visibility():
    with criterion(6, "LP boundary at visibility 1/2 with verified certificates", 10.0):
        for v in (Fraction(51, 100), Fraction(13, 20), Fraction(3, 4), Fraction(1)):
            outcome = lhv_feasibility(FeasibilityProblem(quantum_targets(v)))
            assert not outcome.feasible
            certificate = outcome.certificate
            assert certificate.verified
            assert certificate.max_strategy_column <= 0 < certificate.value
            # solver-independent re-check of the shipped functional
            again = evaluate_certificate(
                FeasibilityProblem(quantum_targets(v)), certificate.coefficients
            )
            assert again.verified and again.value > again.strategy_bound
        for v in (Fraction(0), Fraction(1, 4), Fraction(1, 2)):
            assert lhv_feasibility(FeasibilityProblem(quantum_targets(v))).feasible
        result = critical_visibility(depth=6)
        assert result.v_star == Fraction(1, 2)


def test_criterion_7_monte_carlo_consistency():
    with criterion(7, "Monte Carlo bands and the redefined trigger", 30.0):
        pulses, pair_prob = 10**6, Fraction(1, 10000)
        events = list(sample_events(pulses, pair_prob, seed=42))
        expected = float(pair_prob) * pulses  # 100
        assert abs(len(events) - expected) <= 3 * math.sqrt(expected)

        # the stated configuration yields ~0.01 two-pair pulses, so the class
        # bands are exercised on a denser companion run as well
        def check_class_bands(stream):
            counts = summarize_events(stream)
            rights = counts.get("right", 0)
            wrongs = sum(v for k, v in counts.items() if k.startswith("wrong-pair"))
            n = rights + wrongs
            if n:
                deviation = abs(rights - n * 0.25)
                assert deviation <= 3 * math.sqrt(n * 0.25 * 0.75) + 1e-9

        check_class_bands(events)
        dense = list(sample_events(10**6, Fraction(1, 20), seed=11))
        counts = summarize_events(dense)
        assert counts.get("right", 0) > 100
        check_class_bands(dense)

        lossy = list(
            sample_events(300000, Fraction(1, 20), seed=3, loss_prob=Fraction(1, 10))
        )
        contaminated = [
            e for e in lossy if e.event_class.reason == REASON_UNPAIRED
        ]
        assert contaminated, "loss must inject contaminated events"
        assert all(e.herald_veto for e in contaminated)  # 100% removed
        clean = [e for e in lossy if not e.herald_veto]
        assert all(e.event_class.reason != REASON_UNPAIRED for e in clean)
        demo = filter_loss_demo("one-a-H")
        assert demo.naive_trigger_fires and not demo.redefined_accepted


def test_criterion_8_wrong_mass_setting_independence():
    with criterion(8, "wrong mass identical across all 8 setting triples", 1.0):
        state = _heralded()
        masses = {
            outcome_distribution(state, triple).wrong_mass
            for triple in all_setting_triples()
        }
        assert masses == {Fraction(3, 4)}
        # read off the fully analyzed state too: verified, not assumed
        for triple in all_setting_triples():
            assert outcome_distribution(state, triple) == full_expansion_table(state, triple)
