"""Tests of the benchmark itself.

Traced and untraced runs do the same work, the traced pivot count agrees
with the library's own, every metric name is well formed, and the checkers
count a corrupted verdict as a failure.  Faults are injected into the test's
data only; ghzsim is never modified.
"""

import dataclasses
import json
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _small_jobs(workload):
    """A cheap job list of the workload's own kinds."""
    if workload == "tables":
        return wl.build_jobs("tables", 3)[:1]
    if workload == "verdicts":
        return [wl.Job("narrow", (Fraction(0), Fraction(0))),
                wl.Job("narrow", (Fraction(9, 10), Fraction(0)))]
    return [wl.Job("dense", (5_000, Fraction(1, 20), wl.events.derived_seed(3, 0),
                             Fraction(1, 10))),
            wl.Job("sparse", (50_000, Fraction(1, 100), wl.events.derived_seed(3, 1),
                              Fraction(0)))]


@pytest.mark.parametrize("workload", ["tables", "verdicts", "sample"])
def test_traced_and_untraced_runs_do_identical_work(workload):
    jobs = _small_jobs(workload)
    wl.warm_up(workload)
    tally = run.Tally()
    plain = run.run_pass(wl, jobs, 0, tally)
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        traced = run.run_pass(wl, jobs, 0, tally, tracer, reference=plain)
    assert tally.failed == 0
    assert traced.counts == plain.counts
    assert traced.digests == plain.digests
    assert {s.name for s in tracer.spans} >= {"bench.job"}
    assert all(s.job[0] == 0 for s in tracer.spans)
    # the wrappers are gone once the block ends
    assert wl.lhv.solve_feasibility is wl.simplex.solve_feasibility
    assert not hasattr(wl.lhv.solve_feasibility, "__wrapped__")


def test_traced_pivots_equal_feasibility_outcome_iterations():
    jobs = _small_jobs("verdicts")
    wl.warm_up("verdicts")
    tally = run.Tally()
    plain = run.run_pass(wl, jobs, 0, tally)
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        traced = run.run_pass(wl, jobs, 0, tally, tracer)
    metrics = run.per_layer(jobs, tracer.spans, [traced], [], plain, [0.1], {})
    # counts["pivots"] sums FeasibilityOutcome.iterations over the jobs
    assert metrics["simplex.pivots"] == plain.counts["pivots"] > 0
    assert metrics["simplex.rows"] == 65
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert set(metrics) == {m["name"] for m in spec["per_layer"]}


def test_every_metric_name_is_well_formed():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [run.class_metric(wire) for wire in run.EVENT_CLASSES]
    names += ["tables_per_s", "verdicts_per_s", "solves_per_s",
              "dense_events_per_s", "sparse_pulses_per_s", "job_tail_s", "failed_ratio"]
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)
    assert len(set(names[: len(spec["workloads"])])) == len(spec["workloads"])
    assert {m["name"] for m in spec["per_layer"]} >= {
        run.class_metric(wire) for wire in run.EVENT_CLASSES}


def _failed(job, output):
    tally = run.Tally()
    tally.record("corrupted", wl.check_job(job, output))
    return tally.failed


def test_corrupted_verdicts_count_as_failures():
    wl.warm_up("verdicts")
    infeasible_job, feasible_job = _small_jobs("verdicts")[1], _small_jobs("verdicts")[0]
    problem, outcome = wl.run_job(infeasible_job)
    assert _failed(infeasible_job, (problem, outcome)) == 0
    negated = {key: -value for key, value in outcome.certificate.coefficients.items()}
    bad_certificate = dataclasses.replace(
        outcome, certificate=dataclasses.replace(outcome.certificate, coefficients=negated))
    assert _failed(infeasible_job, (problem, bad_certificate)) == 1
    assert _failed(infeasible_job, (problem, dataclasses.replace(outcome, feasible=True))) == 1

    problem, outcome = wl.run_job(feasible_job)
    assert _failed(feasible_job, (problem, outcome)) == 0
    strategy, weight = next(iter(outcome.distribution.items()))
    shifted = dict(outcome.distribution)
    shifted[strategy] = weight + Fraction(1, 1000)
    assert _failed(feasible_job, (problem, dataclasses.replace(outcome, distribution=shifted))) == 1


def test_corrupted_tables_and_events_count_as_failures():
    job = _small_jobs("tables")[0]
    state, tables = wl.run_job(job)
    assert _failed(job, (state, tables)) == 0
    assert _failed(job, (state, tables[1:] + tables[:1])) == 1  # settings out of order

    dense = _small_jobs("sample")[0]
    result = wl.run_job(dense)
    assert _failed(dense, result) == 0
    event = result.events[0]
    other = next(e for e in result.events if e.event_class != event.event_class)
    relabelled = dataclasses.replace(event, event_class=other.event_class)
    assert _failed(dense, wl.SampleResult(0, [relabelled, *result.events[1:]])) == 1


def test_tail_needs_more_than_ten_samples():
    assert run.tail(list(range(10))) is None
    value, percentile, n = run.tail(list(range(1, 41)))
    assert (value, percentile, n) == (30, 75.0, 40)
