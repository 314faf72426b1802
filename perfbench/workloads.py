"""Seeded job lists for the four workloads, and the checks on their outputs.

A job is one public-API call (for ``tables``, one derivation chain) that
produces a verdict or an artifact.  ``run_job`` is the only code inside the
timed span; ``check_job`` and ``job_counts`` run afterwards, outside it.
Every check here is made apart from the library's own verdict code, so a
wrong verdict shows up as a failure instead of passing silently.

Import this module only after ``src`` is on ``sys.path`` (``run.py`` and the
tests see to that).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import List

from ghzsim import circuit, events, lhv, measurement, simplex
from ghzsim.fock import pattern_from_json

# Job-list shapes.  Each is fixed so that one pass over the list costs about
# the same on every seed; the seed only picks the values inside it.
TABLES_JOBS = 2
VERDICT_BINS = 12  # narrow verdict jobs per pass, one per visibility bin of width 1/12
SLACK_JOBS = 1  # wide verdict jobs per pass: V = 1 with slack 1/64 (129 rows)
SLACK = Fraction(1, 64)
THRESHOLD_DEPTH = 8
SAMPLE_CHUNKS = 9  # chunks per pass, alternating dense and sparse: 5 dense, 4 sparse
# A dense and a sparse chunk cost about the same at the seed commit, so job
# latencies form one cluster and their median is steady.
DENSE = dict(pulses=50_000, pair_prob=Fraction(1, 20), loss_prob=Fraction(1, 10))
SPARSE = dict(pulses=1_000_000, pair_prob=Fraction(1, 10_000), loss_prob=Fraction(0))
BAND_SIGMAS = 5  # emitted-event count band per chunk

SETTING_PAIRS = tuple(
    (triple, conjugate)
    for conjugate in (False, True)
    for triple in measurement.all_setting_triples()
)
PERFECT = {"xxx": Fraction(1), "xyy": Fraction(-1), "yxy": Fraction(-1), "yyx": Fraction(-1)}
WRONG_MASS = Fraction(3, 4)


@dataclass(frozen=True)
class Job:
    kind: str  # tables | narrow | slack | lemma | threshold | dense | sparse
    args: tuple


# ---------------------------------------------------------------------------
# job lists
# ---------------------------------------------------------------------------


def _visibility(rng: random.Random, centre: Fraction, width: Fraction) -> Fraction:
    """A rational within ``width`` of ``centre`` whose denominator has 2 to 6
    digits.  Pivot counts change with the visibility, so keeping it near a
    fixed centre keeps the cost of a pass the same on every seed."""
    while True:
        q = rng.randrange(10, 10 ** rng.randint(2, 6))
        first = math.ceil((centre - width) * q)
        last = math.floor((centre + width) * q)
        if first <= last:
            return Fraction(rng.randint(first, last), q)


def build_jobs(workload: str, seed: int) -> List[Job]:
    rng = random.Random(f"perfbench:{workload}:{seed}")
    if workload == "tables":
        return [
            Job("tables", tuple(rng.sample(SETTING_PAIRS, len(SETTING_PAIRS))))
            for _ in range(TABLES_JOBS)
        ]
    if workload == "verdicts":
        jobs = [
            Job("narrow", (_visibility(rng, Fraction(2 * k + 1, 2 * VERDICT_BINS),
                                       Fraction(1, 8 * VERDICT_BINS)), Fraction(0)))
            for k in range(VERDICT_BINS)
        ]
        rng.shuffle(jobs)
        for _ in range(SLACK_JOBS):
            jobs.insert(rng.randint(1, len(jobs)), Job("slack", (Fraction(1), SLACK)))
        jobs.insert(rng.randint(0, len(jobs)), Job("lemma", ()))
        return jobs
    if workload == "threshold":
        return [Job("threshold", (THRESHOLD_DEPTH,))]
    if workload == "sample":
        jobs = []
        for chunk in range(SAMPLE_CHUNKS):
            kind, shape = ("dense", DENSE) if chunk % 2 == 0 else ("sparse", SPARSE)
            jobs.append(
                Job(kind, (shape["pulses"], shape["pair_prob"],
                           events.derived_seed(seed, chunk), shape["loss_prob"]))
            )
        return jobs
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# the timed calls
# ---------------------------------------------------------------------------


@dataclass
class SampleResult:
    first_event_ns: int  # from the call to the first yielded event
    events: list


def run_job(job: Job):
    if job.kind == "tables":
        emission = events.two_pair_emission()
        state = circuit.innsbruck_circuit().apply(events.trigger_select(emission))
        tables = [
            measurement.outcome_distribution(state, triple, conjugate)
            for triple, conjugate in job.args
        ]
        return state, tables
    if job.kind in ("narrow", "slack"):
        visibility, slack = job.args
        problem = lhv.FeasibilityProblem(lhv.quantum_targets(visibility), slack=slack)
        return problem, lhv.lhv_feasibility(problem)
    if job.kind == "threshold":
        return lhv.critical_visibility(*job.args)
    if job.kind == "lemma":
        return lhv.lemma_check()
    if job.kind in ("dense", "sparse"):
        start = time.perf_counter_ns()
        stream = events.sample_events(*job.args)
        first = next(stream, None)
        first_ns = time.perf_counter_ns() - start
        return SampleResult(first_ns, [] if first is None else [first, *stream])
    raise ValueError(f"unknown job kind {job.kind!r}")


# ---------------------------------------------------------------------------
# checks, outside the timed span
# ---------------------------------------------------------------------------


def check_tables(state, tables, order) -> List[str]:
    failures = []
    if len(state.terms) != 8:
        failures.append(f"heralded state has {len(state.terms)} terms, expected 8")
    for table, (triple, conjugate) in zip(tables, order):
        tag = f"{triple.code}{'*' if conjugate else ''}"
        if table.settings != triple:
            failures.append(f"{tag}: table carries settings {table.settings.code}")
        if sum(table.probabilities.values()) + table.wrong_mass != 1:
            failures.append(f"{tag}: cells and wrong mass do not sum to 1")
        if table.wrong_mass != WRONG_MASS:
            failures.append(f"{tag}: wrong mass {table.wrong_mass}, expected 3/4")
        expected = PERFECT.get(triple.code)
        if expected is not None:
            value = measurement.correlation_from_table(table)
            if value != expected:
                failures.append(f"{tag}: E = {value}, expected {expected}")
    if len(tables) != len(order):
        failures.append(f"{len(tables)} tables for {len(order)} settings")
    return failures


def check_verdict(problem, outcome, expect_feasible: bool) -> List[str]:
    """Re-derive a feasibility verdict's evidence without the solver."""
    if outcome.feasible != expect_feasible:
        return [f"verdict feasible={outcome.feasible}, expected {expect_feasible}"]
    if outcome.feasible:
        return _check_distribution(problem, outcome)
    strategies, rows, rhs, keys = lhv._cell_rows(problem)
    coeffs = outcome.certificate.coefficients
    failures = []
    if not simplex.verify_farkas(rows, rhs, [coeffs.get(key, Fraction(0)) for key in keys]):
        failures.append("certificate fails verify_farkas on the LP rows")
    if not lhv.evaluate_certificate(problem, coeffs).verified:
        failures.append("certificate fails evaluate_certificate")
    return failures


def _check_distribution(problem, outcome) -> List[str]:
    weights = outcome.distribution or {}
    failures = []
    if any(w < 0 for w in weights.values()):
        failures.append("negative strategy weight")
    if sum(weights.values()) != 1 - problem.wrong_mass:
        failures.append("strategy weights do not reproduce the right-event mass")
    if outcome.chi_zero_weight != problem.wrong_mass:
        failures.append("chi=0 weight does not reproduce the wrong mass")
    for triple in lhv.TRIPLES:
        model = Counter()
        for strategy, weight in weights.items():
            model[strategy.outcomes(triple)] += weight
        table = problem.table(triple)
        for cell, target in table.probabilities.items():
            if abs(model[cell] - target) > problem.slack:
                failures.append(f"{triple.code}{cell}: model {model[cell]} != target {target}")
    return failures


def _sample_failures(job: Job, result: SampleResult) -> List[str]:
    pulses, pair_prob = job.args[0], job.args[1]
    failures = []
    last = -1
    for event in result.events:
        if not last < event.pulse_index < pulses:
            failures.append(f"pulse index {event.pulse_index} out of order")
            break
        last = event.pulse_index
        if event.event_class != events.classify_pattern(event.pattern):
            failures.append(f"pulse {event.pulse_index}: class differs from classify_pattern")
            break
    p = float(pair_prob + pair_prob**2)
    mean, sigma = pulses * p, math.sqrt(pulses * p * (1 - p))
    if abs(len(result.events) - mean) > BAND_SIGMAS * sigma:
        failures.append(f"{len(result.events)} events outside {mean:.0f} +- {BAND_SIGMAS} sigma")
    return failures


def check_job(job: Job, result) -> List[str]:
    if job.kind == "tables":
        return check_tables(*result, job.args)
    if job.kind in ("narrow", "slack"):
        visibility = job.args[0]
        expect = job.kind == "slack" or visibility <= Fraction(1, 2)
        return check_verdict(*result, expect_feasible=expect)
    if job.kind == "lemma":
        ok = result.consistent and (result.total, result.admissible) == (729, 76)
        return [] if ok else [f"lemma report {result} is not the 729/76 census"]
    if job.kind == "threshold":
        if result.v_star != Fraction(1, 2):
            return [f"v_star = {result.v_star}, expected 1/2"]
        wrong = [v for v, ok in result.evaluations if ok != (v <= Fraction(1, 2))]
        return [f"evaluation at {v} has the wrong verdict" for v in wrong]
    return _sample_failures(job, result)


def stream_digest(result: SampleResult) -> str:
    """sha256 of an event stream; equal digests mean equal streams."""
    text = repr([
        (e.pulse_index, e.pattern, e.event_class.wire, e.herald_veto) for e in result.events
    ])
    return hashlib.sha256(text.encode()).hexdigest()


def job_counts(job: Job, result) -> Counter:
    """The exact operation counts behind each rate."""
    counts: Counter = Counter()
    if job.kind == "tables":
        counts["tables"] += len(result[1])
        counts["heralded_terms"] += len(result[0].terms)
    elif job.kind in ("narrow", "slack"):
        outcome = result[1]
        counts["verdicts"] += 1
        counts[f"{job.kind}_verdicts"] += 1
        counts["feasible" if outcome.feasible else "infeasible"] += 1
        counts["pivots"] += outcome.iterations
    elif job.kind == "lemma":
        counts["lemma_checks"] += 1
    elif job.kind == "threshold":
        counts["searches"] += 1
        counts["solves"] += len(result.evaluations)
    else:
        counts[f"{job.kind}_chunks"] += 1
        counts[f"{job.kind}_pulses"] += job.args[0]
        counts[f"{job.kind}_events"] += len(result.events)
        for event in result.events:
            counts["vetoes"] += event.herald_veto
            counts[f"class:{event.event_class.wire}"] += 1
    return counts


# ---------------------------------------------------------------------------
# cold set-up, run in a fresh interpreter
# ---------------------------------------------------------------------------

_SETUP_STEP = {
    "tables": "",
    "verdicts": "ghzsim.lhv.quantum_targets()",
    "threshold": "ghzsim.lhv.quantum_targets()",
    "sample": "next(ghzsim.events.sample_events({pulses}, Fraction({p}), {seed}, Fraction({loss})))",
}


def setup_program(workload: str, seed: int) -> str:
    """Source that prints the seconds from before ``import ghzsim`` to the
    end of the cold set-up the workload needs before its first job: nothing
    more for ``tables``, the ideal tables for ``verdicts`` and ``threshold``,
    the first sampled event for ``sample``."""
    step = _SETUP_STEP[workload].format(
        pulses=DENSE["pulses"], p=f'"{DENSE["pair_prob"]}"',
        loss=f'"{DENSE["loss_prob"]}"', seed=events.derived_seed(seed, 0),
    )
    return (
        "import time\n"
        "start = time.perf_counter()\n"
        "import ghzsim\n"
        "from fractions import Fraction\n"
        f"{step}\n"
        "print(repr(time.perf_counter() - start))\n"
    )


def warm_up(workload: str) -> None:
    """The in-process set-up before the first job: fill the table caches."""
    if workload in ("verdicts", "threshold"):
        lhv.quantum_targets()


def clear_caches() -> None:
    lhv.heralded_state.cache_clear()
    lhv._ideal_tables.cache_clear()


# ---------------------------------------------------------------------------
# CLI commands: one subprocess each, checked on their artifacts
# ---------------------------------------------------------------------------

SAMPLE_CLI_PULSES = 300_000


def cli_commands(workload: str, seed: int):
    """(name, argv) for each CLI command of the workload, ``--output`` excluded."""
    return {
        "tables": [
            ("correlations", ["correlations", "--format", "json"]),
            ("expand", ["expand", "--format", "json"]),
        ],
        "verdicts": [
            ("lhv-feasibility", ["lhv-feasibility", "--visibility", "13/20", "--format", "json"]),
        ],
        "threshold": [
            ("critical-visibility", ["critical-visibility", "--format", "json"]),
        ],
        "sample": [
            ("sample", ["sample", "--pair-prob", "1/20", "--pulses", str(SAMPLE_CLI_PULSES),
                        "--seed", str(seed)]),
        ],
    }[workload]


def check_cli(name: str, artifact: bytes, stdout: bytes, pinned: dict) -> List[str]:
    """Semantic check of one CLI artifact; ``pinned`` maps name -> sha256."""
    if name in pinned:
        digest = hashlib.sha256(artifact).hexdigest()
        if digest != pinned[name]:
            return [f"{name}: artifact sha256 {digest} differs from the pinned value"]
        json.loads(artifact)
        return []
    if name == "lhv-feasibility":
        payload = json.loads(artifact)
        if payload["feasible"] is not False:
            return [f"{name}: 13/20 reported feasible"]
        problem = lhv.FeasibilityProblem(lhv.quantum_targets(Fraction(payload["visibility"])))
        coeffs = lhv.certificate_from_json(payload["certificate"])
        if not lhv.evaluate_certificate(problem, coeffs).verified:
            return [f"{name}: certificate does not re-verify"]
        return []
    if name == "critical-visibility":
        payload = json.loads(artifact)
        return [] if payload["v_star"] == "1/2" else [f"{name}: v_star {payload['v_star']}"]
    if name == "sample":
        summary = Counter()
        for line in artifact.decode().splitlines():
            event = json.loads(line)
            pattern = pattern_from_json(event["pattern"])
            if events.classify_pattern(pattern).wire != event["class"]:
                return [f"{name}: pulse {event['pulse']} carries the wrong class"]
            summary[event["class"]] += 1
        rows = list(csv.reader(io.StringIO(stdout.decode())))[1:]
        reported = Counter({cls: int(n) for cls, n in rows})
        return [] if reported == summary else [f"{name}: summary disagrees with the stream"]
    raise ValueError(f"no check for CLI command {name!r}")
