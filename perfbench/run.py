#!/usr/bin/env python3
"""ghzsim benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload tables --seed 1 --seconds 10 --trace 0

Run it from anywhere; it imports ghzsim from the ``src`` directory next to
``perfbench`` and never from an installed copy.  A run is a closed loop
with one client: the seeded job list of the workload (``workloads.py``) is
run again and again, each job starting when the previous one has returned
and been checked, until ``--seconds`` have passed.  Then the workload's CLI
commands run one at a time, each as its own subprocess.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` does the same
work with spans around every layer boundary (``tracing.py``) and reports
the per-layer metrics.  The report and a run record come first; the last
line of standard output is the JSON result.  Spans and records are written
under ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# Fresh interpreters for setup_s: at least SETUP_REPEATS, and more until
# SETUP_SECONDS have passed, so that a cheap set-up gets a steadier median.
SETUP_REPEATS = 5
SETUP_SECONDS = 2.0
IMPORT_REPEATS = 5  # fresh interpreters per run for cli.import_s
# Rounds of the workload's CLI commands: 4 to 11 s of commands per run.
CLI_ROUNDS = {"tables": 6, "verdicts": 6, "threshold": 2, "sample": 6}
CHILD_TIMEOUT_S = 150
LAYERS = ("events", "circuit", "measurement", "lhv", "simplex")
STATIONS = ("G", "H", "Z")
EVENT_CLASSES = (
    ["right"]
    + [f"wrong-pair:{d},{e}" for d in STATIONS for e in STATIONS if d != e]
    + [f"double-non-detection:{s}" for s in (*STATIONS, "none")]
    + [f"trigger-failure:{r}"
       for r in ("no-trigger", "multiple-trigger-photons", "unpaired-wrong-pattern")]
)
CLI_NAMES = ("expand", "correlations", "lhv-feasibility", "critical-visibility", "sample")
PER_CALL = {  # per-layer metric -> span whose median duration it reports
    "events.trigger_select_s": "events.trigger_select",
    "circuit.apply_s": "circuit.apply",
    "measurement.outcome_distribution_s": "measurement.outcome_distribution",
    "lhv.quantum_targets_s": "lhv.quantum_targets",
    "lhv.certificate_s": "lhv.certificate",
    "lhv.lemma_check_s": "lhv.lemma_check",
    "lhv.threshold_solve_s": "lhv.threshold_solve",
}


def class_metric(wire: str) -> str:
    """``wrong-pair:G,H`` -> ``events.class.wrong-pair.G-H``."""
    return "events.class." + wire.replace(":", ".").replace(",", "-")


def import_library():
    """Put ``src`` first on the path and import ghzsim from there, or exit."""
    if not (SRC / "ghzsim" / "__init__.py").is_file():
        sys.exit(f"perfbench: no ghzsim sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import ghzsim

    if not Path(ghzsim.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: ghzsim imported from {ghzsim.__file__}, not {SRC}")


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


class Tally:
    """Operations attempted and failed; failures are printed to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, failures) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            for failure in failures:
                print(f"perfbench: FAILED {what}: {failure}", file=sys.stderr)


def _probe_work():
    """The calibration loop: fixed pure-Python work of the library's kind
    (exact fractions, small dicts and tuples), 11 to 20 ms on a shared
    2-vCPU Intel Xeon host under CPython 3.11."""
    total, seen = Fraction(0), {}
    for i in range(1, 2000):
        total += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
        key = (i % 31, i % 7)
        seen[key] = seen.get(key, 0) + 1
    return total, len(seen)


class Speed:
    """How fast this machine runs Python right now, per phase of the run.

    On a shared host the speed of pure-Python code swings by a factor up to
    about 1.7 within seconds and drifts over minutes.  The calibration loop
    runs between the measured steps of a phase (once per step and once per
    PROBE_EVERY_S of step time), outside every timed span, so a phase's
    probes see the speed its steps saw.  An end-to-end time is reported in
    calibrated seconds: raw seconds times REFERENCE_S over the phase's mean
    probe time.  Library changes cannot move the probe, so they still show
    in full; host speed cancels.  The raw seconds go into the run record.
    """

    REFERENCE_S = 0.015
    PROBE_EVERY_S = 0.25

    def __init__(self):
        self.samples = {}

    def probe(self, phase: str, after_s: float) -> None:
        for _ in range(1 + int(after_s / self.PROBE_EVERY_S)):
            start = time.perf_counter()
            _probe_work()
            self.samples.setdefault(phase, []).append(time.perf_counter() - start)

    def factor(self, phase: str) -> float:
        return self.REFERENCE_S / statistics.fmean(self.samples[phase])


class Pass:
    """One run of the job list: latency, counts and observations per job."""

    def __init__(self):
        self.latency_ns = []  # (job index, kind, ns)
        self.counts = Counter()
        self.first_event_ns = []  # dense chunks only
        self.digests = {}

    @property
    def wall_ns(self) -> int:
        return sum(ns for _, _, ns in self.latency_ns)


def checked(check, *args):
    """Run a checker; an output it cannot even read is a failure, not a crash."""
    try:
        return check(*args)
    except Exception as exc:
        return [f"check raised {type(exc).__name__}: {exc}"]


def run_pass(wl, jobs, index, tally, tracer=None, reference=None, limit=None,
             speed=None) -> Pass:
    """Run ``jobs`` once (or the first ``limit``), checking each outside its span.

    ``reference`` is an earlier pass of the same list: a sample chunk whose
    stream digest matches it is identical to a stream already checked.
    """
    result = Pass()
    for j, job in enumerate(jobs[:limit]):
        try:
            if tracer is None:
                start = time.perf_counter_ns()
                output = wl.run_job(job)
                elapsed = time.perf_counter_ns() - start
            else:
                with tracer.span("bench.job", job=[index, j]) as span:
                    output = wl.run_job(job)
                elapsed = span.duration_ns
        except Exception as exc:  # a library error is a failed job, not a crash
            tally.record(f"job {j} ({job.kind})", [f"{type(exc).__name__}: {exc}"])
            continue
        if speed is not None:
            speed.probe("jobs", elapsed / 1e9)
        result.latency_ns.append((j, job.kind, elapsed))
        if isinstance(output, wl.SampleResult):
            digest = wl.stream_digest(output)
            result.digests[j] = digest
            if job.kind == "dense":
                result.first_event_ns.append(output.first_event_ns)
            if reference is not None and reference.digests.get(j) == digest:
                failures = []
            elif reference is not None and j in reference.digests:
                failures = ["stream digest differs from an earlier run of the same seed"]
            else:
                failures = checked(wl.check_job, job, output)
        else:
            failures = checked(wl.check_job, job, output)
        tally.record(f"job {j} ({job.kind})", failures)
        result.counts.update(wl.job_counts(job, output))
    return result


def run_passes(wl, jobs, seconds, tally, tracer=None, speed=None):
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        reference = passes[0] if passes else None
        passes.append(run_pass(wl, jobs, len(passes), tally, tracer, reference, speed=speed))
    if len(passes) == 1 and any(job.kind == "dense" for job in jobs):
        # one pass gives no second stream to compare: re-run the first chunk
        run_pass(wl, jobs, -1, tally, reference=passes[0], limit=1)
    return passes


# ---------------------------------------------------------------------------
# subprocesses
# ---------------------------------------------------------------------------


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def time_setup(program: str) -> float:
    done = subprocess.run([sys.executable, "-c", program], env=child_env(), cwd=OUT,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"set-up child failed: {done.stderr.strip()}")
    return float(done.stdout.strip().splitlines()[-1])


def time_import() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import ghzsim"], env=child_env(), cwd=OUT,
                   check=True, timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - start


def run_cli(argv, artifact: Path):
    """Run ``python -m ghzsim.cli argv --output artifact``; (exit code, s, MB, stdout)."""
    stdout_path = artifact.with_suffix(".stdout")
    with open(stdout_path, "wb") as out, open(artifact.with_suffix(".stderr"), "wb") as err:
        start = time.perf_counter_ns()
        proc = subprocess.Popen(
            [sys.executable, "-m", "ghzsim.cli", *argv, "--output", str(artifact)],
            stdout=out, stderr=err, env=child_env(), cwd=OUT,
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        elapsed = time.perf_counter_ns() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, elapsed / 1e9, usage.ru_maxrss / 1024, stdout_path.read_bytes()


def run_cli_rounds(wl, workload, seed, tally, speed=None):
    """Every CLI command of the workload, ``CLI_ROUNDS`` times, checked."""
    pinned = json.loads((BENCH / "expected.json").read_text())["sha256"]
    rounds, per_command, digests = [], {}, {}
    for r in range(CLI_ROUNDS[workload]):
        total = 0.0
        for name, argv in wl.cli_commands(workload, seed):
            artifact = OUT / f"cli-{workload}-{name}.out"
            artifact.unlink(missing_ok=True)
            code, seconds, rss_mb, stdout = run_cli(argv, artifact)
            if speed is not None:
                speed.probe("cli", seconds)
            total += seconds
            per_command.setdefault(name, []).append((seconds, rss_mb))
            if code != 0:
                failures = [f"exit code {code}"]
            else:
                data = artifact.read_bytes()
                digest = hashlib.sha256(data).hexdigest()
                if name not in digests:
                    digests[name] = digest
                    failures = checked(wl.check_cli, name, data, stdout, pinned)
                elif digests[name] != digest:
                    failures = ["artifact differs between two runs of one command"]
                else:
                    failures = []  # the same bytes as a run already checked
            tally.record(f"cli {name} round {r}", failures)
            artifact.unlink(missing_ok=True)
        rounds.append(total)
    return rounds, per_command


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def tail(values):
    """(value, percentile, n) of the highest nearest-rank percentile with at
    least ten samples beyond it, or None when there are ten or fewer."""
    n = len(values)
    if n <= 10:
        return None
    k = n - 10
    return sorted(values)[k - 1], 100 * k / n, n


CALIBRATED = {"setup_s": "setup", "wall_s": "jobs", "job_p50_s": "jobs", "cli_s": "cli"}


def end_to_end(setup, passes, cli_rounds, cli_per_command):
    """The end-to-end metrics in raw seconds (and MB)."""
    latencies = [ns / 1e9 for p in passes for _, _, ns in p.latency_ns]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p.wall_ns / 1e9 for p in passes),
        "job_p50_s": statistics.median(latencies),
        "cli_s": statistics.median(cli_rounds),
        "cli_peak_rss_mb": max(rss for runs in cli_per_command.values() for _, rss in runs),
    }


def named_rates(passes) -> dict:
    """The workload's own rates, each with the exact counts behind it."""
    counts = sum((p.counts for p in passes), Counter())
    busy = Counter()
    for p in passes:
        for _, kind, ns in p.latency_ns:
            busy[kind] += ns / 1e9
    rates = {}
    if counts["tables"]:
        rates["tables_per_s"] = (counts["tables"] / busy["tables"], counts["tables"])
    if counts["verdicts"]:
        rates["verdicts_per_s"] = (
            counts["verdicts"] / (busy["narrow"] + busy["slack"]), counts["verdicts"])
    if counts["solves"]:
        rates["solves_per_s"] = (counts["solves"] / busy["threshold"], counts["solves"])
    if counts["dense_events"]:
        rates["dense_events_per_s"] = (counts["dense_events"] / busy["dense"],
                                       counts["dense_events"])
    if counts["sparse_pulses"]:
        rates["sparse_pulses_per_s"] = (counts["sparse_pulses"] / busy["sparse"],
                                        counts["sparse_pulses"])
    return rates


def _median(values, default=0.0):
    values = list(values)
    return statistics.median(values) if values else default


def per_layer(jobs, spans, passes, memory_spans, reference, imports, cli_per_command):
    """Per-layer metrics; a layer that does no such work on this workload reads 0."""
    metrics = {}
    by_name = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    for metric, name in PER_CALL.items():
        metrics[metric] = _median(s.duration_ns / 1e9 for s in by_name.get(name, []))
    in_job = [s for s in spans if s.job is not None and s.job[0] >= 0]
    solves = [s for s in in_job if s.name == "simplex.solve"]
    metrics["simplex.solve_s"] = _median(
        s.duration_ns / 1e9 for s in solves if jobs[s.job[1]].kind != "slack")
    metrics["simplex.solve_slack_s"] = _median(
        s.duration_ns / 1e9 for s in solves if jobs[s.job[1]].kind == "slack")
    pivots_per_pass = Counter()
    for s in solves:
        pivots_per_pass[s.job[0]] += s.note["pivots"]
    metrics["simplex.pivots"] = _median(pivots_per_pass.values(), 0)
    total_pivots = sum(s.note["pivots"] for s in solves)
    metrics["simplex.pivot_ms"] = (
        sum(s.duration_ns for s in solves) / 1e6 / total_pivots if total_pivots else 0.0)
    for key in ("rows", "cols", "max_den_bits"):
        metrics[f"simplex.{key}"] = max((s.note[key] for s in solves), default=0)
    metrics["lhv.threshold_solves"] = _median(
        (s.note["solves"] for s in in_job if s.name == "lhv.critical_visibility"), 0)

    counts = passes[0].counts
    dense = [ns for p in passes for _, kind, ns in p.latency_ns if kind == "dense"]
    sparse = [ns for p in passes for _, kind, ns in p.latency_ns if kind == "sparse"]
    metrics["events.first_event_s"] = _median(
        ns / 1e9 for p in passes for ns in p.first_event_ns)
    metrics["events.pulse_ns"] = (
        _median(sparse) / (counts["sparse_pulses"] / counts["sparse_chunks"]) if sparse else 0.0)
    metrics["events.event_us"] = (
        _median(dense) / 1e3 / (counts["dense_events"] / counts["dense_chunks"])
        if dense else 0.0)
    pulses = counts["dense_pulses"] + counts["sparse_pulses"]
    emitted = counts["dense_events"] + counts["sparse_events"]
    metrics["events.emit_ratio"] = emitted / pulses if pulses else 0.0
    metrics["events.vetoes"] = counts["vetoes"]
    for wire in EVENT_CLASSES:
        metrics[class_metric(wire)] = counts[f"class:{wire}"]

    self_ns = {layer: Counter() for layer in LAYERS}
    for s in in_job:
        if s.layer in self_ns:
            self_ns[s.layer][s.job[0]] += s.self_ns
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = statistics.median(
            self_ns[layer][p] / 1e9 for p in range(len(passes)))

    metrics["cli.import_s"] = statistics.median(imports)
    for name in CLI_NAMES:
        runs = cli_per_command.get(name, [])
        metrics[f"cli.{name}_s"] = _median(seconds for seconds, _ in runs)
        metrics[f"cli.{name}_rss_mb"] = max((rss for _, rss in runs), default=0.0)
    for layer in LAYERS:
        metrics[f"mem.{layer}_peak_mb"] = max(
            ((s.mem_peak - s.mem_base) / 2**20 for s in memory_spans if s.layer == layer),
            default=0.0)
    metrics["trace.overhead_ratio"] = (
        statistics.median(p.wall_ns for p in passes) / reference.wall_ns)
    return metrics


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def untraced_run(wl, args, jobs, tally):
    speed = Speed()
    program = wl.setup_program(args.workload, args.seed)
    setup = []
    start = time.perf_counter()
    while len(setup) < SETUP_REPEATS or time.perf_counter() - start < SETUP_SECONDS:
        setup.append(time_setup(program))
        speed.probe("setup", setup[-1])
    wl.warm_up(args.workload)
    passes = run_passes(wl, jobs, args.seconds, tally, speed=speed)
    cli_rounds, cli_per_command = run_cli_rounds(wl, args.workload, args.seed, tally, speed)
    raw = end_to_end(setup, passes, cli_rounds, cli_per_command)
    factors = {phase: speed.factor(phase) for phase in ("setup", "jobs", "cli")}
    metrics = {name: value * factors[CALIBRATED[name]] if name in CALIBRATED else value
               for name, value in raw.items()}
    return metrics, passes, {"raw": raw, "speed_factors": factors}


def traced_run(wl, tracing, args, jobs, tally):
    imports = [time_import() for _ in range(IMPORT_REPEATS)]
    wl.warm_up(args.workload)
    reference = run_pass(wl, jobs, -1, tally)
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        wl.clear_caches()
        with tracer.span("bench.setup"):
            wl.warm_up(args.workload)
        passes = run_passes(wl, jobs, args.seconds, tally, tracer)
    # peak memory per layer: set-up and the first job again, under tracemalloc
    memory = tracing.Tracer(memory=True)
    tracemalloc.start()
    try:
        with tracing.patched(memory):
            wl.clear_caches()
            with memory.span("bench.setup"):
                wl.warm_up(args.workload)
            run_pass(wl, jobs, -1, tally, memory, limit=1)
    finally:
        tracemalloc.stop()
    _, cli_per_command = run_cli_rounds(wl, args.workload, args.seed, tally)
    metrics = per_layer(jobs, tracer.spans, passes, memory.spans, reference, imports,
                        cli_per_command)
    trace_file = OUT / f"trace-{args.workload}-{args.seed}.json"
    trace_file.write_text(json.dumps({
        "spans": [s.as_json(i) for i, s in enumerate(tracer.spans)],
        "memory_spans": [s.as_json(i) for i, s in enumerate(memory.spans)],
    }))
    return metrics, passes, {"reference_pass_s": reference.wall_ns / 1e9}


def git_commit():
    """The checked-out commit when ROOT is a git work tree, else None."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    if target.is_file():
        return target.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return None


def report(args, metrics, passes, rates, tally, units) -> None:
    jobs = sum(len(p.latency_ns) for p in passes)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(passes)} passes, {jobs} jobs")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:>14.6g} {units.get(name, '')}")
    for name, (value, count) in rates.items():
        print(f"  {name:40s} {value:>14.6g} 1/s  ({count} counted)")
    latencies = [ns / 1e9 for p in passes for _, _, ns in p.latency_ns]
    spot = tail(latencies)
    if spot is None:
        print(f"  {'job_tail_s':40s} {'omitted':>14s}    ({len(latencies)} jobs, need > 10)")
    else:
        value, pct, n = spot
        print(f"  {'job_tail_s':40s} {value:>14.6g} s  (p{pct:.1f} of {n} jobs, 10 beyond)")
    ratio = tally.failed / tally.attempted if tally.attempted else 0.0
    print(f"  {'failed_ratio':40s} {ratio:>14.6g}    ({tally.failed} of {tally.attempted})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("tables", "verdicts", "threshold", "sample"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_library()
    import tracing
    import workloads as wl

    # One CPU for the run and its children, so the calibration probes see
    # the same core the measured steps ran on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    OUT.mkdir(exist_ok=True)
    load_before = os.getloadavg()
    jobs = wl.build_jobs(args.workload, args.seed)
    tally = Tally()
    if args.trace:
        metrics, passes, extra = traced_run(wl, tracing, args, jobs, tally)
    else:
        metrics, passes, extra = untraced_run(wl, args, jobs, tally)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                           "do not match BENCHMARK.json")
    rates = named_rates(passes)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "commit": git_commit(),
        "nproc": os.cpu_count(), "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(), "passes": len(passes),
        "jobs_per_pass": len(jobs), "counts_per_pass": dict(sorted(passes[0].counts.items())),
        "rates": {name: value for name, (value, _) in rates.items()},
        "attempted": tally.attempted, "failed": tally.failed, **extra,
    }
    (OUT / f"record-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    report(args, metrics, passes, rates, tally, units)
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
