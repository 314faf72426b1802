"""In-memory spans around the calls into each ghzsim layer.

The traced run replaces, for its duration only, the module attributes
through which layers call one another (``lhv.solve_feasibility``,
``OpticalCircuit.apply``, ...) with thin wrappers defined here.  Each
wrapper records one span: name, start, end, parent span and job id.  Spans
stay in memory and are written out when the run ends.  Nothing under
``src`` is edited, and the untraced run calls the library unwrapped.

A wrapper records only while a job or set-up span is open, so the checks
that run between jobs are never traced.  Fock arithmetic has no public
boundary of its own here; its time counts as self time of the layer that
called it (``circuit.apply``, ``measurement.outcome_distribution``).
"""

from __future__ import annotations

import functools
import inspect
import time
import tracemalloc
from contextlib import contextmanager

from ghzsim import circuit, events, lhv, measurement, simplex

# (owner, attribute, span name).  A function imported into a second module
# is patched there too, because that is the name the calling layer uses.
BOUNDARIES = (
    (events, "two_pair_emission", "events.two_pair_emission"),
    (lhv, "two_pair_emission", "events.two_pair_emission"),
    (events, "trigger_select", "events.trigger_select"),
    (lhv, "trigger_select", "events.trigger_select"),
    (events, "sample_events", "events.sample_events"),
    (circuit.OpticalCircuit, "apply", "circuit.apply"),
    (measurement, "outcome_distribution", "measurement.outcome_distribution"),
    (lhv, "outcome_distribution", "measurement.outcome_distribution"),
    (lhv, "quantum_targets", "lhv.quantum_targets"),
    (lhv, "lhv_feasibility", "lhv.lhv_feasibility"),
    (lhv, "evaluate_certificate", "lhv.certificate"),
    (lhv, "lemma_check", "lhv.lemma_check"),
    (lhv, "critical_visibility", "lhv.critical_visibility"),
    (lhv, "feasibility_at_visibility", "lhv.threshold_solve"),
    (simplex, "solve_feasibility", "simplex.solve"),
    (lhv, "solve_feasibility", "simplex.solve"),
)


class Span:
    __slots__ = ("name", "job", "parent", "start", "end", "child_ns", "note",
                 "mem_base", "mem_peak")

    def __init__(self, name, job, parent, start):
        self.name, self.job, self.parent, self.start = name, job, parent, start
        self.end = start
        self.child_ns = 0
        self.note = None
        self.mem_base = self.mem_peak = 0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration_ns(self) -> int:
        return self.end - self.start

    @property
    def self_ns(self) -> int:
        return self.duration_ns - self.child_ns

    def as_json(self, index: int) -> dict:
        return {"id": index, "name": self.name, "job": self.job, "parent": self.parent,
                "start_ns": self.start, "end_ns": self.end, "self_ns": self.self_ns,
                "note": self.note, "mem_peak_bytes": self.mem_peak - self.mem_base}


class Tracer:
    """Span recorder.  With ``memory`` set, every span also records its
    tracemalloc peak above the traced size at its start."""

    def __init__(self, memory: bool = False):
        self.spans = []
        self.stack = []
        self.memory = memory

    @contextmanager
    def span(self, name, job=None):
        parent = self.stack[-1] if self.stack else None
        if job is None and parent is not None:
            job = self.spans[parent].job
        record = Span(name, job, parent, 0)
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                self.spans[parent].mem_peak = max(self.spans[parent].mem_peak, peak)
            record.mem_base = record.mem_peak = current
            tracemalloc.reset_peak()
        self.stack.append(len(self.spans))
        self.spans.append(record)
        record.start = time.perf_counter_ns()
        try:
            yield record
        finally:
            record.end = time.perf_counter_ns()
            self.stack.pop()
            if parent is not None:
                self.spans[parent].child_ns += record.duration_ns
            if self.memory:
                record.mem_peak = max(record.mem_peak, tracemalloc.get_traced_memory()[1])
                tracemalloc.reset_peak()
                if parent is not None:
                    self.spans[parent].mem_peak = max(self.spans[parent].mem_peak,
                                                     record.mem_peak)


def _solve_note(args, result) -> dict:
    rows, rhs = args[0], args[1]
    values = list(rhs) + list(result.solution or result.certificate or [])
    values.append(result.infeasibility_gap)
    return {
        "rows": len(rows),
        "cols": len(rows[0]) if rows else 0,
        "pivots": result.iterations,
        "max_den_bits": max(v.denominator.bit_length() for v in values),
    }


_NOTES = {
    "simplex.solve": _solve_note,
    "lhv.critical_visibility": lambda args, result: {"solves": len(result.evaluations)},
}


def _wrap(tracer: Tracer, name: str, fn):
    note = _NOTES.get(name)
    if inspect.isgeneratorfunction(fn):
        @functools.wraps(fn)
        def traced_generator(*args, **kwargs):
            if not tracer.stack:
                return (yield from fn(*args, **kwargs))
            with tracer.span(name):
                return (yield from fn(*args, **kwargs))
        return traced_generator

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.stack:
            return fn(*args, **kwargs)
        with tracer.span(name) as span:
            result = fn(*args, **kwargs)
            if note is not None:
                span.note = note(args, result)
            return result
    return traced


@contextmanager
def patched(tracer: Tracer):
    """Route every boundary call through ``tracer`` while the block runs."""
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in BOUNDARIES]
    try:
        for owner, attr, name in BOUNDARIES:
            setattr(owner, attr, _wrap(tracer, name, owner.__dict__[attr]))
        yield tracer
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)
