"""Command-line front end.

Every probability or correlation on the wire is an exact rational rendered
as ``p/q``, and Monte Carlo summaries are integer counts; no float is used.
Outputs are byte-identical across runs for identical configurations (seeds
included).

Commands: ``expand``, ``classify``, ``dump-circuit``, ``correlations``,
``sample``, ``lhv-feasibility``, ``critical-visibility``, ``ghz-paradox``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from typing import Optional

# a command that needs measurement or lhv (and with it simplex) imports it itself, so
# that only the table and verdict commands load the tables and only the verdict
# commands the LP; only sample_events loads the sampler
from . import circuit as circuit_mod
from . import events as events_mod
from .fock import (
    GhzsimError,
    Record,
    StatePolynomial,
    parse_rational,
    pattern_from_json,
    render_polynomial,
)


class RunConfig(Record):
    """One parsed command line; an omitted flag takes its default here."""

    __slots__ = ()
    _fields = ("command", "output", "fmt", "seed", "visibility", "pulses", "pair_prob",
               "loss_prob", "redefined_trigger", "pattern", "depth", "slack")

    def __new__(cls, command: str, output: Optional[Path] = None, fmt: str = "text",
                seed: int = 0, visibility: Fraction = Fraction(1), pulses: int = 0,
                pair_prob: Fraction = Fraction(1, 10000), loss_prob: Fraction = Fraction(0),
                redefined_trigger: bool = False, pattern: Optional[str] = None, depth: int = 8,
                slack: Fraction = Fraction(0)):
        return tuple.__new__(cls, (command, output, fmt, seed, visibility, pulses, pair_prob,
                                   loss_prob, redefined_trigger, pattern, depth, slack))


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # emit the machine-readable envelope
        _emit_error("usage", message)
        raise SystemExit(2)


def _rational_flag(text: str) -> Fraction:
    # argparse reports a ValueError as "invalid <function> value"; this keeps the reason
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> _Parser:
    parser = _Parser(prog="ghzsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text):
        p = sub.add_parser(name, help=help_text)
        # an omitted flag stays out of the namespace, so RunConfig supplies it
        p.argument_default = argparse.SUPPRESS
        p.add_argument("--output", type=Path, help="artifact file path")
        p.add_argument("--format", dest="fmt", choices=("json", "csv", "text"))
        return p

    command("expand", "derive the emission, post-trigger and circuit states")
    p = command("classify", "classify a detection pattern (or the derived terms)")
    p.add_argument("--pattern", help='occupation JSON, e.g. {"a_H":1,"g_H":1}')
    command("dump-circuit", "print the element and composed mode transforms")
    p = command("correlations", "exact outcome tables and triple correlations")
    p.add_argument("--visibility", type=_rational_flag)
    p = command("sample", "Monte Carlo event stream (JSON lines)")
    p.add_argument("--pulses", type=int)
    p.add_argument("--pair-prob", type=_rational_flag)
    p.add_argument("--seed", type=int)
    p.add_argument("--loss-prob", type=_rational_flag)
    p.add_argument("--redefined-trigger", action="store_true")
    p = command("lhv-feasibility", "exact LP against the quantum tables")
    p.add_argument("--visibility", type=_rational_flag)
    p.add_argument("--slack", type=_rational_flag,
                   help="cell tolerance; write a negative value as --slack=-1/10")
    p = command("critical-visibility", "exact feasibility boundary from LP certificates")
    p.add_argument("--depth", type=int,
                   help="bisection depth of the reported bracket, from 1 to 1000")
    command("ghz-paradox", "the inequality-free contradiction count")
    return parser


def parse_argv(argv) -> RunConfig:
    return RunConfig(**vars(build_parser().parse_args(argv)))


def _emit_error(kind: str, message: str) -> None:
    envelope = {"error": {"type": kind, "message": message}}
    print(json.dumps(envelope, sort_keys=True), file=sys.stderr)


@contextmanager
def _atomic_output(path: Path):
    """A text handle on a temp file beside ``path`` that replaces it on success.

    A run that fails before the end leaves no partial file: ``path`` keeps
    its earlier content, or stays absent.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):  # name the artifact, not the pid-stamped temp file
            raise OSError(exc.errno, exc.strerror, str(path)) from None
        raise


def _finish(config: RunConfig, payload, lines, summary: str, table=None) -> int:
    """Render the artifact in ``config.fmt`` and write it: the JSON ``payload``,
    the text ``lines``, or the CSV ``table`` as ``(header, rows)`` where the
    command has one.  The human summary goes to stdout only beside a file."""
    if config.fmt == "csv" and table is None:
        _emit_error("usage", f"{config.command} has no csv form for these arguments")
        return 2
    if config.fmt == "json":
        artifact = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    elif config.fmt == "csv":
        artifact = _csv_text(*table)
    else:
        artifact = "\n".join(lines) + "\n"
    if config.output is None:
        sys.stdout.write(artifact)
        return 0
    with _atomic_output(config.output) as handle:
        handle.write(artifact)
    print(summary)
    return 0


def _csv_text(header, rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------


def _cmd_expand(config: RunConfig) -> int:
    emission = events_mod.two_pair_emission()
    post_trigger, heralded = events_mod.trigger_select(emission), events_mod.heralded_state()
    payload = events_mod.DERIVATION[0]((emission, post_trigger, heralded))
    labels = [term["class"] for term in payload["behind_circuit"]]
    lines = ["# two-pair emission", render_polynomial(emission),
             "# post-trigger", render_polynomial(post_trigger), "# behind circuit"]
    lines += [f"{render_polynomial(StatePolynomial([term]))}    {label}"
              for term, label in zip(heralded.terms.items(), labels)]
    rights = labels.count("right")
    summary = (f"expanded {len(labels)} post-trigger terms: {rights} right, "
               f"{len(labels) - rights} wrong-pair")
    return _finish(config, payload, lines, summary)


def _cmd_classify(config: RunConfig) -> int:
    if config.pattern is not None:
        try:
            obj = json.loads(config.pattern)
        except RecursionError:  # the decoder recurses once per nesting level
            raise ValueError("--pattern is nested too deeply to decode") from None
        pattern = pattern_from_json(obj)
        event = events_mod.classify_pattern(pattern)
        return _finish(config, events_mod.CLASSIFICATION[0]((pattern, event)),
                       [event.wire], event.wire)
    report = events_mod.pairing_report(events_mod.heralded_state())
    payload = events_mod.PAIRING_REPORT[0](report)
    census = sorted(payload["census"].items())
    lines = [f"right terms: {report.right_terms}", f"wrong terms: {report.wrong_terms}"]
    lines += [f"wrong-pair:{key} terms={count}" for key, count in census]
    table = (("double_station", "empty_station", "terms"),
             [(*key.split(","), count) for key, count in census])
    summary = f"right={report.right_terms} wrong={report.wrong_terms}"
    return _finish(config, payload, lines, summary, table)


def _cmd_dump_circuit(config: RunConfig) -> int:
    circuit = circuit_mod.innsbruck_circuit()
    return _finish(config, circuit_mod.CIRCUIT[0](circuit),
                   circuit_mod.circuit_text(circuit).splitlines(),
                   f"{len(circuit.elements)} elements")


def _cmd_correlations(config: RunConfig) -> int:
    from . import measurement as measurement_mod

    tables = measurement_mod.quantum_targets(config.visibility)
    payload = measurement_mod.QUANTUM_TABLES[0]((config.visibility, tables))
    correlations = payload["correlations"]
    lines = [f"visibility {config.visibility}"]
    lines += [f"E({code}) = {value}" for code, value in sorted(correlations.items())]
    lines.append(f"wrong mass = {tables[0].wrong_mass}")
    rows = [(table.settings.code, *(f"{r:+d}" for r in outcome),
             str(table.probabilities[outcome]))
            for table in tables for outcome in measurement_mod.OUTCOMES]
    table = (("settings", "r_g", "r_h", "r_z", "probability"), rows)
    summary = "E(xxx)={xxx} E(xyy)={xyy} E(yxy)={yxy} E(yyx)={yyx}".format(**correlations)
    return _finish(config, payload, lines, summary, table)


_PULSE_MARK = -1  # a pulse index no line can hold otherwise


def _line_parts(pattern, event_class, veto: bool) -> tuple:
    """The ``EVENT`` line of an event before and after its pulse index, and its
    class wire.  Only the pulse index differs between events of one pattern
    and veto flag, so the line is split around a marker index."""
    from .sampler import EVENT, SampledEvent  # loaded by the call that drew the event

    probe = SampledEvent(_PULSE_MARK, pattern, event_class, veto)
    text = json.dumps(EVENT[0](probe), sort_keys=True)
    head, tail = text.split(str(_PULSE_MARK))
    return head, tail + "\n", event_class.wire


def _stream_events(config: RunConfig, out) -> dict:
    """Write one JSON line per event as it is sampled; return the class counts.

    Each distinct (pattern, veto) is encoded once per call; a line is then its
    memoised head, the pulse index and its tail."""
    events = events_mod.sample_events(
        config.pulses, config.pair_prob, config.seed, config.loss_prob
    )
    memo: dict = {}
    counts: dict = {}
    for pulse, pattern, event_class, veto in events:  # each event unpacked once
        if config.redefined_trigger and veto:
            continue
        key = pattern, veto
        parts = memo.get(key)
        if parts is None:
            parts = memo[key] = _line_parts(pattern, event_class, veto)
        head, tail, wire = parts
        out.write(f"{head}{pulse}{tail}")
        counts[wire] = counts.get(wire, 0) + 1
    return counts


def _cmd_sample(config: RunConfig) -> int:
    if config.output is None:
        _stream_events(config, sys.stdout)
        return 0
    with _atomic_output(config.output) as handle:
        counts = _stream_events(config, handle)
    summary_rows = sorted(counts.items())
    if config.fmt == "json":
        print(json.dumps({"events": sum(counts.values()), "classes": dict(summary_rows)},
                         sort_keys=True, indent=2))
    else:
        sys.stdout.write(_csv_text(("class", "count"), summary_rows))
    return 0


def _cmd_lhv_feasibility(config: RunConfig) -> int:
    from . import lhv as lhv_mod

    problem = lhv_mod.FeasibilityProblem(
        lhv_mod.quantum_targets(config.visibility), slack=config.slack
    )
    outcome = lhv_mod.lhv_feasibility(problem)
    if not outcome.verified:  # evidence that fails its check is no verdict to ship
        raise GhzsimError(f"the verdict at V = {config.visibility} does not verify")
    certificate = outcome.certificate
    summary = (
        f"feasible at visibility {config.visibility}" if outcome.feasible else
        f"infeasible at visibility {config.visibility}; certificate value {certificate.value} "
        f"exceeds bound {certificate.strategy_bound} (verified={certificate.verified})"
    )
    payload = lhv_mod.FEASIBILITY_VERDICT[0]((config.visibility, outcome.feasible,
                                              outcome.chi_zero_weight, outcome.distribution,
                                              certificate))
    return _finish(config, payload, [summary], summary)


def _cmd_critical_visibility(config: RunConfig) -> int:
    from . import lhv as lhv_mod

    result = lhv_mod.critical_visibility(config.depth)
    summary = f"V* = {result.v_star}"
    return _finish(config, lhv_mod.CRITICAL_RESULT[0](result), [summary], summary)


def _cmd_ghz_paradox(config: RunConfig) -> int:
    from . import lhv as lhv_mod

    reports = [lhv_mod.ghz_paradox_check(conjugate) for conjugate in (False, True)]
    payload = lhv_mod.GHZ_PARADOX[0]((reports,))
    lines = [f"{'conjugate' if r.conjugate_convention else 'standard'}: strategies satisfying "
             f"all four constraints = {r.satisfying_all}; after dropping one = "
             f"{','.join(map(str, r.satisfying_after_drop))}" for r in reports]
    summary = f"contradiction: {payload['contradiction']}"
    return _finish(config, payload, lines + [summary], summary)


_DISPATCH = {
    "expand": _cmd_expand,
    "classify": _cmd_classify,
    "dump-circuit": _cmd_dump_circuit,
    "correlations": _cmd_correlations,
    "sample": _cmd_sample,
    "lhv-feasibility": _cmd_lhv_feasibility,
    "critical-visibility": _cmd_critical_visibility,
    "ghz-paradox": _cmd_ghz_paradox,
}


def run(config: RunConfig) -> int:
    if config.command not in _DISPATCH:
        _emit_error("usage", f"unknown command {config.command!r}")
        return 2
    try:
        return _DISPATCH[config.command](config)
    except (GhzsimError, ValueError) as exc:
        _emit_error(type(exc).__name__, str(exc))
        return 2
    except OSError as exc:
        _emit_error("io", str(exc))
        return 1
    except KeyboardInterrupt:  # SIGINT: an --output file is left as it was
        _emit_error("interrupted", "interrupted before the artifact was complete")
        return 130


def main(argv=None) -> None:
    raise SystemExit(run(parse_argv(sys.argv[1:] if argv is None else argv)))


if __name__ == "__main__":
    main()
