"""Command-line front end.

Every probability or correlation on the wire is an exact rational rendered
as ``p/q``; floats appear only in Monte Carlo summaries.  Outputs are
byte-identical across runs for identical configurations (seeds included).

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
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

from . import circuit as circuit_mod
from . import events as events_mod
from . import lhv as lhv_mod
from . import measurement as measurement_mod
from .fock import (
    GhzsimError,
    amplitude_to_json,
    pattern_from_json,
    pattern_to_json,
    render_polynomial,
)

@dataclass
class RunConfig:
    command: str
    output: Optional[Path] = None
    fmt: str = "text"
    seed: int = 0
    visibility: Fraction = Fraction(1)
    pulses: int = 0
    pair_prob: Fraction = Fraction(1, 10000)
    loss_prob: Fraction = Fraction(0)
    redefined_trigger: bool = False
    pattern: Optional[str] = None
    depth: int = 8
    slack: Fraction = Fraction(0)


def parse_rational(text: str) -> Fraction:
    """Exact parse of ``p/q`` or a decimal literal ("13/20" == "0.65")."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r} ({exc})") from None


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # emit the machine-readable envelope
        _emit_error("usage", message)
        raise SystemExit(2)


def build_parser() -> _Parser:
    parser = _Parser(prog="ghzsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        # an omitted flag stays out of the namespace, so RunConfig supplies it
        p.argument_default = argparse.SUPPRESS
        p.add_argument("--output", type=Path, help="artifact file path")
        p.add_argument("--format", dest="fmt", choices=("json", "csv", "text"))

    p = sub.add_parser("expand", help="derive the emission, post-trigger and circuit states")
    common(p)

    p = sub.add_parser("classify", help="classify a detection pattern (or the derived terms)")
    common(p)
    p.add_argument("--pattern", help='occupation JSON, e.g. {"a_H":1,"g_H":1}')

    p = sub.add_parser("dump-circuit", help="print the element and composed mode transforms")
    common(p)

    p = sub.add_parser("correlations", help="exact outcome tables and triple correlations")
    common(p)
    p.add_argument("--visibility", type=parse_rational)

    p = sub.add_parser("sample", help="Monte Carlo event stream (JSON lines)")
    common(p)
    p.add_argument("--pulses", type=int)
    p.add_argument("--pair-prob", type=parse_rational)
    p.add_argument("--seed", type=int)
    p.add_argument("--loss-prob", type=parse_rational)
    p.add_argument("--redefined-trigger", action="store_true")

    p = sub.add_parser("lhv-feasibility", help="exact LP against the quantum tables")
    common(p)
    p.add_argument("--visibility", type=parse_rational)
    p.add_argument("--slack", type=parse_rational)

    p = sub.add_parser("critical-visibility", help="exact feasibility boundary from LP certificates")
    common(p)
    p.add_argument("--depth", type=int)

    p = sub.add_parser("ghz-paradox", help="the inequality-free contradiction count")
    common(p)
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
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _finish(config: RunConfig, artifact: str, summary: str = "") -> int:
    """Write the artifact; the human summary goes to stdout only alongside a file."""
    if config.output is not None:
        with _atomic_output(config.output) as handle:
            handle.write(artifact)
        if summary:
            print(summary)
    else:
        sys.stdout.write(artifact)
        if not artifact.endswith("\n"):
            sys.stdout.write("\n")
    return 0


def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _csv_text(header, rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------


def _derivation_stages():
    emission = events_mod.two_pair_emission()
    post_trigger = events_mod.trigger_select(emission)
    behind_circuit = circuit_mod.innsbruck_circuit().apply(post_trigger)
    return emission, post_trigger, behind_circuit


def _cmd_expand(config: RunConfig) -> int:
    emission, post_trigger, behind = _derivation_stages()
    labeled = [
        (pattern, coeff, events_mod.classify_pattern(pattern).wire)
        for pattern, coeff in behind.terms.items()
    ]
    if config.fmt == "json":
        artifact = _json_dumps(
            {
                "two_pair_emission": _poly_json(emission),
                "post_trigger": _poly_json(post_trigger),
                "behind_circuit": [
                    {**_term_json(pattern, coeff), "class": label}
                    for pattern, coeff, label in labeled
                ],
            }
        )
    else:
        lines = [
            "# two-pair emission",
            render_polynomial(emission),
            "# post-trigger",
            render_polynomial(post_trigger),
            "# behind circuit",
        ]
        for pattern, coeff, label in labeled:
            term = render_polynomial(events_mod.StatePolynomial({pattern: coeff}))
            lines.append(f"{term}    {label}")
        artifact = "\n".join(lines) + "\n"
    rights = sum(1 for _, _, label in labeled if label == "right")
    summary = (f"expanded {len(labeled)} post-trigger terms: {rights} right, "
               f"{len(labeled) - rights} wrong-pair")
    return _finish(config, artifact, summary)


def _term_json(pattern, coeff) -> dict:
    return {"pattern": pattern_to_json(pattern), "amplitude": amplitude_to_json(coeff)}


def _poly_json(poly) -> list:
    return [_term_json(pattern, coeff) for pattern, coeff in poly.terms.items()]


def _cmd_classify(config: RunConfig) -> int:
    if config.pattern is not None:
        pattern = pattern_from_json(json.loads(config.pattern))
        event = events_mod.classify_pattern(pattern)
        artifact = (
            _json_dumps({"pattern": pattern_to_json(pattern), "class": event.wire})
            if config.fmt == "json"
            else f"{event.wire}\n"
        )
        return _finish(config, artifact, event.wire)
    _, _, behind = _derivation_stages()
    report = events_mod.pairing_report(behind)
    census = {
        f"{double.name},{empty.name}": count
        for (double, empty), count in sorted(
            report.census.items(), key=lambda kv: (kv[0][0].name, kv[0][1].name)
        )
    }
    payload = {
        "right_terms": report.right_terms,
        "wrong_terms": report.wrong_terms,
        "census": census,
    }
    if config.fmt == "json":
        artifact = _json_dumps(payload)
    elif config.fmt == "csv":
        artifact = _csv_text(
            ("double_station", "empty_station", "terms"),
            [tuple(key.split(",")) + (count,) for key, count in census.items()],
        )
    else:
        lines = [f"right terms: {report.right_terms}", f"wrong terms: {report.wrong_terms}"]
        lines += [f"wrong-pair:{key} terms={count}" for key, count in census.items()]
        artifact = "\n".join(lines) + "\n"
    return _finish(
        config, artifact, f"right={report.right_terms} wrong={report.wrong_terms}"
    )


def _cmd_dump_circuit(config: RunConfig) -> int:
    circuit = circuit_mod.innsbruck_circuit()
    if config.fmt == "json":
        composed = circuit.compose()
        artifact = _json_dumps(
            {
                "elements": [
                    {
                        "name": element.name,
                        "rules": _rules_json(element),
                    }
                    for element in circuit.elements
                ],
                "composed": _rules_json(composed),
            }
        )
    else:
        artifact = circuit_mod.circuit_text(circuit)
    return _finish(config, artifact, f"{len(circuit.elements)} elements")


def _rules_json(transform) -> dict:
    return {
        source.name: [
            {"mode": target.name, "amplitude": amplitude_to_json(coeff)}
            for target, coeff in targets
        ]
        for source, targets in sorted(
            transform.rules.items(), key=lambda kv: kv[0].sort_key
        )
    }


def _cmd_correlations(config: RunConfig) -> int:
    tables = lhv_mod.quantum_targets(config.visibility)
    correlations = {
        table.settings.code: measurement_mod.correlation_from_table(table)
        for table in tables
    }
    if config.fmt == "csv":
        rows = []
        for table in tables:
            for outcome in measurement_mod.OUTCOMES:
                rows.append(
                    (
                        table.settings.code,
                        f"{outcome[0]:+d}",
                        f"{outcome[1]:+d}",
                        f"{outcome[2]:+d}",
                        str(table.probabilities[outcome]),
                    )
                )
        artifact = _csv_text(("settings", "r_g", "r_h", "r_z", "probability"), rows)
    elif config.fmt == "json":
        artifact = _json_dumps(
            {
                "visibility": str(config.visibility),
                "tables": [measurement_mod.table_to_json(t) for t in tables],
                "correlations": {k: str(v) for k, v in correlations.items()},
            }
        )
    else:
        lines = [f"visibility {config.visibility}"]
        lines += [
            f"E({code}) = {value}" for code, value in sorted(correlations.items())
        ]
        lines.append(f"wrong mass = {tables[0].wrong_mass}")
        artifact = "\n".join(lines) + "\n"
    summary = "E(xxx)={xxx} E(xyy)={xyy} E(yxy)={yxy} E(yyx)={yyx}".format(
        **{k: str(v) for k, v in correlations.items()}
    )
    return _finish(config, artifact, summary)


def _stream_events(config: RunConfig, out) -> dict:
    """Write one JSON line per event as it is sampled; return the class counts."""
    events = events_mod.sample_events(
        config.pulses, config.pair_prob, config.seed, config.loss_prob
    )
    counts: dict = {}
    for event in events:
        if config.redefined_trigger and event.herald_veto:
            continue
        out.write(json.dumps(events_mod.event_to_json(event), sort_keys=True) + "\n")
        key = event.event_class.wire
        counts[key] = counts.get(key, 0) + 1
    return counts


def _cmd_sample(config: RunConfig) -> int:
    if config.output is None:
        _stream_events(config, sys.stdout)
        return 0
    with _atomic_output(config.output) as handle:
        counts = _stream_events(config, handle)
    summary_rows = sorted(counts.items())
    if config.fmt == "json":
        print(_json_dumps({"events": sum(counts.values()), "classes": dict(summary_rows)}), end="")
    else:
        sys.stdout.write(_csv_text(("class", "count"), summary_rows))
    return 0


def _cmd_lhv_feasibility(config: RunConfig) -> int:
    problem = lhv_mod.FeasibilityProblem(
        lhv_mod.quantum_targets(config.visibility), slack=config.slack
    )
    outcome = lhv_mod.lhv_feasibility(problem)
    payload = {"visibility": str(config.visibility), "feasible": outcome.feasible}
    if outcome.feasible:
        payload["chi_zero_weight"] = str(outcome.chi_zero_weight)
        payload["distribution"] = [
            {
                "g": list(strategy.g),
                "h": list(strategy.h),
                "z": list(strategy.z),
                "weight": str(weight),
            }
            for strategy, weight in outcome.distribution.items()
        ]
        summary = f"feasible at visibility {config.visibility}"
    else:
        payload["certificate"] = lhv_mod.certificate_to_json(outcome.certificate)
        summary = (
            f"infeasible at visibility {config.visibility}; certificate "
            f"value {outcome.certificate.value} exceeds bound "
            f"{outcome.certificate.strategy_bound} "
            f"(verified={outcome.certificate.verified})"
        )
    artifact = _json_dumps(payload) if config.fmt != "text" else summary + "\n"
    return _finish(config, artifact, summary)


def _cmd_critical_visibility(config: RunConfig) -> int:
    result = lhv_mod.critical_visibility(config.depth)
    payload = lhv_mod.critical_result_to_json(result)
    if config.fmt == "json":
        artifact = _json_dumps(payload)
    else:
        artifact = f"V* = {result.v_star}\n"
    return _finish(config, artifact, f"V* = {result.v_star}")


def _cmd_ghz_paradox(config: RunConfig) -> int:
    reports = [lhv_mod.ghz_paradox_check(conjugate) for conjugate in (False, True)]
    payload = {
        "conventions": [lhv_mod.ghz_report_to_json(report) for report in reports],
        "contradiction": all(r.contradiction for r in reports),
    }
    if config.fmt == "json":
        artifact = _json_dumps(payload)
    else:
        lines = []
        for report in reports:
            tag = "conjugate" if report.conjugate_convention else "standard"
            lines.append(
                f"{tag}: strategies satisfying all four constraints = "
                f"{report.satisfying_all}; after dropping one = "
                f"{','.join(map(str, report.satisfying_after_drop))}"
            )
        lines.append(f"contradiction: {payload['contradiction']}")
        artifact = "\n".join(lines) + "\n"
    return _finish(config, artifact, f"contradiction: {payload['contradiction']}")


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
    except (GhzsimError, ValueError, json.JSONDecodeError) as exc:
        _emit_error(type(exc).__name__, str(exc))
        return 2
    except OSError as exc:
        _emit_error("io", str(exc))
        return 1


def main(argv=None) -> None:
    try:
        config = parse_argv(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        raise SystemExit(exc.code)
    raise SystemExit(run(config))


if __name__ == "__main__":
    main()
