"""Command-line surface: artifacts, determinism, round-trips, error envelopes."""

import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import ghzsim
from ghzsim import lhv
from ghzsim.cli import RunConfig, _stream_events, main, parse_argv, parse_rational, run
from ghzsim.events import classify_pattern, sample_events
from ghzsim.lhv import (
    FeasibilityProblem,
    certificate_from_json,
    evaluate_certificate,
    quantum_targets,
)
from ghzsim.measurement import TABLE
from ghzsim.sampler import EVENT


def _run(capsys, argv):
    code = run(parse_argv(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_rational_accepts_both_forms():
    assert parse_rational("13/20") == Fraction(13, 20)
    assert parse_rational("0.65") == Fraction(13, 20)
    with pytest.raises(ValueError):
        parse_rational("two thirds")


def test_expand_text(capsys):
    code, out, err = _run(capsys, ["expand", "--format", "text"])
    assert code == 0 and not err
    assert "(-2)·γ^2·aH†·aV†·bH†·bV†" in out
    assert out.count("    right") == 2
    assert out.count("wrong-pair") == 6


def test_expand_json_roundtrips(capsys, tmp_path):
    target = tmp_path / "expand.json"
    code, out, _ = _run(capsys, ["expand", "--format", "json", "--output", str(target)])
    assert code == 0
    assert "2 right" in out
    payload = json.loads(target.read_text())
    assert len(payload["behind_circuit"]) == 8
    labels = [term["class"] for term in payload["behind_circuit"]]
    assert labels.count("right") == 2


def test_classify_pattern_argument(capsys):
    code, out, _ = _run(
        capsys, ["classify", "--pattern", '{"a_H":1,"g_H":1,"h_V":1,"z_V":1}']
    )
    assert code == 0 and out.strip() == "right"
    code, out, _ = _run(
        capsys, ["classify", "--pattern", '{"a_H":1,"g_H":1,"g_V":1,"z_V":1}']
    )
    assert out.strip() == "wrong-pair:G,H"


def test_classify_census(capsys):
    code, out, _ = _run(capsys, ["classify", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["right_terms"] == 2
    assert payload["wrong_terms"] == 6
    assert len(payload["census"]) == 6


def test_dump_circuit_text(capsys):
    code, out, _ = _run(capsys, ["dump-circuit"])
    assert code == 0
    assert "aV -> (1/2·√2)*h_H + (1/2·√2)*z_V" in out
    assert "# composed" in out


def test_correlations_csv_and_json_roundtrip(capsys, tmp_path):
    code, csv_out, _ = _run(capsys, ["correlations", "--format", "csv", "--visibility", "1"])
    assert code == 0
    lines = csv_out.strip().splitlines()
    assert lines[0] == "settings,r_g,r_h,r_z,probability"
    assert len(lines) == 1 + 8 * 8

    target = tmp_path / "correlations.json"
    code, out, _ = _run(
        capsys,
        ["correlations", "--format", "json", "--visibility", "13/20", "--output", str(target)],
    )
    assert code == 0 and "E(xxx)=13/20" in out
    payload = json.loads(target.read_text())
    tables = [TABLE[1](obj) for obj in payload["tables"]]
    assert tuple(tables) == quantum_targets(Fraction(13, 20))
    assert payload["correlations"]["yyx"] == "-13/20"


def test_sample_stream_and_summary(capsys, tmp_path):
    stream = tmp_path / "events.jsonl"
    argv = [
        "sample",
        "--pulses", "20000",
        "--pair-prob", "1/100",
        "--seed", "6",
        "--format", "csv",
        "--output", str(stream),
    ]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    assert out.splitlines()[0] == "class,count"
    lines = stream.read_text().splitlines()
    assert lines
    events = [EVENT[1](json.loads(line)) for line in lines]
    assert all(event.pulse_index < 20000 for event in events)


def test_sample_byte_identical_reruns(capsys, tmp_path):
    paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
    for path in paths:
        code, _, _ = _run(
            capsys,
            ["sample", "--pulses", "30000", "--pair-prob", "1/50", "--seed", "9",
             "--loss-prob", "1/10", "--output", str(path)],
        )
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


# sha256 of `sample --pulses 30000 --pair-prob 1/50 --seed 9 --loss-prob 1/10`
# as the exact geometric-gap sampler draws it: the event stream (on stdout or
# in the --output file) and the class summary printed alongside a file
SAMPLE_ARGV = ["sample", "--pulses", "30000", "--pair-prob", "1/50", "--seed", "9",
               "--loss-prob", "1/10"]
SAMPLE_STREAM_SHA256 = "73cd694f59006c986daba383e3e96446ac72f6aa4527cb2283a84ad1030330f4"
SAMPLE_SUMMARY_SHA256 = {
    "csv": "5f7e93d447f0a95f7cf03b3b46843f2921c907827f83d3167f24805cd1f8fe37",
    "json": "368ccf0ddf5ba525d35e59044b105d7483c81e6014eebfcf73adf68e60c6cff7",
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_sample_streamed_bytes_are_pinned(capsys, tmp_path):
    code, out, _ = _run(capsys, SAMPLE_ARGV)
    assert code == 0 and _sha256(out.encode()) == SAMPLE_STREAM_SHA256
    for fmt, digest in SAMPLE_SUMMARY_SHA256.items():
        target = tmp_path / f"{fmt}.jsonl"
        code, out, _ = _run(capsys, SAMPLE_ARGV + ["--format", fmt, "--output", str(target)])
        assert code == 0 and _sha256(out.encode()) == digest
        assert _sha256(target.read_bytes()) == SAMPLE_STREAM_SHA256
    assert sorted(p.name for p in tmp_path.iterdir()) == ["csv.jsonl", "json.jsonl"]


def _failing_sampler(real):
    def sample_events(*args, **kwargs):
        for index, event in enumerate(real(*args, **kwargs)):
            if index == 5:
                raise ValueError("sampler failed partway")
            yield event

    return sample_events


def test_failed_sample_run_leaves_no_partial_file(capsys, tmp_path, monkeypatch):
    import ghzsim.events

    monkeypatch.setattr(
        ghzsim.events, "sample_events", _failing_sampler(ghzsim.events.sample_events)
    )
    fresh = tmp_path / "fresh.jsonl"
    earlier = tmp_path / "earlier.jsonl"
    earlier.write_bytes(b"earlier artifact\n")
    for target in (fresh, earlier):
        code, out, err = _run(capsys, SAMPLE_ARGV + ["--output", str(target)])
        assert code == 2 and out == ""
        assert json.loads(err.strip())["error"]["message"] == "sampler failed partway"
    assert not fresh.exists()
    assert earlier.read_bytes() == b"earlier artifact\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["earlier.jsonl"]


def test_failed_artifact_replace_leaves_no_temp_file(capsys, tmp_path):
    target = tmp_path / "taken"
    target.mkdir()  # os.replace cannot put a file over a directory
    code = run(RunConfig(command="dump-circuit", output=target))
    assert code == 1
    assert json.loads(capsys.readouterr().err.strip())["error"]["type"] == "io"
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]


def test_sample_zero_pulses(capsys):
    code, out, _ = _run(capsys, ["sample", "--pulses", "0"])
    assert code == 0 and out == ""


def _one_envelope(err: str) -> dict:
    lines = err.splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])["error"]


def test_a_depth_past_the_maximum_exits_through_one_envelope(capsys, tmp_path):
    from ghzsim.lhv import MAX_DEPTH

    target = tmp_path / "threshold.json"
    code, out, err = _run(capsys, ["critical-visibility", "--depth", str(MAX_DEPTH + 1),
                                   "--output", str(target)])
    assert code == 2 and out == "" and not target.exists()
    assert _one_envelope(err) == {
        "type": "ValueError",
        "message": f"bisection depth must be from 1 to {MAX_DEPTH}, got {MAX_DEPTH + 1}"}
    code, out, err = _run(capsys, ["critical-visibility", "--depth", str(MAX_DEPTH),
                                   "--format", "json", "--output", str(target)])
    assert code == 0 and not err and out == "V* = 1/2\n"
    assert len(json.loads(target.read_text())["evaluations"]) == MAX_DEPTH + 2


def test_the_help_states_the_depth_maximum(capsys):
    from ghzsim.lhv import MAX_DEPTH

    with pytest.raises(SystemExit) as exit_info:
        parse_argv(["critical-visibility", "--help"])
    assert exit_info.value.code == 0
    assert f"from 1 to {MAX_DEPTH}" in " ".join(capsys.readouterr().out.split())


def test_the_quantum_tables_load_no_lp_and_no_sampler():
    loaded = _modules_loaded_by("import ghzsim\nghzsim.quantum_targets()")
    assert "ghzsim.events" in loaded
    assert not {"ghzsim.lhv", "ghzsim.simplex", "ghzsim.sampler", "dataclasses"} & loaded


def test_the_event_stream_loads_no_tables_and_no_lp():
    # the sampler reads the detector model in events, never the outcome tables
    loaded = _modules_loaded_by("import ghzsim\nfrom fractions import Fraction\n"
                                "next(ghzsim.events.sample_events(20000, Fraction(1, 20), 7, "
                                "Fraction(1, 10)))")
    assert {"ghzsim.events", "ghzsim.sampler"} <= loaded
    assert not {"ghzsim.measurement", "ghzsim.lhv", "ghzsim.simplex"} & loaded


def test_negative_pulses_exit_through_the_envelope(capsys, tmp_path):
    target = tmp_path / "events.jsonl"
    for argv in (["sample", "--pulses", "-5"],
                 ["sample", "--pulses", "-5", "--format", "json", "--output", str(target)]):
        code, out, err = _run(capsys, argv)
        assert code == 2 and out == ""
        assert _one_envelope(err) == {"type": "ConfigurationError",
                                      "message": "pulse count -5 is negative"}
    assert list(tmp_path.iterdir()) == []


def test_a_negative_seed_exits_through_the_envelope(capsys, tmp_path):
    # Random folds the sign of a seed, so --seed -5 wrote the artifact of --seed 5
    target = tmp_path / "events.jsonl"
    base = ["sample", "--pulses", "2000", "--pair-prob", "1/20"]
    for argv in (base + ["--seed", "-5"],
                 base + ["--seed=-5", "--format", "json", "--output", str(target)]):
        code, out, err = _run(capsys, argv)
        assert code == 2 and out == ""
        assert _one_envelope(err) == {"type": "ConfigurationError",
                                      "message": "seed -5 is negative"}
    assert list(tmp_path.iterdir()) == []


def test_sigint_exits_130_through_one_envelope(capsys, monkeypatch, tmp_path):
    first = next(sample_events(2000, Fraction(1, 20), 1))

    def interrupted(*args):
        yield first
        raise KeyboardInterrupt

    monkeypatch.setattr("ghzsim.events.sample_events", interrupted)
    target = tmp_path / "events.jsonl"
    with pytest.raises(SystemExit) as excinfo:
        main(["sample", "--pulses", "2000", "--output", str(target)])
    assert excinfo.value.code == 130
    captured = capsys.readouterr()
    assert captured.out == "" and _one_envelope(captured.err)["type"] == "interrupted"
    assert list(tmp_path.iterdir()) == []  # neither the artifact nor its temp file


def _child_env() -> dict:
    """The environment of a child interpreter that imports this checkout's ghzsim."""
    src = Path(ghzsim.__file__).resolve().parents[1]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))


def test_io_envelope_names_the_output_file_and_is_stable(tmp_path):
    # each run writes through a temp file stamped with its pid; the envelope
    # must name the --output path instead, so that two runs agree byte for byte
    target = tmp_path / "missing" / "x.json"
    argv = [sys.executable, "-m", "ghzsim.cli", "correlations", "--output", str(target)]
    runs = [subprocess.run(argv, capture_output=True, env=_child_env(), timeout=120)
            for _ in range(2)]
    assert [r.returncode for r in runs] == [1, 1] and runs[0].stdout == b""
    assert runs[0].stderr == runs[1].stderr
    error = _one_envelope(runs[0].stderr.decode())
    assert error["type"] == "io"
    assert str(target) in error["message"] and ".tmp" not in error["message"]


def _modules_loaded_by(program: str) -> set:
    """The modules a fresh interpreter loads while it runs ``program``; what
    the interpreter had loaded at start-up does not count."""
    wrapped = ("import json, sys\nbefore = set(sys.modules)\n" + program +
               "\nprint(json.dumps(sorted(set(sys.modules) - before)))")
    done = subprocess.run([sys.executable, "-c", wrapped], capture_output=True, text=True,
                          env=_child_env(), timeout=120)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_a_bare_import_loads_no_submodule():
    loaded = _modules_loaded_by("import ghzsim")
    assert "ghzsim" in loaded
    assert not [name for name in loaded if name.startswith("ghzsim.")]


# (argv, loads the tables, loads the LP): a command imports measurement, and lhv
# with simplex, only if it uses them.  Only sample loads the sampler; the LP's
# records and the sampled event are the only dataclasses, so the other commands
# never load dataclasses
COMMAND_MODULES = [
    (("sample", "--pulses", "20000", "--pair-prob", "1/20", "--loss-prob", "1/10"), False, False),
    (("dump-circuit",), False, False),
    (("classify", "--pattern", '{"a_H":1,"g_H":1,"h_V":1,"z_H":1}'), False, False),
    (("classify",), False, False),
    (("ghz-paradox",), True, True),
    (("correlations", "--visibility", "2/3"), True, False),
    (("expand",), False, False),
    (("lhv-feasibility", "--visibility", "13/20"), True, True),
    (("critical-visibility", "--depth", "2"), True, True),
]


@pytest.mark.parametrize("argv,loads_tables,loads_lp", COMMAND_MODULES, ids=[
    "sample", "dump-circuit", "classify-pattern", "classify-census", "ghz-paradox",
    "correlations", "expand", "lhv-feasibility", "critical-visibility"])
def test_a_command_loads_only_the_modules_it_uses(tmp_path, argv, loads_tables, loads_lp):
    full = [*argv, "--output", str(tmp_path / "artifact")]
    loaded = _modules_loaded_by(
        f"from ghzsim import cli\nassert cli.run(cli.parse_argv({full!r})) == 0")
    assert {"ghzsim.cli", "ghzsim.events"} <= loaded
    assert ("ghzsim.measurement" in loaded) == loads_tables
    lp = {"ghzsim.lhv", "ghzsim.simplex"}
    assert lp & loaded == (lp if loads_lp else set())
    samples = argv[0] == "sample"
    assert ("ghzsim.sampler" in loaded) == samples
    if not (loads_lp or samples):
        assert not {"dataclasses", "inspect"} & loaded
    # only events.derived_seed uses hashlib, and no command calls it
    assert "hashlib" not in loaded


# one argv per artifact-writing command; those marked True have a CSV form
FORMAT_CONTRACT = [
    (("expand",), False),
    (("classify",), True),
    (("classify", "--pattern", '{"a_H":1,"g_H":1,"g_V":1,"z_V":1}'), False),
    (("dump-circuit",), False),
    (("correlations", "--visibility", "2/3"), True),
    (("lhv-feasibility", "--visibility", "1/3"), False),
    (("critical-visibility", "--depth", "2"), False),
    (("ghz-paradox",), False),
]


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
@pytest.mark.parametrize("argv,has_csv", FORMAT_CONTRACT)
def test_every_format_ends_in_an_artifact_or_one_envelope(capsys, tmp_path, argv, has_csv, fmt):
    target = tmp_path / "artifact"
    code, out, err = _run(capsys, list(argv) + ["--format", fmt, "--output", str(target)])
    if fmt == "csv" and not has_csv:
        assert code == 2 and out == ""
        assert _one_envelope(err)["type"] == "usage"
        assert list(tmp_path.iterdir()) == []
        return
    assert code == 0 and not err and out
    artifact = target.read_text()
    assert artifact.endswith("\n") and artifact.strip()
    if fmt == "json":
        json.loads(artifact)
    if fmt == "csv":
        assert len(artifact.splitlines()) > 1


def test_sample_redefined_trigger_filters_vetoed(capsys, tmp_path):
    naive = tmp_path / "naive.jsonl"
    redefined = tmp_path / "redefined.jsonl"
    base = ["sample", "--pulses", "50000", "--pair-prob", "1/25", "--seed", "4",
            "--loss-prob", "1/5"]
    _run(capsys, base + ["--output", str(naive)])
    _run(capsys, base + ["--redefined-trigger", "--output", str(redefined)])
    naive_events = [json.loads(line) for line in naive.read_text().splitlines()]
    redefined_events = [json.loads(line) for line in redefined.read_text().splitlines()]
    assert any(event["veto"] for event in naive_events)
    assert not any(event["veto"] for event in redefined_events)
    assert [e for e in naive_events if not e["veto"]] == redefined_events


@settings(max_examples=60, deadline=None, derandomize=True)
@given(pulses=st.integers(0, 2000), seed=st.integers(0, 2**32),
       # the sampled values reach the sparse gap path, which starts near p = 1/94
       pair_prob=st.one_of(st.fractions(0, Fraction(3, 5), max_denominator=50),
                           st.sampled_from([Fraction(1, 100), Fraction(1, 10**4)])),
       loss_prob=st.fractions(0, 1, max_denominator=10), redefined=st.booleans())
def test_memoised_lines_are_the_codec_lines(pulses, seed, pair_prob, loss_prob, redefined):
    config = RunConfig(command="sample", pulses=pulses, seed=seed, pair_prob=pair_prob,
                       loss_prob=loss_prob, redefined_trigger=redefined)
    out = io.StringIO()
    counts = _stream_events(config, out)
    events = [e for e in sample_events(pulses, pair_prob, seed, loss_prob)
              if not (redefined and e.herald_veto)]
    assert out.getvalue().splitlines() == [
        json.dumps(EVENT[0](e), sort_keys=True) for e in events
    ]
    assert all(e.event_class == classify_pattern(e.pattern) for e in events)
    wires = [e.event_class.wire for e in events]
    assert counts == {wire: wires.count(wire) for wire in wires}


# sha256 of `sample --pulses 50000 --pair-prob 1/25 --seed 4 --loss-prob 1/5
# --redefined-trigger` from the exact geometric-gap sampler: the veto filter's
# stream
REDEFINED_STREAM_SHA256 = "ae9b319bd2a6455016c26f524d67ce4b65eda2398d255417c6eb48d3a3478e74"


def test_sample_redefined_trigger_stream_is_pinned(capsys):
    code, out, _ = _run(capsys, ["sample", "--pulses", "50000", "--pair-prob", "1/25",
                                 "--seed", "4", "--loss-prob", "1/5", "--redefined-trigger"])
    assert code == 0 and _sha256(out.encode()) == REDEFINED_STREAM_SHA256


def test_ten_billion_sparse_pulses_cost_what_their_events_cost(capsys, tmp_path):
    # about 100 events in 10^10 pulses; the sampler never visits an empty pulse
    target = tmp_path / "sparse.jsonl"
    code, out, _ = _run(capsys, ["sample", "--pulses", "10000000000",
                                 "--pair-prob", "1/100000000", "--format", "json",
                                 "--output", str(target)])
    assert code == 0
    events = [json.loads(line) for line in target.read_text().splitlines()]
    assert 50 < len(events) < 150
    pulses = [event["pulse"] for event in events]
    assert all(a < b for a, b in zip(pulses, pulses[1:])) and pulses[-1] < 10**10
    classes = {}
    for event in events:
        classes[event["class"]] = classes.get(event["class"], 0) + 1
    assert json.loads(out) == {"events": len(events), "classes": classes}


def test_lhv_feasibility_infeasible_report(capsys, tmp_path):
    target = tmp_path / "lhv.json"
    code, out, _ = _run(
        capsys,
        ["lhv-feasibility", "--visibility", "0.65", "--format", "json",
         "--output", str(target)],
    )
    assert code == 0
    assert "infeasible at visibility 13/20" in out
    payload = json.loads(target.read_text())
    assert payload["feasible"] is False
    assert payload["certificate"]["verified"] is True
    # the shipped certificate re-verifies from its JSON form alone
    coefficients = certificate_from_json(payload["certificate"])
    rebuilt = evaluate_certificate(
        FeasibilityProblem(quantum_targets(Fraction(13, 20))), coefficients
    )
    assert rebuilt.verified


@pytest.mark.parametrize("visibility,evidence", [
    ("1/2", {"solution": [Fraction(1, 256)] * 4}),  # right mass, wrong cells
    ("1", {"certificate": [Fraction(0)] * 65}),  # value 0 proves nothing
])
def test_a_verdict_whose_evidence_fails_its_check_is_refused(
    capsys, tmp_path, monkeypatch, visibility, evidence
):
    real = lhv.solve_feasibility
    monkeypatch.setattr(lhv, "solve_feasibility",
                        lambda rows, rhs: real(rows, rhs)._replace(**evidence))
    target = tmp_path / "lhv.json"
    for output in (["--output", str(target)], []):
        code, out, err = _run(capsys, ["lhv-feasibility", "--visibility", visibility,
                                       "--format", "json", *output])
        assert code == 2 and out == "" and not target.exists()
        assert _one_envelope(err) == {
            "type": "GhzsimError", "message": f"the verdict at V = {visibility} does not verify"}


def test_lhv_feasibility_feasible_report(capsys):
    code, out, _ = _run(
        capsys, ["lhv-feasibility", "--visibility", "1/2", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["feasible"] is True
    weights = [Fraction(entry["weight"]) for entry in payload["distribution"]]
    assert sum(weights) == Fraction(1, 4)
    assert Fraction(payload["chi_zero_weight"]) == Fraction(3, 4)


# sha256 of `lhv-feasibility --format json` as the LP over strategy orbits
# writes it: a feasible mixture gives every member of an orbit one weight (the
# 13/20 certificate is the full LP's, byte for byte; the full-row kernel
# solves are pinned in tests/test_lhv.py)
LHV_ARTIFACT_SHA256 = {
    ("1/2", "0"): "108a824bfe4f4aab9dc77d2369def261f18689109149ecee149d44c20d001b99",
    ("13/20", "0"): "6df62d95788750c5de1d53f5890002b2a80239d37e4bbe0862d22ca3dc4c432c",
    ("1", "1/64"): "275e9892e037ee6faffe37038dc29b106aff7d160e25bd0280752a154689bc5a",
}


@pytest.mark.parametrize("visibility,slack", sorted(LHV_ARTIFACT_SHA256))
def test_lhv_feasibility_artifacts_are_pinned(capsys, visibility, slack):
    argv = ["lhv-feasibility", "--visibility", visibility, "--slack", slack]
    code, out, _ = _run(capsys, argv + ["--format", "json"])
    assert code == 0
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == LHV_ARTIFACT_SHA256[visibility, slack]


# sha256 of the exact-expansion artifacts as the Fraction-field ring wrote
# them; the correlations/expand values equal perfbench/expected.json
EXPANSION_ARTIFACT_SHA256 = {
    ("correlations", "--format", "json"):
        "5e693e8d49d5ffb371cc8a1d6dbfc2bf4422be779bd8e9f160c72945f981b8d8",
    ("expand", "--format", "json"):
        "b46176db98aad0fed025078ada0b0d07b159b895f9599879cb05b69ea9e23602",
    ("dump-circuit",):
        "f73f8a093cf11c453c0accb24f123a575f4b7647665942b35ba6547e5b48bb27",
    ("dump-circuit", "--format", "json"):
        "3c1a8edeffa22772c3dcbcdc38b76e2642ba76168ec2b968700d7611fc0b7b29",
}


@pytest.mark.parametrize("argv", sorted(EXPANSION_ARTIFACT_SHA256))
def test_expansion_artifacts_are_pinned(capsys, argv):
    code, out, _ = _run(capsys, list(argv))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == EXPANSION_ARTIFACT_SHA256[argv]


# sha256 of the report artifacts as the hand-written to/from-JSON pairs wrote
# them: the declarative wire codec must not move a byte
REPORT_ARTIFACT_SHA256 = {
    ("ghz-paradox", "--format", "json"):
        "d9716e1d283bf782d3fec69eccf39dc815b4940d6d051c6e5b9f8cf1ff293b88",
    ("ghz-paradox", "--format", "text"):
        "03bd41a0f8ede16fbf257cc6cfec1f6b1abea016d5d19cdb6a9bd38eb0572701",
    ("classify", "--format", "json"):
        "4b05c0d4326c6876fe3091b7315fbec9633cd32c31ac9cb14a55fe45a1ad6a38",
    ("classify", "--format", "csv"):
        "55d6054f120e220b23dd8b5054cb9b9c40f99ebf8add117c66795e0dd1bf3524",
    ("classify", "--format", "text"):
        "f3e07356656ff8860fd22ae70382428f7085035007fcad79b19a33193ed3b6e3",
    ("classify", "--pattern", '{"a_H":1,"g_H":1,"h_V":1,"z_V":1}', "--format", "json"):
        "9df2e321e9f0702cdf98aa50146722d8de2868535275634426f3e6b0ec4d37f0",
    ("correlations", "--format", "csv"):
        "c6af13790b9615901c8bef24af2f1b3a9905d7c5c58f19091d0e4e5403e5d887",
    ("correlations", "--format", "text"):
        "bfcb938ca3c2fec5397a9acdc7258fd63dc79fdc1ecb70b4fb38eb75bbcc73a0",
    ("expand", "--format", "text"):
        "c7286c9bf0ec48541e1ff564bd49a96e7a1957fc155d021d78a1a044bcd28c50",
    ("lhv-feasibility", "--visibility", "13/20", "--format", "text"):
        "5bda57a4b6d5ac86ff5defcb4bfd84cfec9591a207683f73c27ff52fe462cf83",
}


@pytest.mark.parametrize("argv", sorted(REPORT_ARTIFACT_SHA256))
def test_report_artifacts_are_pinned(capsys, argv):
    code, out, _ = _run(capsys, list(argv))
    assert code == 0
    assert _sha256(out.encode()) == REPORT_ARTIFACT_SHA256[argv]


# sha256 of artifacts no other pin covers, as the per-command renderers wrote
# them before the format rule moved into one place
RENDERED_ARTIFACT_SHA256 = {
    ("classify", "--pattern", '{"a_H":1,"g_H":1,"h_V":1,"z_V":1}', "--format", "text"):
        "55c97802b397ef4da0d8e2ecf4a8fa33c1f4755da0eacec54c62cacbbcfd9713",
    ("lhv-feasibility", "--visibility", "1/2", "--format", "text"):
        "1e05bee6a5419dc789893edfb0a3802363d53456609234167d35d98071d70f17",
    ("lhv-feasibility", "--visibility", "1", "--slack", "1/64", "--format", "text"):
        "db7ff31ca14e688bae3f72c06ae632abfa75a8eba539b45c3291f683260bd0d3",
    ("correlations", "--visibility", "13/20", "--format", "json"):
        "5e6818226fcb5259c39fddb6ef2d1f03ade53422011d6f8a9c288389bbb35c9d",
    ("correlations", "--visibility", "13/20", "--format", "csv"):
        "ff8c7bf6eee8172299bf3d025fb01cc1368f4748e2868127de784b003ec2a394",
    ("correlations", "--visibility", "13/20", "--format", "text"):
        "0064e4ecec2ad06f5f821c291a1d5c867bdff8a0c12006dc03f1ca69519adda8",
}


@pytest.mark.parametrize("argv", sorted(RENDERED_ARTIFACT_SHA256))
def test_rendered_artifacts_are_pinned(capsys, argv):
    code, out, _ = _run(capsys, list(argv))
    assert code == 0
    assert _sha256(out.encode()) == RENDERED_ARTIFACT_SHA256[argv]


# sha256 of the human summary each command prints to stdout beside --output
OUTPUT_SUMMARY_SHA256 = {
    ("expand",): "2631e27ad4b89c6d3e141899268c4589113fea1375391e5e2e21f48f832aa0ff",
    ("classify",): "bcbe25478112f86e526f6d2321b938c0925321693ac13d4c4cacde2585d9d0c9",
    ("classify", "--pattern", '{"a_H":1,"g_H":1,"h_V":1,"z_V":1}'):
        "55c97802b397ef4da0d8e2ecf4a8fa33c1f4755da0eacec54c62cacbbcfd9713",
    ("dump-circuit",): "10c8dfac0b335c4c6f75835d6c402d7d6e078302fd0dc8dba7f1b1fe29f87b0d",
    ("correlations", "--visibility", "13/20"):
        "974aa91152b6eab0fb4146c7b69c8d2a9046cca9ad5eafb252d95ebe9eb6eae4",
    ("lhv-feasibility", "--visibility", "1/2"):
        "1e05bee6a5419dc789893edfb0a3802363d53456609234167d35d98071d70f17",
    ("lhv-feasibility", "--visibility", "13/20"):
        "5bda57a4b6d5ac86ff5defcb4bfd84cfec9591a207683f73c27ff52fe462cf83",
    ("critical-visibility", "--depth", "3"):
        "ef0bef7f47f12048b150ac2750f81a2ada081af42356f8a6c9d99ac5dacb8491",
    ("ghz-paradox",): "8db355e298b9e42473001bf6e85d54d5dc3320178d205af5728d517c353ec50b",
}


@pytest.mark.parametrize("argv", sorted(OUTPUT_SUMMARY_SHA256))
def test_output_summaries_are_pinned(capsys, tmp_path, argv):
    target = tmp_path / "artifact"
    code, out, _ = _run(capsys, list(argv) + ["--output", str(target)])
    assert code == 0 and target.read_bytes()
    assert _sha256(out.encode()) == OUTPUT_SUMMARY_SHA256[argv]


def test_critical_visibility_text(capsys):
    code, out, _ = _run(capsys, ["critical-visibility", "--depth", "3"])
    assert code == 0
    assert out.strip() == "V* = 1/2"


# sha256 of the `critical-visibility` artifacts as the bisection search wrote
# them, one LP solve per evaluation: the certificate-guided search must
# report the same bracket and the same verdicts byte for byte
THRESHOLD_ARTIFACT_SHA256 = {
    ("critical-visibility", "--format", "json"):
        "1e6e50bcbc33c39ead150c46f8e67a8a4bd44119033f75844ca603b8c31f4b8b",
    ("critical-visibility", "--format", "json", "--depth", "3"):
        "1224f2b3a06992d94a8f9044acb8af5bbe545236d1c45da393b3e242cf2094a5",
    ("critical-visibility",):
        "ef0bef7f47f12048b150ac2750f81a2ada081af42356f8a6c9d99ac5dacb8491",
    ("critical-visibility", "--depth", "3"):
        "ef0bef7f47f12048b150ac2750f81a2ada081af42356f8a6c9d99ac5dacb8491",
}


@pytest.mark.parametrize("argv", sorted(THRESHOLD_ARTIFACT_SHA256))
def test_threshold_artifacts_are_pinned(capsys, argv):
    code, out, _ = _run(capsys, list(argv))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == THRESHOLD_ARTIFACT_SHA256[argv]


# modes and enum members hash by address and strings by PYTHONHASHSEED, so set
# order may differ from one interpreter to the next; no artifact byte may
CROSS_RUN_PINS = {
    ("correlations", "--format", "json"):
        EXPANSION_ARTIFACT_SHA256["correlations", "--format", "json"],
    ("expand", "--format", "json"): EXPANSION_ARTIFACT_SHA256["expand", "--format", "json"],
    ("critical-visibility", "--format", "json"):
        THRESHOLD_ARTIFACT_SHA256["critical-visibility", "--format", "json"],
    tuple(SAMPLE_ARGV): SAMPLE_STREAM_SHA256,
}


@pytest.mark.parametrize("argv", sorted(CROSS_RUN_PINS))
def test_artifacts_are_the_same_in_interpreters_with_other_hashes(argv):
    runs = [subprocess.run([sys.executable, "-m", "ghzsim.cli", *argv], capture_output=True,
                           env={**_child_env(), "PYTHONHASHSEED": seed}, timeout=120)
            for seed in ("1", "2718281")]
    assert [done.returncode for done in runs] == [0, 0], runs[0].stderr
    assert runs[0].stdout == runs[1].stdout
    assert _sha256(runs[0].stdout) == CROSS_RUN_PINS[argv]


def test_threshold_search_solves_only_at_zero_one_and_the_root(monkeypatch):
    solved = []
    solve = lhv.feasibility_at_visibility

    def counting(visibility):
        solved.append(visibility)
        return solve(visibility)

    monkeypatch.setattr(lhv, "feasibility_at_visibility", counting)
    result = lhv.critical_visibility(8)
    assert solved == [Fraction(0), Fraction(1), Fraction(1, 2)]
    assert len(result.evaluations) == 10


def test_ghz_paradox_json(capsys):
    code, out, _ = _run(capsys, ["ghz-paradox", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["contradiction"] is True
    assert [c["satisfying_all"] for c in payload["conventions"]] == [0, 0]


def test_unknown_command_envelope(capsys):
    with pytest.raises(SystemExit) as excinfo:
        parse_argv(["no-such-command"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert json.loads(err.strip())["error"]["type"] == "usage"


def test_bad_rational_envelope(capsys):
    with pytest.raises(SystemExit) as excinfo:
        parse_argv(["correlations", "--visibility", "sixty-five%"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "visibility" in json.loads(err.strip())["error"]["message"]


def test_runtime_error_envelope(capsys):
    code = run(RunConfig(command="classify", pattern='{"nope": 1}'))
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.err.strip())["error"]["type"] == "InvalidModeError"


def test_unwritable_output_envelope(capsys, tmp_path):
    code = run(
        RunConfig(command="dump-circuit", output=tmp_path / "missing" / "x.txt")
    )
    captured = capsys.readouterr()
    assert code == 1
    assert json.loads(captured.err.strip())["error"]["type"] == "io"


def test_identical_configs_are_byte_identical(capsys):
    outputs = []
    for _ in range(2):
        _, out, _ = _run(capsys, ["correlations", "--format", "json", "--visibility", "2/3"])
        outputs.append(out)
    assert outputs[0] == outputs[1]


# sha256 of `lhv-feasibility --visibility 1 --slack 1/100`: its certificate
# value is y·b less slack·Σ|y_i| over the cells (49/100, not 9/4); the orbit
# LP's certificate, constant on cell orbits, differs from the full LP's, with
# the same value, so only the JSON moved
SLACK_CERTIFICATE_SHA256 = {
    "json": "4bda36c762576bf610f70d7502888f6ef07c401431ebaeaf90ec0e1eb005aed1",
    "text": "52b6686ad6192b90eb2f27be8239d28c9abab37300d35009c9318991852d56f0",
}


@pytest.mark.parametrize("fmt", sorted(SLACK_CERTIFICATE_SHA256))
def test_slack_certificate_artifacts_are_pinned(capsys, fmt):
    argv = ["lhv-feasibility", "--visibility", "1", "--slack", "1/100", "--format", fmt]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    assert _sha256(out.encode()) == SLACK_CERTIFICATE_SHA256[fmt]


@pytest.mark.parametrize("pattern", ['[1]', '"s"', '{"a_H":null}', '{"a_H":1.5}',
                                     '{"a_H":true}', '{"a_H":"1"}', '{"a_H":-1}',
                                     '{"a_H":1,"g_H":1,"h_V":1,"z_V":1,"bH":3}'])
def test_malformed_pattern_exits_through_one_envelope(capsys, tmp_path, pattern):
    target = tmp_path / "event.json"
    argv = ["classify", "--pattern", pattern, "--format", "json", "--output", str(target)]
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    assert _one_envelope(err)["type"] == "ValueError"
    assert list(tmp_path.iterdir()) == []


_rational_texts = st.one_of(
    st.fractions(min_value=-2, max_value=2, max_denominator=1000).map(str),
    st.fractions(min_value=0, max_value=1, max_denominator=1000).map(str),
    st.sampled_from(["0", "1", "-0", "0.65", "1/0", "x", "", "1//2", "nan", "-1/10"]),
)


def _int_texts(low, high):
    return st.one_of(st.integers(low, high).map(str), st.sampled_from(["1.5", "x", "", "1e3"]))


_json_leaves = st.one_of(st.integers(-2, 3), st.booleans(), st.none(),
                         st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=3))
_mode_names = st.sampled_from(["a_H", "g_H", "g_V", "h_V", "z_V", "a_X", ""])
_pattern_texts = st.one_of(
    st.dictionaries(_mode_names, _json_leaves, max_size=4).map(json.dumps),
    st.dictionaries(_mode_names, st.integers(0, 2), max_size=4).map(json.dumps),
    st.lists(_json_leaves, max_size=3).map(json.dumps),
    _json_leaves.map(json.dumps),
    st.sampled_from(["{", "", "{'a_H': 1}"]),
)
# each command's own flags; a flag from another command is a usage error
_FLAGS = {
    "expand": {},
    "classify": {"--pattern": _pattern_texts},
    "dump-circuit": {},
    "correlations": {"--visibility": _rational_texts},
    "sample": {"--pulses": _int_texts(-3, 10**4), "--pair-prob": _rational_texts,
               "--seed": _int_texts(-3, 10**6), "--loss-prob": _rational_texts},
    "lhv-feasibility": {"--visibility": _rational_texts, "--slack": _rational_texts},
    "critical-visibility": {"--depth": _int_texts(-2, 64)},
    "ghz-paradox": {},
}


@st.composite
def _argvs(draw):
    """An argv of one command and the --output case it writes to."""
    command = draw(st.sampled_from(sorted(_FLAGS)))
    argv = [command]
    for flag, values in _FLAGS[command].items():
        if draw(st.booleans()):
            argv.append(f"{flag}={draw(values)}")
    if command == "sample" and draw(st.booleans()):
        argv.append("--redefined-trigger")
    if draw(st.integers(0, 9)) == 0:
        argv.append(draw(st.sampled_from(["--depth=3", "--bogus", "stray"])))
    fmt = draw(st.sampled_from([None, "json", "csv", "text", "xml"]))
    if fmt:
        argv += ["--format", fmt]
    output = draw(st.sampled_from([None, "file", "missing", "under-a-file", "a-directory"]))
    return argv, output


def _artifact_parses(command: str, fmt: str, artifact: str) -> None:
    if command == "sample":  # the stream is JSON lines in every format
        for line in artifact.splitlines():
            json.loads(line)
    elif fmt == "json":
        json.loads(artifact)
    elif fmt == "csv":
        assert len(list(csv.reader(io.StringIO(artifact)))) > 1
    else:
        assert artifact.endswith("\n") and artifact.strip()


def _run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(parse_argv(argv))
        except SystemExit as exc:  # argparse's exit, after its envelope
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_argvs())
def test_every_argv_ends_in_an_artifact_or_one_envelope(tmp_path, case):
    argv, output = case
    workdir = Path(tempfile.mkdtemp(dir=tmp_path))
    (workdir / "a-file").write_text("")
    target = {None: None, "file": workdir / "artifact", "missing": workdir / "no" / "artifact",
              "under-a-file": workdir / "a-file" / "artifact", "a-directory": workdir}[output]
    if target is not None:
        argv = argv + ["--output", str(target)]
    before = sorted(workdir.iterdir())
    runs = []
    for _ in range(2):
        code, out, err = _run_in_process(argv)
        written = target.read_bytes() if code == 0 and output == "file" else None
        runs.append((code, out, err, written))
    assert runs[0] == runs[1]  # the same argv gives the same bytes
    code, out, err, written = runs[0]
    if code == 0:
        assert err == ""
        fmt = argv[argv.index("--format") + 1] if "--format" in argv else "text"
        _artifact_parses(argv[0], fmt, written.decode() if written is not None else out)
        assert sorted(workdir.iterdir()) == sorted(before + ([target] if written else []))
    else:
        assert code in (1, 2)
        assert set(_one_envelope(err)) == {"type", "message"}
        assert out == ""
        assert sorted(workdir.iterdir()) == before
