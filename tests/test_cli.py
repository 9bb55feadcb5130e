"""Tests for the command-line interface."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.cli import main, resolve_protocol


class TestResolveProtocol:
    def test_builtin_binary(self):
        protocol = resolve_protocol("binary:6")
        assert "binary_threshold" in protocol.name

    def test_builtin_majority(self):
        assert resolve_protocol("majority").num_states == 4

    def test_builtin_modulo(self):
        protocol = resolve_protocol("modulo:1:3")
        assert protocol.num_states == 5

    def test_builtin_leaders(self):
        assert not resolve_protocol("leader-unary:3").is_leaderless
        assert not resolve_protocol("leader-binary:3").is_leaderless

    def test_builtin_election(self):
        assert resolve_protocol("election").num_states == 2

    def test_builtin_linear(self):
        protocol = resolve_protocol("linear:x - y >= 1")
        assert protocol.is_leaderless

    def test_json_file(self, tmp_path):
        from repro import binary_threshold
        from repro.io import dumps

        path = tmp_path / "p.json"
        path.write_text(dumps(binary_threshold(3)))
        protocol = resolve_protocol(str(path))
        assert protocol.num_states == 4

    def test_unknown_spec(self):
        with pytest.raises(SystemExit):
            resolve_protocol("nonsense:1")

    def test_bad_argument(self):
        with pytest.raises(SystemExit):
            resolve_protocol("binary:zero")


# (argv, expected message, exit code): handlers reject with one
# ``error:`` line and exit 1; argparse rejects a flag's value with its
# usage plus one ``error:`` line and exits 2.
MALFORMED_INPUTS = [
    (["describe", "nonsense:1"], "is neither a file nor a builtin", 1),
    (["describe", "binary:zero"], "cannot build 'binary:zero'", 1),
    (["simulate", "majority", "--input", "x=oops"], "malformed input assignment", 1),
    (["verify", "binary:3", "x >="], "malformed predicate", 1),
    (["compile", "x >="], "malformed predicate", 1),
    (["analyze", "binary:3", "x >= 3 +"], "malformed predicate", 1),
    (["simulate", "binary:3", "--input", "1"], "at least two agents", 1),
    (["simulate", "binary:3", "--input", "1", "--trials", "2"], "at least two agents", 1),
    (
        ["simulate", "binary:3", "--input", "1", "--trials", "2", "--engine", "vector"],
        "at least two agents",
        1,
    ),
    (["conformance", "binary:3", "--input", "1"], "at least two agents", 1),
    (["conformance", "binary:3", "--trajectory-seeds", "0"], "--trajectory-seeds: must be >= 1", 2),
    (["verify", "binary:3", "x >= 3", "--max-input", "-2"], "--max-input: must be >= 1", 2),
    (["certify", "binary:3", "--max-input", "0"], "--max-input: must be >= 1", 2),
    (["analyze", "binary:3", "--max-input", "-1"], "--max-input: must be >= 1", 2),
    (["analyze", "flat:5", "x >= 5", "--node-budget", "-1"], "--node-budget: must be >= 1", 2),
    (["bb", "2", "--max-input", "0"], "--max-input: must be >= 1", 2),
    (["bb", "2", "--budget", "-5"], "--budget: must be >= 1", 2),
]


@pytest.mark.parametrize(
    "argv,message,code",
    MALFORMED_INPUTS,
    ids=[" ".join(argv) for argv, _, _ in MALFORMED_INPUTS],
)
def test_malformed_input_is_a_one_line_error(argv, message, code, capsys):
    """Bad input exits non-zero with one ``error:`` line, never a traceback."""
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    if code == 1:
        text = exit_info.value.code
        assert isinstance(text, str), "SystemExit(str) prints the text and exits 1"
    else:
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ") and "Traceback" not in err
        # argparse's last line is "<prog>: error: argument ...".
        text = err.splitlines()[-1].split(": ", 1)[1]
    assert text.startswith("error: ") and "\n" not in text
    assert message in text


def _unreadable_protocol_file(tmp_path, kind):
    if kind == "directory":
        return str(tmp_path)
    path = tmp_path / f"{kind}.pp"
    path.write_text({"not-json": "not json at all\n", "not-a-protocol": "[1, 2]\n"}[kind])
    return str(path)


@pytest.mark.parametrize("kind", ["not-json", "directory", "not-a-protocol"])
@pytest.mark.parametrize("command", [["describe"], ["analyze"]], ids=["describe", "analyze"])
def test_unreadable_protocol_file_is_a_one_line_error(command, kind, tmp_path):
    """A path that exists but holds no protocol is rejected, not a traceback."""
    path = _unreadable_protocol_file(tmp_path, kind)
    with pytest.raises(SystemExit) as exit_info:
        main(command + [path])
    text = exit_info.value.code
    assert isinstance(text, str) and "\n" not in text
    assert text.startswith(f"error: cannot read protocol file {path!r}: ")


@pytest.mark.parametrize(
    "name, text, message",
    [
        ("garbage.jsonl", "not a trace\n", "no trace records"),
        ("lines.jsonl", "[1, 2]\n{\"type\": \"meta\"}\n", "line 1 is not a trace record"),
        ("nameless.json", json.dumps({"traceEvents": [{"ph": "X", "ts": 0, "dur": 1}]}),
         "trace event 0: span has no name"),
        ("counters.jsonl", '{"type": "span", "name": "x", "counters": [1]}\n',
         "malformed trace record"),
    ],
    ids=["garbage-jsonl", "non-record-line", "chrome-event-without-name", "field-of-wrong-shape"],
)
def test_malformed_trace_is_a_one_line_error(name, text, message, tmp_path, capsys):
    (tmp_path / name).write_text(text)
    path = str(tmp_path / name)
    with pytest.raises(SystemExit) as exit_info:
        main(["trace", "summarize", path])
    error = exit_info.value.code
    assert isinstance(error, str) and "\n" not in error
    assert error.startswith(f"error: cannot read trace {path!r}: ")
    assert message in error
    assert capsys.readouterr().out == ""


def test_cli_import_leaves_the_reporting_modules_unloaded(tmp_path):
    """``import repro.cli`` and a recorded ``analyze`` never load the ledger,
    the workload registry, the profiler or the HTML report."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, REPRO_RUNS_DIR=str(tmp_path / "runs"))
    env.pop("REPRO_NO_RUNS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = (
        "import contextlib, io, sys\n"
        "import repro.cli\n"
        "reporting = ['repro.obs.bench', 'repro.obs.ledger', 'repro.obs.profile', 'repro.obs.report']\n"
        "print(sorted(m for m in reporting if m in sys.modules))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert repro.cli.main(['analyze', 'binary:2', 'x >= 2', '--max-input', '3']) == 0\n"
        "print(sorted(m for m in reporting if m in sys.modules))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.splitlines() == ["[]", "[]"]
    assert os.listdir(tmp_path / "runs"), "the command was recorded"


def test_vector_engine_past_int64_pair_weights(capsys):
    """n(n-1) past the int64 range: the ensemble still runs to consensus."""
    code = main(
        [
            "simulate", "binary:4", "--input", "4000000000", "--trials", "2",
            "--engine", "vector", "--max-steps", str(10**12), "--json",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["population"] == 4_000_000_000
    assert payload["converged"] == 2
    assert payload["verdicts"] == {"1": 2}


class TestCommands:
    def test_describe(self, capsys):
        assert main(["describe", "binary:4"]) == 0
        out = capsys.readouterr().out
        assert "binary_threshold" in out and "transitions" in out

    def test_verify_ok(self, capsys):
        assert main(["verify", "binary:4", "x >= 4", "--max-input", "7"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_verify_failure_exit_code(self, capsys):
        assert main(["verify", "binary:4", "x >= 5", "--max-input", "7"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_simulate(self, capsys):
        code = main(
            ["simulate", "majority", "--input", "x=20,y=5", "--seed", "3", "--max-steps", "100000"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "consensus output: 1" in out

    def test_simulate_bare_count(self, capsys):
        code = main(["simulate", "binary:3", "--input", "5", "--seed", "1"])
        assert code == 0
        assert "consensus output: 1" in capsys.readouterr().out

    def test_simulate_bad_input(self):
        with pytest.raises(SystemExit):
            main(["simulate", "majority", "--input", "x=oops"])

    def test_certify_section4(self, capsys):
        assert main(["certify", "binary:4", "--section", "4"]) == 0
        assert "eta <= 4" in capsys.readouterr().out

    def test_certify_section5(self, capsys):
        assert main(["certify", "binary:2", "--section", "5"]) == 0
        assert "eta <=" in capsys.readouterr().out

    def test_dot(self, capsys):
        assert main(["dot", "binary:4"]) == 0
        assert capsys.readouterr().out.startswith("digraph")

    def test_compile_roundtrip(self, tmp_path, capsys):
        target = tmp_path / "alarm.json"
        code = main(["compile", "x >= 3 and x = 1 (mod 2)", "--trim", "-o", str(target)])
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["format"] == 1
        assert main(["verify", str(target), "x >= 3 and x = 1 (mod 2)", "--max-input", "7"]) == 0

    def test_compile_to_stdout(self, capsys):
        assert main(["compile", "x >= 2"]) == 0
        out = capsys.readouterr().out
        assert '"format": 1' in out

    def test_conformance_passes(self, capsys):
        code = main(["conformance", "majority", "--samples", "500"])
        out = capsys.readouterr().out
        assert code == 0
        assert "overall: PASS" in out
        assert "agent-list" in out and "count" in out and "vector" in out

    def test_conformance_rejects_zero_samples(self):
        # regression: samples=0 used to render a vacuous all-ok report
        # with dof = -1 instead of failing fast
        with pytest.raises(SystemExit):
            main(["conformance", "majority", "--samples", "0"])

    def test_conformance_json(self, capsys):
        code = main(["conformance", "binary:4", "--input", "6", "--samples", "400", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["vector_distribution_ok"] is True
        assert {r["scheduler"] for r in payload["first_step"]} == {
            "agent-list", "count", "vector",
        }
