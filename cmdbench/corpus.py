"""The command corpus of each workload and the checks on its output.

Every command is a ``python -m repro ...`` argument vector.  Its output
is checked two ways:

* known answers that do not come from the tool itself: the threshold
  ``eta`` each family is built for, the verdict an ensemble must reach,
  and that every declared scenario check passes;
* unseeded commands must print exactly the stdout stored under
  ``expected/`` (see ``record_expected.py``), with the Karp–Miller
  ``tree: N nodes`` count masked, because that count legitimately
  changes with the exploration strategy.

Stderr may only carry the run-id line, the ``cache:`` summary and
``-X importtime`` lines; anything else (a ``Traceback`` in particular)
is a failure, as are a non-zero exit and a timeout.
"""

from __future__ import annotations

import os
import random
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

EXPECTED_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected")

# Stderr lines a correct command may print.
_ALLOWED_STDERR = re.compile(r"^(run recorded: \S+|cache: \d+ hits, \d+ misses \(.*\)|import time:.*)$")
_TREE_LINE = re.compile(r"^tree: \d+ nodes,", re.MULTILINE)
_ETA_CLAIM = re.compile(r"eta <= (\d+)")
_SCENARIO_LINE = re.compile(r"^   (pass|FAIL)\s", re.MULTILINE)
_ENSEMBLE_LINE = re.compile(r"^(\d+) runs, (\d+) converged", re.MULTILINE)
_VERDICT_LINE = re.compile(r"^  verdict (\S+): (\d+) runs", re.MULTILINE)


@dataclass(frozen=True)
class Command:
    """One ``repro`` invocation and the answers its output must show."""

    argv: Tuple[str, ...]
    kind: str  # analyze | verify | certify | scenarios | simulate | plain
    eta: Optional[int] = None  # the family's threshold: every "eta <= a" needs a >= eta
    verdict: Optional[str] = None  # simulate: the verdict every trial must reach
    trials: Optional[int] = None

    @property
    def label(self) -> str:
        argv = list(self.argv)
        if "--max-steps" in argv:
            flag = argv.index("--max-steps")
            del argv[flag:flag + 2]
        return " ".join(argv)

    @property
    def expected_name(self) -> Optional[str]:
        """File under ``expected/`` holding the stored stdout (unseeded only)."""
        if self.kind == "simulate":
            return None
        return re.sub(r"[^A-Za-z0-9_.-]+", "_", " ".join(self.argv)).strip("_") + ".out"


def _analyze(spec: str, eta: int) -> Command:
    return Command(("analyze", spec, f"x >= {eta}"), "analyze", eta=eta)


def _simulate(spec: str, inputs: str, trials: int, engine: str, max_steps: int, seed: int,
              verdict: str = "1") -> Command:
    argv = ("simulate", spec, "--input", inputs, "--trials", str(trials), "--engine", engine,
            "--seed", str(seed), "--max-steps", str(max_steps))
    return Command(argv, "simulate", verdict=verdict, trials=trials)


# Budgets of 1000 units of parallel time: every ensemble converges after
# about 20, so a non-converged trial is a defect, not a short budget.
def _ensembles(seeds: List[int]) -> List[Command]:
    return [
        _simulate("binary:8", "1000000", 4096, "vector", 10**9, seeds[0]),
        # Just under the vector engine's 3e9 int64 ceiling.
        _simulate("binary:12", "2000000000", 512, "vector", 2 * 10**12, seeds[1]),
        _simulate("approx-majority", "x=600000,y=400000", 512, "vector", 10**9, seeds[2]),
        # The pure-Python exact sampler.
        _simulate("binary:8", "2000", 16, "count", 2 * 10**6, seeds[3]),
    ]


def _interactive(seeds: List[int]) -> List[Command]:
    return [
        _analyze("flat:6", 6),
        _analyze("binary:12", 12),
        _analyze("leroux-leader:1", 2),
        Command(("describe", "binary:10"), "plain"),
        Command(("dot", "flat:6"), "plain"),
        Command(("verify", "binary:6", "x >= 6"), "verify"),
        Command(("certify", "binary:6", "--section", "4"), "certify", eta=6),
        Command(("certify", "binary:4", "--section", "5"), "certify", eta=4),
        Command(("scenarios", "check"), "scenarios"),
        _simulate("binary:8", "100000", 64, "vector", 10**8, seeds[0]),
    ]


def _analyze_cold(seeds: List[int]) -> List[Command]:
    return [
        _analyze("flat:5", 5),
        _analyze("flat:6", 6),
        _analyze("flat:7", 7),
        _analyze("binary:10", 10),
        _analyze("binary:12", 12),
        _analyze("leroux-leader:1", 2),
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    commands: List[Command]
    cold: bool  # every command gets its own empty cache (else one cache, filled in set-up)


# The command every set-up runs once to check the program starts.
PROBE = Command(("describe", "binary:2"), "plain")

WORKLOADS = ("analyze-cold", "interactive-warm", "simulate-ensemble")


def build(name: str, rng: random.Random) -> Workload:
    """The workload's commands; ``rng`` draws only the ensembles' ``--seed``."""
    seeds = [rng.randrange(1, 2**31) for _ in range(4)]
    if name == "analyze-cold":
        return Workload(name, _analyze_cold(seeds), cold=True)
    if name == "interactive-warm":
        return Workload(name, _interactive(seeds), cold=False)
    if name == "simulate-ensemble":
        return Workload(name, _ensembles(seeds), cold=True)
    raise ValueError(f"unknown workload {name!r} (known: {', '.join(WORKLOADS)})")


def all_unseeded() -> List[Command]:
    """Every command whose stdout is stored under ``expected/``."""
    commands = [PROBE]
    for name in WORKLOADS:
        for command in build(name, random.Random(0)).commands:
            if command.expected_name and command not in commands:
                commands.append(command)
    return commands


def mask(stdout: str) -> str:
    return _TREE_LINE.sub("tree: * nodes,", stdout)


def check(command: Command, code: Optional[int], stdout: str, stderr: str,
          expected: Dict[str, str]) -> List[str]:
    """Every reason the command's run is wrong (empty when it is right)."""
    if code is None:
        return ["timed out"]
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if "Traceback" in stderr:
        problems.append("traceback on stderr")
    stray = [line for line in stderr.splitlines() if line and not _ALLOWED_STDERR.match(line)]
    if stray:
        problems.append(f"unexpected stderr: {stray[0][:120]!r}")
    if command.expected_name is not None:
        want = expected.get(command.expected_name)
        if want is None:
            problems.append(f"no stored stdout {command.expected_name}")
        elif mask(stdout) != mask(want):
            problems.append("stdout differs from the stored expected output")
    problems.extend(_known_answers(command, stdout))
    return problems


def _known_answers(command: Command, stdout: str) -> List[str]:
    problems = []
    if command.kind == "analyze" and "\nVERIFIED on all " not in stdout:
        problems.append(f"not VERIFIED against x >= {command.eta}")
    if command.kind == "verify" and not stdout.startswith("OK: "):
        problems.append("verify did not report OK")
    if command.eta is not None:
        claims = [int(a) for a in _ETA_CLAIM.findall(stdout)]
        if command.kind == "certify" and not claims:
            problems.append("no eta <= a certificate")
        problems.extend(f"unsound certificate eta <= {a} for eta = {command.eta}"
                        for a in claims if a < command.eta)
    if command.kind == "scenarios":
        verdicts = _SCENARIO_LINE.findall(stdout)
        if not verdicts or "FAIL" in verdicts:
            problems.append(f"scenario checks: {verdicts.count('FAIL')} FAIL of {len(verdicts)}")
    if command.kind == "simulate":
        runs = _ENSEMBLE_LINE.search(stdout)
        verdicts = dict(_VERDICT_LINE.findall(stdout))
        if runs is None or int(runs.group(1)) != command.trials or int(runs.group(2)) != command.trials:
            problems.append("not every trial converged")
        if verdicts != {command.verdict: str(command.trials)}:
            problems.append(f"verdicts {verdicts}, expected all {command.verdict}")
    return problems


def load_expected() -> Dict[str, str]:
    stored = {}
    if os.path.isdir(EXPECTED_DIR):
        for name in os.listdir(EXPECTED_DIR):
            with open(os.path.join(EXPECTED_DIR, name)) as handle:
                stored[name] = handle.read()
    return stored
