"""Whole-command benchmark of the ``repro`` CLI.

Usage (from the repository root)::

    python3 cmdbench/run.py --workload analyze-cold --seed 1 --seconds 20 --trace 0

One benchmark process runs real ``python -m repro ...`` processes one
after another: a closed loop with a single client, every command at
``--jobs 1``.  Each command is timed from spawn to exit, its peak RSS is
read from ``wait4``, and its output is checked (see ``corpus.py``).
Passes over the workload's commands repeat until ``--seconds`` have
passed; the seed sets the command order of each pass and the
ensembles' ``--seed``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` instead runs
one untraced pass and one pass through ``traced.py`` (in-process, with
each layer's public functions timed) per round and prints the per-layer
metrics.  The last stdout line is the JSON result; the lines above it
are a readable report.  Every result is also appended to
``.cmdbench-work/history.jsonl``, from which the report pools the
per-command walls of all runs into a tail percentile.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from typing import Dict, List, Optional, Tuple

import corpus

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRACED = os.path.join(ROOT, "cmdbench", "traced.py")
WORK = os.path.join(ROOT, ".cmdbench-work")
HISTORY = os.path.join(WORK, "history.jsonl")

# Set-up is repeated and its median reported; the cache fill costs ~9 s,
# the probe of the cold workloads ~0.5 s.
SETUP_REPEATS = {"cold": 5, "warm": 3}
DEADLINE_S = 170.0  # every run ends within 180 s
COMMAND_TIMEOUT_S = 150.0
ACCOUNT_TOLERANCE_S = 0.1  # per command; see the README
ACCOUNT_TOLERANCE_SHARE = 0.05

END_TO_END = {"wall_s": "s", "cmd_p50_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_SECONDS = (
    "cli", "obs.recorder", "cache.fingerprint", "cache.get", "cache.put",
    "reachability.karp_miller", "diophantine.pottier", "bounds.section4", "bounds.section5",
    "bounds.report", "analysis.verify", "analysis.infer_basis", "analysis.saturation",
    "analysis.expected_time", "scenarios.run_checks", "simulation.vector", "simulation.count",
)
# Work counts read from the spans the flight recorder writes for each run.
SPAN_COUNTERS = {
    ("coverability.karp_miller", "expansions"): "reachability.km_expansions",
    ("coverability.karp_miller", "nodes"): "reachability.km_nodes",
    ("pottier.solve_equalities", "frontier_vectors"): "diophantine.frontier_vectors",
    ("pottier.solve_equalities", "minimal_solutions"): "diophantine.minimal_solutions",
    ("pipeline.section5", "basis_candidates"): "bounds.basis_candidates",
    ("simulate.run", "interactions"): "simulation.interactions",
}
_CACHE_LINE = re.compile(r"^cache: (\d+) hits, (\d+) misses", re.MULTILINE)
_RUN_LINE = re.compile(r"^run recorded: (\S+)$", re.MULTILINE)
_IMPORT_LINE = re.compile(r"^import time:\s+\d+ \|\s+(\d+) \| ( *)(\S+)$", re.MULTILINE)


@dataclass
class Result:
    command: corpus.Command
    wall_s: float
    rss_mb: float
    problems: List[str]
    stderr: str
    layers: Optional[dict] = None


@dataclass
class Env:
    """Fresh HOME, XDG_STATE_HOME and cache directories for one run."""

    directory: str
    variables: Dict[str, str]
    counter: int = 0

    def cache_dir(self, fresh: bool) -> str:
        if not fresh:
            return os.path.join(self.directory, "cache")
        self.counter += 1
        return os.path.join(self.directory, f"cache-{self.counter}")


@dataclass
class Bench:
    workload: corpus.Workload
    rng: random.Random
    run_dir: str
    deadline: float
    expected: Dict[str, str] = field(default_factory=corpus.load_expected)
    envs: int = 0
    spawns: int = 0
    failed_setup: int = 0

    # -- processes -----------------------------------------------------

    def fresh_env(self) -> Env:
        self.envs += 1
        directory = os.path.join(self.run_dir, f"env-{self.envs}")
        home = os.path.join(directory, "home")
        os.makedirs(home)
        variables = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        variables.update(
            PYTHONPATH=os.path.join(ROOT, "src"),
            HOME=home,
            XDG_STATE_HOME=os.path.join(directory, "state"),
        )
        return Env(directory, variables)

    def spawn(self, argv: List[str], env: Dict[str, str], name: str):
        """Run ``argv`` to completion: (exit code or None on timeout, wall, rss MB, out, err)."""
        out_path = os.path.join(self.run_dir, f"{name}.out")
        err_path = os.path.join(self.run_dir, f"{name}.err")
        timeout = min(COMMAND_TIMEOUT_S, max(1.0, self.deadline - time.monotonic()))
        lock = threading.Lock()
        state = {"reaped": False, "killed": False}
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            process = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                       env=env, cwd=ROOT)

            def kill():
                with lock:
                    if not state["reaped"]:
                        state["killed"] = True
                        os.kill(process.pid, signal.SIGKILL)

            timer = threading.Timer(timeout, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(process.pid, 0)
            except BaseException:
                kill()
                os.wait4(process.pid, 0)
                raise
            finally:
                with lock:
                    state["reaped"] = True
                timer.cancel()
            wall = time.perf_counter() - start
        process.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, errors="replace") as handle:
            stdout = handle.read()
        with open(err_path, errors="replace") as handle:
            stderr = handle.read()
        code = None if state["killed"] else process.returncode
        return code, wall, usage.ru_maxrss / 1024.0, stdout, stderr

    def run(self, command: corpus.Command, env: Env, traced: bool = False) -> Result:
        variables = dict(env.variables, REPRO_CACHE_DIR=env.cache_dir(self.workload.cold))
        self.spawns += 1
        name = f"cmd-{self.spawns}"
        prefix = [sys.executable, "-m", "repro"]
        layers_path = os.path.join(self.run_dir, f"{name}.layers.json")
        if traced:
            prefix = [sys.executable, "-X", "importtime", TRACED, layers_path]
        code, wall, rss, stdout, stderr = self.spawn(prefix + list(command.argv), variables, name)
        problems = corpus.check(command, code, stdout, stderr, self.expected)
        result = Result(command, wall, rss, problems, stderr)
        if traced and not result.problems:
            try:
                result.layers = self.layers(result, layers_path, variables["XDG_STATE_HOME"])
            except (OSError, ValueError) as error:
                result.problems.append(f"no layer record: {error}")
        return result

    # -- phases --------------------------------------------------------

    def set_up(self) -> Tuple[float, Env]:
        """Fresh directories, then the probe command (cold) or the cache fill (warm)."""
        start = time.perf_counter()
        env = self.fresh_env()
        commands = [corpus.PROBE] if self.workload.cold else self.workload.commands
        for command in commands:
            result = self.run(command, env)
            if result.problems:
                self.failed_setup += 1
                report_problem("set-up", result)
        return time.perf_counter() - start, env

    def another(self, begin: float, seconds: float, done: int) -> bool:
        """Whether to start another pass: time is left and it ends before the deadline."""
        now = time.monotonic()
        return now - begin < seconds and now + (now - begin) / done < self.deadline

    def one_pass(self, env: Env, traced: bool = False) -> List[Result]:
        order = self.rng.sample(self.workload.commands, len(self.workload.commands))
        return [self.run(command, env, traced) for command in order]

    def layers(self, result: Result, layers_path: str, state_home: str) -> dict:
        """The traced command's layer times, import times and exact work counts."""
        with open(layers_path) as handle:
            layers = json.load(handle)
        imports = {}
        for cumulative, indent, module in _IMPORT_LINE.findall(result.stderr):
            if module == "numpy" or (module == "repro.cli" and not indent):
                imports.setdefault(module, int(cumulative) / 1e6)
        layers["repro_cli_import_s"] = imports.get("repro.cli", 0.0)
        layers["numpy_import_s"] = imports.get("numpy", 0.0)
        counts = zero_counts()
        hits_misses = _CACHE_LINE.search(result.stderr)
        if hits_misses:
            counts["cache.hits"] += int(hits_misses.group(1))
            counts["cache.misses"] += int(hits_misses.group(2))
        run = _RUN_LINE.search(result.stderr)
        if run:
            trace = os.path.join(state_home, "repro", "runs", run.group(1), "trace.jsonl")
            with open(trace) as handle:
                for line in handle:
                    record = json.loads(line)
                    if record.get("type") != "span":
                        continue
                    for counter, value in record.get("counters", {}).items():
                        metric = SPAN_COUNTERS.get((record["name"], counter))
                        if metric:
                            counts[metric] += value
        layers["counts"] = counts
        return layers


def zero_counts() -> Dict[str, int]:
    return {metric: 0 for metric in list(SPAN_COUNTERS.values()) + ["cache.hits", "cache.misses"]}


def report_problem(phase: str, result: Result) -> None:
    print(f"FAILED ({phase}) repro {result.command.label}: {'; '.join(result.problems)}",
          file=sys.stderr)
    tail = result.stderr.strip().splitlines()[-5:]
    for line in tail:
        print(f"    {line}", file=sys.stderr)


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def end_to_end(setups: List[float], passes: List[List[Result]]) -> Dict[str, float]:
    return {
        "wall_s": median([sum(r.wall_s for r in p) for p in passes]),
        "cmd_p50_s": median([r.wall_s for p in passes for r in p]),
        "setup_s": median(setups),
        "peak_rss_mb": max(r.rss_mb for p in passes for r in p),
    }


def per_layer(python_s: float, rounds: List[dict]) -> Dict[str, float]:
    """Medians over rounds of the per-pass sums (counts repeat exactly)."""
    keys = rounds[0].keys()
    metrics = {key: median([r[key] for r in rounds]) for key in keys}
    metrics["import.python_s"] = python_s
    return metrics


def layer_metric(layer: str) -> str:
    return "cli.self_s" if layer == "cli" else f"{layer}_s"


def layer_round(untraced: List[Result], traced: List[Result]) -> dict:
    """One traced pass folded into per-layer metrics: sums over its commands."""
    layers = [r.layers for r in traced]
    metrics = {layer_metric(layer): sum(l["self_s"].get(layer, 0.0) for l in layers)
               for layer in LAYER_SECONDS}
    counts = {key: sum(l["counts"][key] for l in layers) for key in zero_counts()}
    metrics.update(counts)
    lookups = counts["cache.hits"] + counts["cache.misses"]
    simulated_s = metrics["simulation.vector_s"] + metrics["simulation.count_s"]
    traced_wall = sum(r.wall_s for r in traced)
    metrics.update({
        "import.repro_cli_s": median([l["repro_cli_import_s"] for l in layers]),
        "import.numpy_s": median([l["numpy_import_s"] for l in layers]),
        "import.total_s": sum(l["import_s"] for l in layers),
        "cli.main_s": sum(l["main_s"] for l in layers),
        "process.unattributed_s": sum(r.wall_s - r.layers["import_s"] - r.layers["main_s"]
                                      for r in traced),
        "obs.recorder_calls": sum(l["calls"].get("obs.recorder", 0) for l in layers),
        "cache.lookups": lookups,
        "cache.hit_ratio": counts["cache.hits"] / lookups if lookups else 0.0,
        "reachability.karp_miller_calls": sum(l["calls"].get("reachability.karp_miller", 0)
                                              for l in layers),
        "simulation.interactions_per_s": (counts["simulation.interactions"] / simulated_s
                                          if simulated_s else 0.0),
        "trace.overhead_s": traced_wall - sum(r.wall_s for r in untraced),
        "trace.wall_s": traced_wall,
    })
    return metrics


def accounting_problems(python_s: float, result: Result) -> List[str]:
    """Self times plus import plus interpreter start-up must account for the traced wall."""
    layers = result.layers
    problems = []
    self_sum = sum(layers["self_s"].values())
    if not layers["stack_balanced"] or abs(self_sum - layers["main_s"]) > 1e-3:
        problems.append(f"layer self times sum to {self_sum:.6f} s, main took {layers['main_s']:.6f} s")
    accounted = python_s + layers["import_s"] + self_sum
    slack = ACCOUNT_TOLERANCE_S + ACCOUNT_TOLERANCE_SHARE * result.wall_s
    if abs(result.wall_s - accounted) > slack:
        problems.append(f"traced wall {result.wall_s:.3f} s, accounted {accounted:.3f} s "
                        f"(tolerance {slack:.3f} s)")
    return problems


# ----------------------------------------------------------------------
# Report
# ----------------------------------------------------------------------


def provenance(seed: int) -> dict:
    sha = "unavailable (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for directory, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = "not installed"
    return {
        "seed": seed,
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy,
        "nproc": os.cpu_count(),
    }


def pooled_tail(workload: str) -> str:
    """The highest percentile with at least ten pooled samples beyond it."""
    walls = []
    if os.path.exists(HISTORY):
        with open(HISTORY) as handle:
            for line in handle:
                record = json.loads(line)
                if record["workload"] == workload and not record["trace"]:
                    walls.extend(record["command_walls_s"])
    for percentile in (99.9, 99, 95, 90, 75, 50):
        beyond = len(walls) * (1 - percentile / 100)
        if beyond >= 10:
            cut = statistics.quantiles(walls, n=1000, method="inclusive")[int(percentile * 10) - 1]
            return f"p{percentile:g} {cut:.3f} s over {len(walls)} pooled command walls"
    return f"fewer than 10 pooled command walls beyond the median ({len(walls)} so far)"


def print_passes(passes: List[List[Result]]) -> None:
    by_label: Dict[str, List[Result]] = {}
    for result in (r for p in passes for r in p):
        by_label.setdefault(result.command.label, []).append(result)
    print(f"{'command':72} {'median s':>9} {'max MB':>7}")
    for label, results in by_label.items():
        print(f"{label[:72]:72} {median([r.wall_s for r in results]):9.3f} "
              f"{max(r.rss_mb for r in results):7.1f}")


def print_layers(metrics: Dict[str, float]) -> None:
    wall = metrics["trace.wall_s"]
    ranked = [layer_metric(layer) for layer in LAYER_SECONDS]
    ranked += ["import.total_s", "process.unattributed_s"]
    selfs = sorted(((name, metrics[name]) for name in ranked), key=lambda item: -item[1])
    rows = [("import.python_s (per command)", metrics["import.python_s"]),
            ("import.repro_cli_s (per command)", metrics["import.repro_cli_s"])] + selfs
    print(f"traced pass wall {wall:.3f} s (tracing overhead {metrics['trace.overhead_s']:+.3f} s)")
    print(f"{'layer (self time, summed over the pass)':48} {'s':>9} {'share':>7}")
    for name, value in rows:
        print(f"{name:48} {value:9.3f} {value / wall if wall else 0:7.1%}")
    print("top self-time layers: " + ", ".join(name for name, value in selfs[:3] if value > 0))
    print("work: " + ", ".join(f"{k} {metrics[k]:g}" for k in sorted(metrics)
                               if layer_unit(k) in ("count", "ratio", "1/s")))


def print_accounting(python_s: float, traced: List[Result]) -> None:
    print(f"{'traced command':60} {'wall':>7} {'import':>7} {'main':>7} {'rest':>7}")
    for result in traced:
        layers = result.layers
        rest = result.wall_s - python_s - layers["import_s"] - layers["main_s"]
        print(f"{result.command.label[:60]:60} {result.wall_s:7.3f} {layers['import_s']:7.3f} "
              f"{layers['main_s']:7.3f} {rest:+7.3f}")


# ----------------------------------------------------------------------
# Main
# ----------------------------------------------------------------------


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "cli.py")):
        print(f"error: no repro sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    started = time.monotonic()
    rng = random.Random(args.seed)
    workload = corpus.build(args.workload, rng)
    run_dir = os.path.join(WORK, f"run-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        bench = Bench(workload, rng, run_dir, started + DEADLINE_S)
        if args.trace:
            return measure_layers(bench, args, started)
        return measure(bench, args, started)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(bench: Bench, args, started: float) -> int:
    setups = []
    for _ in range(SETUP_REPEATS["cold" if bench.workload.cold else "warm"]):
        seconds, env = bench.set_up()
        setups.append(seconds)
    passes: List[List[Result]] = []
    begin = time.monotonic()
    while not passes or bench.another(begin, args.seconds, len(passes)):
        passes.append(bench.one_pass(env))
    results = [r for p in passes for r in p]
    for result in results:
        if result.problems:
            report_problem("measured", result)
    failed = sum(1 for r in results if r.problems) + bench.failed_setup
    attempted = len(results) + bench.failed_setup
    metrics = end_to_end(setups, passes)
    facts = provenance(args.seed)
    record(args, facts, metrics, results)
    print(f"workload {args.workload}: {len(passes)} pass(es), {len(results)} commands, "
          f"set-ups {', '.join(f'{s:.3f}' for s in setups)} s, "
          f"{time.monotonic() - started:.1f} s in all")
    print("provenance: " + json.dumps(facts))
    print_passes(passes)
    print(f"error rate {failed}/{attempted}; tail: {pooled_tail(args.workload)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()},
    }))
    return 0


def measure_layers(bench: Bench, args, started: float) -> int:
    _, env = bench.set_up()
    bare = [bench.spawn([sys.executable, "-c", "pass"], env.variables, f"bare-{i}")[1]
            for i in range(5)]
    python_s = median(bare)
    rounds, results, accounting = [], [], []
    begin = time.monotonic()
    while not rounds or bench.another(begin, args.seconds, len(rounds)):
        untraced = bench.one_pass(env)
        traced = bench.one_pass(env, traced=True)
        results.extend(untraced + traced)
        if any(r.problems for r in untraced + traced):
            break
        for result in traced:
            problems = accounting_problems(python_s, result)
            if problems:
                accounting.append(f"{result.command.label}: {'; '.join(problems)}")
        rounds.append(layer_round(untraced, traced))
    for result in results:
        if result.problems:
            report_problem("traced round", result)
    for line in accounting:
        print(f"FAILED (accounting) {line}", file=sys.stderr)
    failed = sum(1 for r in results if r.problems) + bench.failed_setup + len(accounting)
    attempted = len(results) + bench.failed_setup
    metrics = per_layer(python_s, rounds) if rounds else {}
    facts = provenance(args.seed)
    record(args, facts, metrics, results)
    print(f"workload {args.workload}: {len(rounds)} traced round(s), "
          f"{time.monotonic() - started:.1f} s in all")
    print("provenance: " + json.dumps(facts))
    if metrics:
        print_layers(metrics)
        print_accounting(python_s, [r for r in results if r.layers])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": layer_unit(name)}
                    for name, value in metrics.items()},
    }))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def record(args, facts: dict, metrics: Dict[str, float], results: List[Result]) -> None:
    os.makedirs(WORK, exist_ok=True)
    entry = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": facts,
        "metrics": metrics,
        "command_walls_s": [r.wall_s for r in results if not r.problems],
        "failed": [r.command.label for r in results if r.problems],
    }
    with open(HISTORY, "a") as handle:
        handle.write(json.dumps(entry) + "\n")


if __name__ == "__main__":
    sys.exit(main())
