#!/usr/bin/env python3
"""Quickstart: define, verify and simulate a population protocol.

This walks the three layers of the library in ~60 lines:

1. **Construct** a protocol — either from the shipped families or by
   hand with the fluent builder.
2. **Verify** it exactly against its predicate (bottom-SCC consensus
   over every input up to a bound).
3. **Simulate** it under the uniform random scheduler and watch the
   interactions that drive it to consensus.

Run:  python examples/quickstart.py
"""

from repro import ProtocolBuilder, binary_threshold, counting, verify_protocol
from repro.simulation import CountScheduler, record_trace

# ----------------------------------------------------------------------
# 1. A shipped construction: x >= 10 with O(log 10) states.
# ----------------------------------------------------------------------
protocol = binary_threshold(10)
print(protocol.describe())
print()

# ----------------------------------------------------------------------
# 2. Exact verification: every input up to 14 agents, every fair
#    execution, the verdict must equal the predicate x >= 10.
# ----------------------------------------------------------------------
report = verify_protocol(protocol, counting(10), max_input_size=14)
report.raise_on_failure()
print(f"verified on {report.inputs_checked} inputs: computes {report.predicate}")
print()

# ----------------------------------------------------------------------
# 3. Simulation: a population of 12 agents decides "are we at least 10?"
# ----------------------------------------------------------------------
result = CountScheduler(protocol, seed=0).run(12, max_steps=100_000)
print(
    f"simulated n=12: converged={result.converged} after "
    f"{result.interactions} interactions "
    f"({result.parallel_time:.1f} parallel time)"
)
print(f"final configuration: {result.configuration.pretty()}")
print(f"consensus output: {protocol.output_of(result.configuration)}")
print()

# ----------------------------------------------------------------------
# 4. Watching a run: the trace of effective interactions.
# ----------------------------------------------------------------------
trace = record_trace(protocol, 11, max_steps=50_000, seed=4)
print(trace.summary(head=8))
print()

# ----------------------------------------------------------------------
# 5. Hand-written protocols via the builder: "is anybody ill?" — a
#    one-way epidemic deciding x_ill >= 1 over two input kinds.
# ----------------------------------------------------------------------
epidemic = (
    ProtocolBuilder("epidemic-detection")
    .state("healthy", output=0)
    .state("ill", output=1)
    .state("alerted", output=1)
    .rule("ill", "healthy", "ill", "alerted")
    .rule("alerted", "healthy", "alerted", "alerted")
    .input("h", "healthy")
    .input("i", "ill")
    .build()
)
from repro.core.predicates import Threshold

is_anybody_ill = Threshold({"i": 1}, 1)
report = verify_protocol(epidemic, is_anybody_ill, max_input_size=7)
print(f"epidemic-detection verified: {report.ok} ({report.inputs_checked} inputs)")
result = CountScheduler(epidemic, seed=1).run({"h": 99, "i": 1}, max_steps=500_000)
print(
    f"1 ill agent among 100: consensus {epidemic.output_of(result.configuration)} "
    f"after {result.parallel_time:.1f} parallel time"
)

# ----------------------------------------------------------------------
# 6. Measure it and remember the numbers: the benchmark ledger runs
#    registered workloads and writes a comparable, schema-versioned
#    artifact (median/MAD timing, peak memory, deterministic work
#    counts).  `python -m repro bench run` is the CLI face of this.
# ----------------------------------------------------------------------
from repro.obs.ledger import compare_artifacts, run_suite

artifact = run_suite(
    "micro",
    repeats=2,
    workload_filter=lambda w: w.name == "saturation.sequence",
)
entry = artifact["workloads"]["saturation.sequence"]
print(
    f"ledger: saturation.sequence median {entry['median_s'] * 1e3:.2f}ms, "
    f"peak {entry['peak_kb']:.0f}KB, work {entry['work']}"
)
assert compare_artifacts(artifact, artifact).ok("any")  # self-compare is clean
