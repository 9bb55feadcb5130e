"""E14 — performance ledger: benchmark artifacts and regression detection.

The repo's defence against silent performance rot is the ledger
(``repro.obs.ledger``): every registered workload is measured into a
schema-versioned JSON artifact (median/MAD wall time, tracemalloc peak,
deterministic work counts, environment fingerprint) and any two
artifacts can be compared with MAD-based robust change detection.  E14
exercises that machinery end to end:

* runs a fast slice of the micro suite through :func:`run_suite` and
  prints the resulting ledger table — the experiment artifact;
* asserts the self-comparison is clean (no findings on identical
  artifacts) and that an injected 2x slowdown, a work-count drift, and
  a memory blow-up are each flagged as regressions of the right kind;
* checks the deterministic work counts are *exactly* reproducible
  across runs — the property that lets CI hard-fail on work drift even
  when shared-runner wall clock is pure noise.
"""

from __future__ import annotations

import copy
import json

from repro.fmt import render_table, section
from repro.obs.bench import SUITE_MICRO, get_workload
from repro.obs.ledger import SCHEMA_VERSION, compare_artifacts, run_suite

# Fast anchors only: the full micro suite belongs to `repro bench run`;
# E14 checks the machinery, not the numbers.
FAST_WORKLOADS = ("saturation.sequence", "certify.section4", "pottier.realisable_basis")


def fast_micro_artifact(repeats: int = 3) -> dict:
    return run_suite(
        SUITE_MICRO,
        repeats=repeats,
        workload_filter=lambda w: w.name in FAST_WORKLOADS,
    )


def test_e14_ledger_round_trip(benchmark):
    artifact = benchmark.pedantic(fast_micro_artifact, rounds=1, iterations=1)
    assert artifact["schema"] == SCHEMA_VERSION
    assert set(artifact["workloads"]) == set(FAST_WORKLOADS)
    for entry in artifact["workloads"].values():
        assert entry["median_s"] > 0
        assert entry["peak_kb"] is not None
        assert entry["work"], "every workload must report deterministic work counts"

    print(section("E14 — ledger artifact (fast micro slice)"))
    rows = [
        [
            name,
            f"{entry['median_s'] * 1e3:.2f}ms",
            f"{entry['mad_s'] * 1e6:.0f}us",
            f"{entry['peak_kb']:.0f}KB",
            " ".join(f"{k}={v}" for k, v in sorted(entry["work"].items())),
        ]
        for name, entry in sorted(artifact["workloads"].items())
    ]
    print(render_table(["workload", "median", "MAD", "peak mem", "work"], rows))

    # Self-comparison must be clean — identical artifacts, no findings.
    report = compare_artifacts(artifact, copy.deepcopy(artifact))
    assert report.ok("any")
    assert not report.findings


def test_e14_work_counts_exactly_reproducible():
    first = fast_micro_artifact(repeats=1)
    second = fast_micro_artifact(repeats=1)
    for name in FAST_WORKLOADS:
        assert first["workloads"][name]["work"] == second["workloads"][name]["work"], name


def test_e14_regression_kinds_detected():
    base = fast_micro_artifact(repeats=2)
    anchor = FAST_WORKLOADS[0]
    # Lift the anchor well above the absolute floors so the injected
    # deltas are attributable, then damage one axis per copy.
    base["workloads"][anchor]["median_s"] = 0.080
    base["workloads"][anchor]["mad_s"] = 0.001
    base["workloads"][anchor]["peak_kb"] = 4096.0

    work = dict(base["workloads"][anchor]["work"])
    drift_key = sorted(work)[0]
    work[drift_key] += 1  # off-by-one in a deterministic count: always fatal
    damaged = {
        "time": ("median_s", 0.160),
        "memory": ("peak_kb", 16384.0),
        "work": ("work", work),
    }
    print(section("E14 — regression detection, one axis at a time"))
    for kind, (field, value) in damaged.items():
        new = copy.deepcopy(base)
        new["workloads"][anchor][field] = value
        report = compare_artifacts(base, new)
        kinds = {f.kind for f in report.regressions()}
        assert kind in kinds, f"{kind} damage must surface as a {kind} regression"
        assert not report.ok("any")
        # the CI shared-runner policy: wall-clock noise tolerated,
        # work drift always fatal
        assert report.ok("work") == (kind != "work")
        print(f"[{kind}] " + "; ".join(f.render() for f in report.regressions()))


def test_e14_artifact_is_stable_json():
    artifact = fast_micro_artifact(repeats=1)
    dumped = json.dumps(artifact, indent=1, sort_keys=True)
    reloaded = json.loads(dumped)
    assert reloaded == artifact
    assert reloaded["kind"] == "repro-bench-ledger"


def test_e14_null_tracer_workload_guards_e12():
    # obs.null_tracer is the E12 disabled-path contract as a ledger
    # workload: memory spans off must leave the hot path untouched.
    workload = get_workload("obs.null_tracer")
    counts = workload.run()
    assert counts == {"iterations": 200_000}
