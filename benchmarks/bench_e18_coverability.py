"""E18 — sharded, deduplicating, resumable Karp–Miller: the size wall falls.

The classic Karp–Miller walk re-explores every permutation of a
symmetric branch: at ``flat:8`` the 45-node tree cost 13,668 branch
expansions level-synchronously (and 464,821 in the original
per-branch DFS).  The frontier engine (``repro.reachability.frontier``)
expands each configuration once up to protocol automorphism, shards
each frontier round over the worker pool, and checkpoints round
boundaries into the analysis cache.  E18 measures the two shipped
ledger workloads:

* ``coverability.sharded_cold`` — the deduplicating construction at
  ``flat:8``; the work counters must show the collapse (one expansion
  per node instead of hundreds of thousands);
* ``coverability.sharded_resume`` — a checkpointing run killed at a
  tiny node budget, then resumed to completion; the resumed run must
  start from recovered state (``resumed_expansions > 0``), and both
  paths must agree with the known flat:7 tree (25 nodes, 1 limit).

The hard gates are the deterministic work counts.
"""

from __future__ import annotations

from repro.fmt import render_table, section
from repro.obs.bench import SUITE_MICRO
from repro.obs.ledger import run_suite


def coverability_artifact(repeats: int = 3) -> dict:
    return run_suite(
        SUITE_MICRO,
        repeats=repeats,
        memory=False,
        workload_filter=lambda w: w.name.startswith("coverability."),
    )


def test_e18_dedup_collapses_flat8(benchmark):
    artifact = benchmark.pedantic(coverability_artifact, rounds=1, iterations=1)
    workloads = artifact["workloads"]

    cold = workloads["coverability.sharded_cold"]
    # The collapse: one expansion per node — the classic walk performed
    # ~13.7k.
    assert cold["work"]["nodes"] == 45
    assert cold["work"]["limits"] == 1
    assert cold["work"]["coverability.karp_miller.expansions"] == 45
    assert cold["work"]["coverability.karp_miller.dedup_hits"] > 0

    resume = workloads["coverability.sharded_resume"]
    assert resume["work"]["nodes"] == 25
    assert resume["work"]["limits"] == 1
    assert resume["work"]["checkpoints"] > 0
    assert resume["work"]["resumed_expansions"] > 0

    print(section("E18 — Karp–Miller engine: dedup collapse + resume"))
    print(
        render_table(
            ["workload", "median", "expansions", "note"],
            [
                [
                    "flat:8 cold",
                    f"{cold['median_s'] * 1e3:.0f}ms",
                    str(cold["work"]["coverability.karp_miller.expansions"]),
                    f"{cold['work']['coverability.karp_miller.dedup_hits']} dedup hits",
                ],
                [
                    "flat:7 kill+resume",
                    f"{resume['median_s'] * 1e3:.0f}ms",
                    f"resumed at {resume['work']['resumed_expansions']}",
                    f"{resume['work']['checkpoints']} checkpoints written",
                ],
            ],
        )
    )
