"""E16 — the vectorised ensemble engine: trials×states batched leaping.

The paper's lower bounds live in the large-``n`` regime, and the cost
of probing it empirically is dominated by ensemble simulation: the
scalar ``engine="count"`` path steps every trial through a per-event
Python loop, so 64 trials at ``n = 10^6`` burn one interpreter
iteration per interaction.  The vector engine
(``repro.simulation.vectorized``) advances the whole ensemble as one
``(trials, states)`` int64 matrix with batched numpy multinomial
draws.  E16 measures that trade on the ledger's shipped speedup pair
(``simulate.vector_large`` vs ``simulate.scalar_large``):

* both workloads run the *identical* instance — 64 trials of
  ``binary:8`` at ``n = 10^6``, 2000 interactions per trial — so their
  deterministic work counts must match exactly (asserted, as in CI);
* the vector median must beat the scalar median by at least 10x — the
  acceptance bar of the issue and the CI ledger job (locally the
  ratio is three orders of magnitude);
* the cold convergence workload (``simulate.vector_cold``) is timed
  alongside as the small-instance sanity point: vectorisation must
  not make the easy case pathological.
"""

from __future__ import annotations

from repro.fmt import render_table, section
from repro.obs.bench import SUITE_MICRO
from repro.obs.ledger import run_suite


def vector_artifact(repeats: int = 3) -> dict:
    return run_suite(
        SUITE_MICRO,
        repeats=repeats,
        memory=False,
        workload_filter=lambda w: w.name
        in ("simulate.vector_cold", "simulate.vector_large", "simulate.scalar_large"),
    )


def test_e16_vector_vs_scalar(benchmark):
    artifact = benchmark.pedantic(vector_artifact, rounds=1, iterations=1)
    workloads = artifact["workloads"]

    scalar = workloads["simulate.scalar_large"]
    vector = workloads["simulate.vector_large"]
    cold = workloads["simulate.vector_cold"]

    # The two sides of the speedup pair did exactly the same work.
    # (Only the instance-level counts: the span-derived silent_checks
    # counter legitimately differs — the scalar engine checks per
    # trial, the vector engine once per whole-ensemble round.)
    for key in ("trials", "converged", "interactions"):
        assert scalar["work"][key] == vector["work"][key], (
            f"speedup pair diverged on {key}: "
            f"{scalar['work'][key]} vs {vector['work'][key]}"
        )
    assert vector["work"]["interactions"] == 64 * 2000
    assert cold["work"]["converged"] == cold["work"]["trials"]

    # The reproduction bar: >= 10x at n = 10^6 (the issue's target is
    # 10-100x; batched draws typically land far above it).
    speedup = scalar["median_s"] / max(vector["median_s"], 1e-9)
    assert vector["median_s"] * 10 <= scalar["median_s"], (
        f"vector {vector['median_s']}s not 10x under scalar {scalar['median_s']}s"
    )

    rows = [
        [
            "simulate.vector_large",
            "vector",
            f"{vector['median_s'] * 1e3:.2f}ms",
            vector["work"]["interactions"],
        ],
        [
            "simulate.scalar_large",
            "count",
            f"{scalar['median_s'] * 1e3:.2f}ms",
            scalar["work"]["interactions"],
        ],
        [
            "simulate.vector_cold",
            "vector",
            f"{cold['median_s'] * 1e3:.2f}ms",
            cold["work"]["interactions"],
        ],
    ]
    print(section("E16 — vector vs scalar ensembles, 64 trials at n=10^6"))
    print(render_table(["workload", "engine", "median", "interactions"], rows))
    print(f"speedup (scalar / vector): {speedup:.0f}x")
