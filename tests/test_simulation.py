"""Tests for the simulators: exact schedulers, tau-leaps, convergence, traces."""

from __future__ import annotations

import numpy as np
import pytest

from repro import binary_threshold, majority_protocol
from repro.core.errors import ProtocolError
from repro.core.multiset import Multiset
from repro.protocols.leaders import leader_unary_threshold
from repro.simulation.convergence import (
    convergence_scaling,
    fit_nlogn,
    measure_convergence,
)
from repro.simulation.scheduler import AgentListScheduler, CountScheduler
from repro.simulation.trace import record_trace
from repro.simulation.vectorized import VectorEnsembleScheduler


class TestAgentListScheduler:
    def test_reset_builds_initial(self, threshold4):
        scheduler = AgentListScheduler(threshold4, seed=0)
        scheduler.reset(5)
        assert scheduler.configuration == Multiset({"2^0": 5})

    def test_step_preserves_population(self, threshold4):
        scheduler = AgentListScheduler(threshold4, seed=0)
        scheduler.reset(5)
        for _ in range(50):
            scheduler.step()
            assert len(scheduler.agents) == 5

    def test_run_converges_to_acceptance(self, threshold4):
        scheduler = AgentListScheduler(threshold4, seed=1)
        result = scheduler.run(8, max_steps=50_000)
        assert result.converged
        assert threshold4.output_of(result.configuration) == 1

    def test_run_converges_to_rejection(self, threshold4):
        scheduler = AgentListScheduler(threshold4, seed=1)
        result = scheduler.run(3, max_steps=50_000)
        assert result.converged
        assert threshold4.output_of(result.configuration) == 0

    def test_population_too_small(self, threshold4):
        scheduler = AgentListScheduler(threshold4, seed=0)
        scheduler.agents = ["2^0"]
        with pytest.raises(ProtocolError):
            scheduler.step()

    def test_seeded_reproducibility(self, threshold4):
        a = AgentListScheduler(threshold4, seed=42).run(6, max_steps=10_000)
        b = AgentListScheduler(threshold4, seed=42).run(6, max_steps=10_000)
        assert a.interactions == b.interactions
        assert a.configuration == b.configuration


class TestCountScheduler:
    def test_matches_initial(self, threshold4):
        scheduler = CountScheduler(threshold4, seed=0)
        scheduler.reset(6)
        assert scheduler.configuration == Multiset({"2^0": 6})
        assert scheduler.population == 6

    def test_step_preserves_population(self, threshold4):
        scheduler = CountScheduler(threshold4, seed=3)
        scheduler.reset(6)
        for _ in range(100):
            scheduler.step()
            assert scheduler.population == 6
            assert all(c >= 0 for c in scheduler.counts)

    def test_run_accepts_and_rejects_correctly(self, threshold4):
        accept = CountScheduler(threshold4, seed=5).run(9, max_steps=100_000)
        assert accept.converged and threshold4.output_of(accept.configuration) == 1
        reject = CountScheduler(threshold4, seed=5).run(3, max_steps=100_000)
        assert reject.converged and threshold4.output_of(reject.configuration) == 0

    def test_leader_protocol(self):
        protocol = leader_unary_threshold(3)
        result = CountScheduler(protocol, seed=2).run(5, max_steps=100_000)
        assert result.converged
        assert protocol.output_of(result.configuration) == 1

    def test_parallel_time(self, threshold4):
        result = CountScheduler(threshold4, seed=0).run(4, max_steps=10_000)
        assert result.parallel_time == result.interactions / result.population

    def test_step_outcome_fields(self, threshold4):
        scheduler = CountScheduler(threshold4, seed=0)
        scheduler.reset(4)
        outcome = scheduler.step()
        assert len(outcome.pre) == 2 and len(outcome.post) == 2

    def test_distribution_agrees_with_agent_list(self, majority):
        """Both exact samplers should produce similar outcome frequencies."""
        inputs = {"x": 5, "y": 3}
        wins = {"count": 0, "list": 0}
        for seed in range(30):
            c = CountScheduler(majority, seed=seed).run(inputs, max_steps=40_000)
            l = AgentListScheduler(majority, seed=seed + 1000).run(inputs, max_steps=40_000)
            wins["count"] += majority.output_of(c.configuration) == 1
            wins["list"] += majority.output_of(l.configuration) == 1
        # x has an absolute majority of active pairs; both should mostly accept
        assert abs(wins["count"] - wins["list"]) <= 12


class TestBatchScheduler:
    """Tau-leaping one trajectory: the vector engine at ``trials=1``."""

    def test_population_conserved(self, threshold4):
        scheduler = VectorEnsembleScheduler(threshold4, trials=1, seed=0)
        scheduler.reset(1000)
        for _ in range(20):
            scheduler.leap(np.array([100]))
            assert scheduler.population == 1000
            assert scheduler.counts.sum() == 1000
            assert (scheduler.counts >= 0).all()

    def test_converges_large_population(self, threshold4):
        scheduler = VectorEnsembleScheduler(threshold4, trials=1, seed=1)
        result = scheduler.run(100_000, max_parallel_time=5000)
        assert result.converged[0]
        assert threshold4.output_of(scheduler.configuration(0)) == 1

    def test_rejects_below_threshold(self):
        # a leader collecting 5 inputs sees only 3: converges to reject
        protocol = leader_unary_threshold(5)
        scheduler = VectorEnsembleScheduler(protocol, trials=1, seed=1)
        result = scheduler.run(3, max_parallel_time=5000)
        assert result.converged[0]
        assert protocol.output_of(scheduler.configuration(0)) == 0

    def test_epsilon_validation(self, threshold4):
        with pytest.raises(ValueError):
            VectorEnsembleScheduler(threshold4, trials=1, epsilon=0)

    def test_small_population_too(self, threshold4):
        scheduler = VectorEnsembleScheduler(threshold4, trials=1, seed=0)
        result = scheduler.run(8, max_parallel_time=5000)
        assert result.converged[0]

    def test_leap_zero(self, threshold4):
        scheduler = VectorEnsembleScheduler(threshold4, trials=1, seed=0)
        scheduler.reset(100)
        before = scheduler.counts.copy()
        assert scheduler.leap(np.array([0]))[0] == 0
        assert (scheduler.counts == before).all()

    def test_leap_advances_exactly_requested(self, threshold4):
        # with the exact-step fallback, a leap can never under-deliver
        scheduler = VectorEnsembleScheduler(threshold4, trials=1, seed=7)
        scheduler.reset(50)
        for requested in (1, 3, 10, 25):
            assert scheduler.leap(np.array([requested]))[0] == requested
        assert scheduler.instrumentation.snapshot().counter("leap_interactions") == 39

    def test_rejected_single_step_still_advances(self, threshold4):
        """Regression: a rejected single-interaction leap must not
        return 0 (that would loop ``run`` forever); it falls back to
        one exact step over all ordered pairs instead."""

        class _RiggedRng:
            """Delegates to the real generator except for one rigged
            multinomial draw that drives a count negative."""

            def __init__(self, real, rigged_sample):
                self._real = real
                self._rigged = rigged_sample

            def multinomial(self, n, probabilities):
                if self._rigged is not None:
                    sample, self._rigged = self._rigged, None
                    return sample
                return self._real.multinomial(n, probabilities)

            def __getattr__(self, name):
                return getattr(self._real, name)

        scheduler = VectorEnsembleScheduler(threshold4, trials=1, seed=0)
        scheduler.reset(10)
        # initially only 2^0 is populated: hit a disabled pair whose net
        # displacement pushes an empty state's count negative
        empty_pair = next(
            index
            for index, outcomes in enumerate(scheduler._pair_outcomes)
            if any((scheduler.counts[0] + outcome < 0).any() for outcome in outcomes)
        )
        rigged = np.zeros((1, len(scheduler._pair_keys) + 1), dtype=np.int64)
        rigged[0, empty_pair] = 1
        scheduler.rng = _RiggedRng(scheduler.rng, rigged)

        advanced = scheduler.leap(np.array([1]))
        assert advanced[0] == 1
        assert scheduler.counts.sum() == 10
        assert (scheduler.counts >= 0).all()
        snapshot = scheduler.instrumentation.snapshot()
        assert snapshot.counter("leap_rejections") == 1
        assert snapshot.counter("leap_fallbacks") == 1
        assert snapshot.counter("exact_steps") == 1

    def test_run_result_carries_leap_counters(self, threshold4):
        scheduler = VectorEnsembleScheduler(threshold4, trials=1, seed=1)
        result = scheduler.run(500, max_parallel_time=5000)
        assert result.converged[0]
        assert result.instrumentation.counter("leap_calls") >= 1
        assert result.instrumentation.counter("leap_interactions") == result.interactions[0]


class TestConvergence:
    def test_measure_basic(self, threshold4):
        stats = measure_convergence(threshold4, 8, trials=3, seed=0)
        assert stats.trials == 3
        assert stats.population == 8
        assert stats.mean_parallel_time > 0
        assert stats.max_parallel_time >= stats.mean_parallel_time

    def test_scaling_and_fit(self):
        protocol = leader_unary_threshold(2)
        stats = convergence_scaling(protocol, lambda n: n, sizes=[16, 32, 64], trials=3)
        assert [s.population for s in stats] == [17, 33, 65]  # + leader
        c, d = fit_nlogn(stats)
        assert isinstance(c, float) and isinstance(d, float)

    def test_fit_needs_two_points(self, threshold4):
        with pytest.raises(ValueError):
            fit_nlogn([measure_convergence(threshold4, 4, trials=2)])


class TestTrace:
    def test_replay_consistency(self, threshold4):
        trace = record_trace(threshold4, 6, max_steps=5000, seed=3)
        final = trace.replay()
        assert final.size == 6

    def test_records_until_silence(self, threshold4):
        trace = record_trace(threshold4, 8, max_steps=100_000, seed=3)
        final = trace.final_configuration()
        from repro.core.configuration import is_silent

        assert is_silent(threshold4, final)

    def test_changed_events_subset(self, threshold4):
        trace = record_trace(threshold4, 6, max_steps=2000, seed=1)
        assert len(trace.changed_events()) <= len(trace.events)

    def test_summary_renders(self, threshold4):
        trace = record_trace(threshold4, 5, max_steps=2000, seed=1)
        text = trace.summary()
        assert "initial" in text and "final" in text

    def test_inconsistent_trace_rejected(self, threshold4):
        from repro.simulation.trace import Trace, TraceEvent

        trace = Trace(
            protocol=threshold4,
            initial=Multiset({"2^0": 2}),
            events=[TraceEvent(0, ("2^2", "2^2"), ("2^2", "2^2"))],
        )
        with pytest.raises(ValueError):
            trace.replay()
