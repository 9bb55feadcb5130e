"""Batched (tau-leaping) simulation for very large populations.

Exact per-interaction simulation costs O(1)-ish per step but needs
``Theta(n log n)`` interactions for typical protocols to converge —
at ``n = 10^6`` that is tens of millions of Python-level iterations.
This is the "simulation is easy but too slow for large populations"
problem flagged in the reproduction brief, and the classic remedy from
stochastic chemical kinetics applies directly (population protocols
*are* chemical reaction networks): **tau-leaping**.

:class:`BatchScheduler` advances the system by ``k`` interactions at a
time, assuming the pair distribution stays fixed within the leap:

1. compute the ordered-pair probabilities
   ``P[i, j] = c_i (c_j - [i = j]) / (n (n - 1))``;
2. draw a multinomial sample of how many of the ``k`` interactions hit
   each state pair (and, for nondeterministic protocols, which
   transition of the pair fires);
3. apply all displacements at once.

If the aggregated update would drive a count negative the leap is
rejected and retried with ``k / 2`` (down to exact single steps), so
trajectories always remain legal configurations.  The leap size is
``epsilon * n`` interactions, i.e. a fixed fraction of a unit of
parallel time; ``epsilon`` trades accuracy for speed exactly as in
Gillespie tau-leaping.

The approximation error affects only *timing statistics* (order
``epsilon``), never invariants: population size is conserved exactly
and every intermediate configuration is a genuine configuration.

Pair probabilities are computed in exact integer arithmetic and
divided once at the end: above ``n ~ 10^8`` the products ``n(n-1)``
exceed ``2^53``, and the earlier float64 pipeline (weights summed and
subtracted from the total as floats) let the rounding error of the big
products swamp small inert-pair masses — a silent distortion of the
leap distribution's low-probability classes at exactly the population
scales this scheduler exists for.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from ..core.errors import ProtocolError
from ..core.multiset import Multiset
from ..core.protocol import PopulationProtocol, _pair
from ..obs import Instrumentation, get_tracer, progress
from .scheduler import SimulationResult, _is_silent_consensus

__all__ = ["BatchScheduler"]


class BatchScheduler:
    """Approximate large-population simulation via multinomial leaps."""

    def __init__(
        self,
        protocol: PopulationProtocol,
        seed: Optional[int] = None,
        epsilon: float = 0.05,
    ):
        if not 0 < epsilon <= 1:
            raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
        self.protocol = protocol
        self.indexed = protocol.indexed()
        self.epsilon = epsilon
        self.rng = np.random.default_rng(seed)
        self.counts = np.zeros(self.indexed.n, dtype=np.int64)
        self.instrumentation = Instrumentation()

        # Precompute, per unordered state pair with at least one
        # non-identity transition, the list of outcome displacement
        # vectors (identity outcomes contribute zero vectors so the
        # nondeterministic split stays faithful).
        n_states = self.indexed.n
        pair_deltas: Dict[Tuple[int, int], List[np.ndarray]] = {}
        for t_index, (i, j) in enumerate(self.indexed.pre_pairs):
            delta = np.array(self.indexed.deltas[t_index], dtype=np.int64)
            pair_deltas.setdefault((i, j), []).append(delta)
        self._pair_keys: List[Tuple[int, int]] = sorted(pair_deltas)
        self._pair_outcomes: List[np.ndarray] = [
            np.stack(pair_deltas[key]) for key in self._pair_keys
        ]

    # ------------------------------------------------------------------

    def reset(self, inputs: Union[int, Mapping, Multiset]) -> None:
        """Initialise the population to ``IC(inputs)``."""
        self.counts = np.array(self.indexed.initial_counts(inputs), dtype=np.int64)
        self.instrumentation.clear()

    @property
    def population(self) -> int:
        """Current number of agents (conserved exactly)."""
        return int(self.counts.sum())

    @property
    def configuration(self) -> Multiset:
        """Current configuration as a multiset over states."""
        return self.indexed.decode([int(c) for c in self.counts])

    # ------------------------------------------------------------------

    def _integer_pair_weights(self) -> Tuple[List[int], int, int]:
        """Exact ordered-pair weights: ``(weights, total, inert)``.

        All three are arbitrary-precision integers: for ``n`` above
        ``~10^8`` the products ``n(n-1)`` exceed ``2^53``, so computing
        the inert-pair mass as a float64 subtraction silently corrupts
        the low-probability classes (the rounding error of the big
        products dwarfs a small true inert mass).  Keeping the weights
        integral until the single final division makes every class
        probability correctly rounded.
        """
        c = self.counts
        n = int(c.sum())
        weights = [
            int(c[i]) * (int(c[i]) - 1) if i == j else 2 * int(c[i]) * int(c[j])
            for i, j in self._pair_keys
        ]
        total = n * (n - 1)
        inert = total - sum(weights)  # exact: pairs with no registered transition
        return weights, total, inert

    def pair_distribution(self):
        """The one-step pair distribution the next leap will sample from.

        Returns ``(keys, probabilities, inert)``: the registered
        unordered state pairs, their meeting probabilities in the
        current configuration, and the probability mass of inert pairs
        (pairs with no registered transition).  Exposed so that the
        conformance harness can compare the leap distribution against
        the analytic one-step semantics.
        """
        n = self.population
        if n < 2:
            raise ProtocolError("population must have at least two agents")
        states = self.indexed.states
        keys = [_pair(states[i], states[j]) for i, j in self._pair_keys]
        weights, total, inert_mass = self._integer_pair_weights()
        # Big-int true division is correctly rounded, so each class
        # probability is exact to the last float64 bit even when the
        # weights themselves exceed 2^53.
        probabilities = np.array([w / total for w in weights], dtype=np.float64)
        inert = inert_mass / total
        return keys, probabilities, inert

    def _exact_step(self) -> int:
        """One exact interaction drawn over all ``n(n-1)`` ordered pairs.

        Fallback for a rejected single-interaction leap.  The draw
        covers *every* ordered pair — registered transitions and inert
        meetings alike, exactly the pair law — with integer weights, so
        the step is exact; a pair that is sampled is by construction
        available, and firing one of its registered transitions (or
        nothing, for an inert meeting) can never drive a count
        negative.  Recorded under the ``exact_steps`` instrumentation
        counter so conformance sweeps can tell fallback steps from
        genuine leaps.
        """
        self.instrumentation.add("exact_steps")
        c = self.counts
        weights, total, _ = self._integer_pair_weights()
        pick = int(self.rng.integers(total))
        for index, weight in enumerate(weights):
            if pick < weight:
                outcomes = self._pair_outcomes[index]
                if len(outcomes) == 1:
                    outcome = outcomes[0]
                else:
                    outcome = outcomes[int(self.rng.integers(len(outcomes)))]
                self.counts = c + outcome
                return 1
            pick -= weight
        return 1  # inert pair met: the interaction happened, nothing changed

    def leap(self, interactions: int) -> int:
        """Advance by up to ``interactions`` interactions in one leap.

        Returns the number of interactions actually performed (the
        leap recursively halves on rejection, so it may be smaller
        when counts are nearly depleted).
        """
        n = self.population
        if n < 2:
            raise ProtocolError("population must have at least two agents")
        if interactions <= 0:
            return 0
        self.instrumentation.add("leap_calls")
        weights, total_pairs, inert = self._integer_pair_weights()
        probabilities = np.array(
            [w / total_pairs for w in weights] + [inert / total_pairs],
            dtype=np.float64,
        )
        probabilities = probabilities / probabilities.sum()

        sample = self.rng.multinomial(interactions, probabilities)
        delta = np.zeros_like(self.counts)
        for index, hits in enumerate(sample[:-1]):
            if hits == 0:
                continue
            outcomes = self._pair_outcomes[index]
            if len(outcomes) == 1:
                delta += hits * outcomes[0]
            else:
                split = self.rng.multinomial(hits, np.full(len(outcomes), 1.0 / len(outcomes)))
                for outcome, count in zip(outcomes, split):
                    delta += count * outcome

        updated = self.counts + delta
        if (updated < 0).any():
            self.instrumentation.add("leap_rejections")
            if interactions == 1:
                # A rejected single-interaction leap must still advance
                # (returning 0 here would loop `run` forever); fall back
                # to one exact draw over the n(n-1) ordered pairs.
                self.instrumentation.add("leap_fallbacks")
                done = self._exact_step()
                self.instrumentation.add("leap_interactions", done)
                return done
            # halve and retry; the recursive calls do their own accounting
            self.instrumentation.add("leap_halvings")
            done = self.leap(interactions // 2)
            return done + self.leap(interactions - interactions // 2)
        self.counts = updated
        self.instrumentation.add("leap_interactions", interactions)
        return interactions

    def run(
        self,
        inputs,
        max_parallel_time: float,
        stop_on_silent_consensus: bool = True,
    ) -> SimulationResult:
        """Simulate up to ``max_parallel_time`` units (interactions / n)."""
        if not (math.isfinite(max_parallel_time) and max_parallel_time > 0):
            raise ValueError(
                f"max_parallel_time must be positive and finite, got {max_parallel_time}"
            )
        self.reset(inputs)
        n = self.population
        leap_size = max(1, int(self.epsilon * n))
        # Ceil, not truncate: any positive time budget must perform at
        # least one interaction (int() turned a small budget on a small
        # population into a silent zero-interaction "result").
        budget = max(1, math.ceil(max_parallel_time * n))
        interactions = 0
        converged = False
        silent_checks = 0
        meter = progress(
            "simulate-batch", lambda: {"interactions": interactions, "population": n}
        )
        with self.instrumentation.phase("run"), get_tracer().span(
            "simulate.run",
            scheduler=type(self).__name__,
            population=n,
            leap_size=leap_size,
        ) as span:
            while interactions < budget:
                if stop_on_silent_consensus:
                    silent_checks += 1
                    if _is_silent_consensus(self.protocol, self.configuration):
                        converged = True
                        break
                done = self.leap(min(leap_size, budget - interactions))
                interactions += done
                meter.tick(done)
            else:
                if stop_on_silent_consensus:
                    silent_checks += 1
                    if _is_silent_consensus(self.protocol, self.configuration):
                        converged = True
            meter.finish()
            span.add("interactions", interactions)
            span.add("silent_checks", silent_checks)
            span.set(converged=converged)
        self.instrumentation.add("interactions", interactions)
        self.instrumentation.add("silent_checks", silent_checks)
        return SimulationResult(
            interactions=interactions,
            population=n,
            configuration=self.configuration,
            converged=converged,
            instrumentation=self.instrumentation.snapshot(),
        )
