"""Tests for protocol isomorphism and symmetry detection."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import binary_threshold, flat_threshold, majority_protocol
from repro.analysis import are_isomorphic, automorphisms, canonical_key
from repro.core.multiset import Multiset
from repro.core.protocol import PopulationProtocol, Transition
from repro.protocols.builders import ProtocolBuilder
from repro.testing import protocols, renamings

from .symmetry_oracle import brute_force_automorphism_count, dead_states, listed_in

FIVE_STATES = ("s0", "s1", "s2", "s3", "s4")


def _cycle(states=("a", "b", "c", "d", "e")):
    """a, b -> c, c -> d, e -> a, b: d and e are interchangeable."""
    return PopulationProtocol(
        states=states,
        transitions=(
            Transition("a", "b", "c", "c"),
            Transition("c", "c", "d", "e"),
            Transition("d", "e", "a", "b"),
        ),
        leaders=Multiset(),
        input_mapping={"x": "a"},
        output={"a": 0, "b": 0, "c": 1, "d": 1, "e": 1},
        name="cycle",
    )


class TestIsomorphism:
    def test_protocol_isomorphic_to_renaming(self, threshold4):
        renamed = threshold4.renamed({"2^0": "unit", "zero": "ash"})
        assert are_isomorphic(threshold4, renamed)

    def test_reflexive(self, threshold4):
        assert are_isomorphic(threshold4, threshold4)

    def test_different_protocols(self):
        assert not are_isomorphic(binary_threshold(4), binary_threshold(5))

    def test_different_outputs_not_isomorphic(self, threshold4):
        from repro.protocols.combinators import negation

        assert not are_isomorphic(threshold4, negation(threshold4))

    def test_different_state_counts(self):
        assert not are_isomorphic(binary_threshold(4), flat_threshold(4))

    def test_canonical_key_is_isomorphism_invariant(self, threshold4):
        renamed = threshold4.renamed({"2^1": "pair", "2^2": "quad"})
        assert canonical_key(threshold4) == canonical_key(renamed)

    def test_too_many_states_guarded(self):
        """Nine interchangeable dead states: 9! orderings exceed the budget."""
        with pytest.raises(ValueError, match="too many"):
            canonical_key(dead_states(9))

    def test_no_state_cap(self):
        """Colour refinement separates flat:9's states; no 8-state cap."""
        protocol = flat_threshold(9)
        assert canonical_key(protocol) == canonical_key(
            listed_in(protocol, reversed(protocol.states))
        )

    def test_state_order_does_not_matter(self):
        """Regression: transitions compared as frozensets made the
        minimum depend on the order the states were listed in."""
        protocol = _cycle()
        reordered = _cycle(("a", "b", "d", "c", "e"))
        assert canonical_key(protocol) == canonical_key(reordered)
        assert are_isomorphic(protocol, reordered)
        assert len(automorphisms(protocol)) == 2

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_isomorphic_to_any_generated_renaming(self, data):
        """Property: every renaming drawn by the shared strategy is an
        isomorphism witness (same generator the cache fingerprint and
        minimisation suites use), whatever order the states are listed
        in."""
        protocol = data.draw(protocols(max_states=5, states=FIVE_STATES))
        renamed = protocol.renamed(data.draw(renamings(protocol)))
        assert are_isomorphic(protocol, renamed)
        reordered = listed_in(renamed, data.draw(st.permutations(renamed.states)))
        assert are_isomorphic(protocol, reordered)

    def test_enumeration_dedup_rate(self):
        """At n = 2 a substantial fraction of the raw enumeration is
        redundant up to isomorphism — the point of canonical keys."""
        from repro.bounds.enumeration import all_deterministic_protocols

        keys = {canonical_key(p) for p in all_deterministic_protocols(2)}
        assert len(keys) < 216


class TestAutomorphisms:
    def test_identity_always_present(self, threshold4):
        result = automorphisms(threshold4)
        assert any(all(k == v for k, v in mapping.items()) for mapping in result)

    def test_symmetric_protocol(self):
        """Two interchangeable dead states yield a non-trivial symmetry."""
        protocol = (
            ProtocolBuilder("twins")
            .state("x", output=0)
            .state("a", output=1)
            .state("b", output=1)
            .rule("x", "x", "a", "b")
            .input("v", "x")
            .build()
        )
        result = automorphisms(protocol)
        assert len(result) == 2  # identity + swap(a, b)

    def test_asymmetric_protocol(self, threshold4):
        assert len(automorphisms(threshold4)) == 1

    @settings(max_examples=60, deadline=None)
    @given(protocols(max_states=5, states=FIVE_STATES))
    def test_group_order_matches_brute_force(self, protocol):
        assert len(automorphisms(protocol)) == brute_force_automorphism_count(protocol)

    def test_automorphisms_preserve_structure(self):
        protocol = majority_protocol()
        for mapping in automorphisms(protocol):
            renamed = protocol.renamed(mapping)
            assert are_isomorphic(protocol, renamed)
