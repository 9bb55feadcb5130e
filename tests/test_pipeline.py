"""Tests for the Section 4 / Section 5 end-to-end pipelines."""

from __future__ import annotations

import collections

import pytest
from hypothesis import given, settings

from repro import binary_threshold, flat_threshold
from repro.bounds.certificates import SaturationCertificate
from repro.bounds.pipeline import (
    _path_transitions,
    _stable_nodes,
    build_stable_sequence,
    section4_certificate,
    section5_certificate,
)
from repro.cache.store import cache_disabled
from repro.core.errors import CertificateError, SearchBudgetExceeded
from repro.core.multiset import Multiset
from repro.core.semantics import fire_sequence
from repro.protocols.leaders import leader_unary_threshold
from repro.reachability.graph import ReachabilityGraph
from repro.reachability.pseudo import input_state, realisable_basis
from repro.testing import protocols as random_protocols


class TestStableSequence:
    def test_lemma_4_2_properties(self, threshold4):
        """IC(i) ->* C_i via the recorded paths, and C_i + x ->* C_(i+1)."""
        seq = build_stable_sequence(threshold4, length=6)
        x = input_state(threshold4)
        for position, config in enumerate(seq.configurations):
            i = seq.input_of(position)
            initial = threshold4.initial_configuration(i)
            assert fire_sequence(initial, seq.cumulative_paths[position]) == config
        for position in range(len(seq.configurations) - 1):
            bridged = fire_sequence(
                seq.configurations[position] + Multiset.singleton(x),
                seq.bridges[position],
            )
            assert bridged == seq.configurations[position + 1]

    def test_sizes_grow_linearly(self, threshold4):
        """|C_i| = |L| + i (the linear control of Lemma 4.4)."""
        seq = build_stable_sequence(threshold4, length=5)
        for position, config in enumerate(seq.configurations):
            assert config.size == seq.input_of(position)

    def test_configurations_are_stable(self, threshold4):
        from repro.analysis.stable import stability_of

        seq = build_stable_sequence(threshold4, length=4)
        for config in seq.configurations:
            assert stability_of(threshold4, config) is not None

    def test_works_with_leaders(self):
        protocol = leader_unary_threshold(2)
        seq = build_stable_sequence(protocol, length=4)
        assert len(seq.configurations) == 4
        for position, config in enumerate(seq.configurations):
            assert config.size == seq.input_of(position) + protocol.leaders.size


class TestSection4:
    @pytest.mark.parametrize("eta", [2, 3, 4, 5])
    def test_certificate_found_and_sound(self, eta):
        protocol = binary_threshold(eta)
        certificate = section4_certificate(protocol, max_length=16)
        assert certificate is not None
        certificate.check()
        assert certificate.a >= eta  # soundness: protocol computes x >= eta

    def test_tight_for_small_thresholds(self):
        """For these protocols the first ordered stable pair appears right
        at the threshold, so the certificate is tight."""
        certificate = section4_certificate(binary_threshold(4), max_length=16)
        assert certificate.a == 4

    @pytest.mark.parametrize("eta", [2, 3])
    def test_leader_protocols(self, eta):
        protocol = leader_unary_threshold(eta)
        certificate = section4_certificate(protocol, max_length=12)
        assert certificate is not None
        certificate.check()
        assert certificate.a >= eta

    def test_flat_threshold(self):
        certificate = section4_certificate(flat_threshold(3), max_length=12)
        assert certificate is not None
        certificate.check()
        assert certificate.a >= 3


class TestSection5:
    @pytest.mark.parametrize("eta", [2, 4])
    def test_certificate_found_and_sound(self, eta):
        protocol = binary_threshold(eta)
        certificate = section5_certificate(protocol, max_input=14)
        assert certificate is not None
        certificate.check()
        assert certificate.a >= eta

    def test_pump_is_pseudo_realisable(self):
        from repro.reachability.pseudo import is_potentially_realisable

        certificate = section5_certificate(binary_threshold(4), max_input=14)
        assert is_potentially_realisable(certificate.protocol, certificate.pi)

    def test_saturation_condition_explicit(self):
        certificate = section5_certificate(binary_threshold(4), max_input=14)
        way_point = fire_sequence(
            certificate.protocol.initial_configuration(certificate.a),
            certificate.path_to_saturated,
        )
        level = min(way_point[q] for q in certificate.protocol.states)
        assert level >= 2 * certificate.pi.size

    def test_flat_threshold(self):
        certificate = section5_certificate(flat_threshold(2), max_input=12)
        assert certificate is not None
        certificate.check()
        assert certificate.a >= 2


def _section5_per_candidate(protocol, max_input, cap=1, node_budget=2_000_000):
    """The Section 5 search as first written: one closure per candidate.

    A reference for :func:`section5_certificate`, whose search computes
    the way-point once per target instead; both must return the same
    certificate.
    """
    protocol = protocol.restricted_to_coverable()
    indexed = protocol.indexed()
    candidates = [e for e in realisable_basis(protocol) if e.input_size >= 1]
    if not candidates:
        return None
    candidates.sort(key=lambda e: (e.size, e.input_size))
    for a in range(2, max_input + 1):
        initial = indexed.encode(protocol.initial_configuration(a))
        try:
            graph = ReachabilityGraph.from_roots(protocol, [initial], node_budget=node_budget)
        except SearchBudgetExceeded:
            return None
        for target in sorted(_stable_nodes(indexed, graph)):
            stable_config = indexed.decode(target)
            for element in candidates:
                S = frozenset(element.configuration.support()) | frozenset(
                    q for q in stable_config.support() if stable_config[q] > cap
                )
                B = Multiset(
                    {q: min(c, cap) if q in S else c for q, c in stable_config.items()}
                )
                needed = 2 * element.size
                way_point = None
                for node in sorted(graph.backward_closure([target])):
                    if min(node) >= needed:
                        way_point = node
                        break
                if way_point is None:
                    continue
                path_a = graph.shortest_path(initial, way_point)
                path_b = graph.shortest_path(way_point, target)
                if path_a is None or path_b is None:
                    continue
                certificate = SaturationCertificate(
                    protocol=protocol,
                    a=a,
                    b=element.input_size,
                    B=B,
                    S=S,
                    path_to_saturated=_path_transitions(indexed, path_a),
                    path_to_stable=_path_transitions(indexed, path_b),
                    pi=element.pi,
                )
                try:
                    certificate.check(node_budget=node_budget)
                    return certificate
                except CertificateError:
                    continue
    return None


def _same_certificate(found, reference):
    if reference is None:
        assert found is None
        return
    assert found is not None
    for field in ("a", "b", "B", "S", "path_to_saturated", "path_to_stable", "pi"):
        assert getattr(found, field) == getattr(reference, field), field


class TestSection5SearchDifferential:
    """The per-target way-point search returns what the per-candidate one did."""

    @pytest.mark.parametrize(
        "protocol, max_input",
        [(binary_threshold(4), 14), (flat_threshold(3), 12), (flat_threshold(5), 25)],
        ids=["binary:4", "flat:3", "flat:5"],
    )
    def test_families(self, protocol, max_input):
        with cache_disabled():
            found = section5_certificate(protocol, max_input=max_input)
            reference = _section5_per_candidate(protocol, max_input)
        assert reference is not None
        _same_certificate(found, reference)

    @settings(max_examples=25)
    @given(protocol=random_protocols(max_states=3))
    def test_random_protocols(self, protocol):
        with cache_disabled():
            found = section5_certificate(protocol, max_input=8)
            reference = _section5_per_candidate(protocol, 8)
        _same_certificate(found, reference)

    @pytest.mark.parametrize("protocol", [flat_threshold(3), binary_threshold(4)])
    def test_one_closure_per_stable_target(self, protocol, monkeypatch):
        """Per input graph: the two closures of the stability test, then
        at most one per stable target (not one per basis candidate)."""
        calls = collections.defaultdict(list)
        graphs = []  # held so that no two input graphs share an id()
        original = ReachabilityGraph.backward_closure

        def counting(graph, targets):
            targets = [tuple(t) for t in targets]
            if id(graph) not in calls:
                graphs.append(graph)
            calls[id(graph)].append(tuple(targets))
            return original(graph, targets)

        monkeypatch.setattr(ReachabilityGraph, "backward_closure", counting)
        with cache_disabled():
            assert section5_certificate(protocol, max_input=14) is not None
        searched = [made[2:] for made in calls.values()]  # after the stability test
        assert any(searched)
        for targets in searched:
            assert all(len(call) == 1 for call in targets)
            assert len(targets) == len(set(targets))
