"""Brute-force symmetry reference, independent of :mod:`repro.core.symmetry`,
plus the protocol builders the symmetry and cache suites share.

No colour refinement and no budget: the minimum structural signature
over *all* ``n!`` state orderings, with transitions encoded as a sorted
tuple.  Exponential, so only for the small protocols the hypothesis
strategies draw.
"""

from __future__ import annotations

import itertools

from repro.core.protocol import PopulationProtocol
from repro.protocols.builders import ProtocolBuilder


def listed_in(protocol, states):
    """The same protocol with its states listed in another order."""
    return PopulationProtocol(
        states=tuple(states),
        transitions=protocol.transitions,
        leaders=protocol.leaders,
        input_mapping=dict(protocol.input_mapping),
        output=dict(protocol.output),
        name=protocol.name,
    )


def dead_states(count):
    """An input state plus ``count`` interchangeable dead states."""
    builder = ProtocolBuilder("dead").state("x", output=0).input("v", "x")
    for i in range(count):
        builder.state(f"d{i}", output=1)
    return builder.build()


def _signature(protocol, order):
    index = {s: i for i, s in enumerate(order)}
    return (
        tuple(protocol.output[s] for s in order),
        tuple(protocol.leaders[s] for s in order),
        tuple(sorted((str(v), index[s]) for v, s in protocol.input_mapping.items())),
        tuple(
            sorted(
                (
                    tuple(sorted((index[t.p], index[t.q]))),
                    tuple(sorted((index[t.p2], index[t.q2]))),
                )
                for t in protocol.transitions
            )
        ),
    )


def brute_force_key(protocol):
    """Equal for two protocols iff they are isomorphic."""
    return min(_signature(protocol, order) for order in itertools.permutations(protocol.states))


def brute_force_automorphism_count(protocol):
    """The number of state permutations mapping the protocol onto itself."""
    base = _signature(protocol, protocol.states)
    return sum(
        _signature(protocol, order) == base
        for order in itertools.permutations(protocol.states)
    )
