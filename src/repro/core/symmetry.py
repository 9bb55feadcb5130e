"""Protocol symmetry: colour refinement → automorphisms → canonical form.

The paper's certificates depend only on a protocol's structure up to
state renaming.  The cache fingerprint (:mod:`repro.cache.fingerprint`),
the Karp–Miller frontier's deduplication group
(:mod:`repro.reachability.frontier`) and the isomorphism API below all
read one computation:

1. **Colour refinement** (:func:`refined_colors`) splits the states into
   renaming-invariant classes.
2. **Candidate orderings** list the classes in colour order and permute
   states only within a class, so minimising over them is exact.  Above
   :data:`PERMUTATION_BUDGET` candidates there is no search and
   :func:`labelling` returns ``None``.
3. **One labelling pass** computes each candidate's structural
   signature (outputs, leader counts, inputs, transitions as a sorted
   tuple of index pairs).  The least one is the canonical form.  Two
   orderings attaining it differ by exactly one automorphism, so the
   automorphism group comes from the same pass.
"""

from __future__ import annotations

import itertools
import math
from typing import Any, Dict, Hashable, List, NamedTuple, Optional, Tuple

from .protocol import PopulationProtocol, State

__all__ = [
    "PERMUTATION_BUDGET",
    "Labelling",
    "refined_colors",
    "labelling",
    "canonical_key",
    "are_isomorphic",
    "automorphisms",
]

PERMUTATION_BUDGET = 40_320  # 8! — every <= 8-state symmetric class

Signature = Tuple[Any, ...]  # (outputs, leaders, inputs, transitions)


class Labelling(NamedTuple):
    """The least signature and every candidate ordering attaining it."""

    signature: Signature
    orders: Tuple[Tuple[State, ...], ...]


def _rank(values: Dict[Hashable, Any]) -> Dict[Hashable, int]:
    """Replace comparable colour values by their dense sorted ranks."""
    order = {value: rank for rank, value in enumerate(sorted(set(values.values())))}
    return {key: order[value] for key, value in values.items()}


def refined_colors(protocol: PopulationProtocol) -> Dict[Hashable, int]:
    """Stable colouring of the states, invariant under renaming.

    Seed colour: ``(output, leader count, sorted input variables)``.
    Refinement: each round appends, per state, the sorted multiset of
    its transition roles ``(pre colours, post colours, occurrences of
    the state in pre, in post)``.  Colour classes only ever split, so
    the loop stops as soon as the class count stops growing.
    """
    variables_of: Dict[Hashable, List[str]] = {s: [] for s in protocol.states}
    for variable, target in protocol.input_mapping.items():
        variables_of[target].append(str(variable))
    seed = {
        s: (protocol.output[s], protocol.leaders[s], tuple(sorted(variables_of[s])))
        for s in protocol.states
    }
    # Each transition touches at most four states; iterating incident
    # transitions per state keeps a refinement round at O(|T|), not
    # O(|Q| * |T|) (the difference is minutes on compiled protocols).
    incident: Dict[Hashable, List[Tuple[Any, int, int]]] = {s: [] for s in protocol.states}
    for t in protocol.transitions:
        for s in {t.p, t.q, t.p2, t.q2}:
            s_pre = (t.p == s) + (t.q == s)
            s_post = (t.p2 == s) + (t.q2 == s)
            incident[s].append((t, s_pre, s_post))
    colors = _rank(seed)
    while True:
        signatures: Dict[Hashable, Any] = {}
        for s in protocol.states:
            roles = []
            for t, s_pre, s_post in incident[s]:
                pre = tuple(sorted((colors[t.p], colors[t.q])))
                post = tuple(sorted((colors[t.p2], colors[t.q2])))
                roles.append((pre, post, s_pre, s_post))
            signatures[s] = (colors[s], tuple(sorted(roles)))
        refined = _rank(signatures)
        if len(set(refined.values())) == len(set(colors.values())):
            return refined
        colors = refined


def _signature(protocol: PopulationProtocol, order: Tuple[State, ...]) -> Signature:
    index = {s: i for i, s in enumerate(order)}
    outputs = tuple(protocol.output[s] for s in order)
    leaders = tuple(protocol.leaders[s] for s in order)
    inputs = tuple(sorted((str(v), index[s]) for v, s in protocol.input_mapping.items()))
    transitions = tuple(
        sorted(
            (
                tuple(sorted((index[t.p], index[t.q]))),
                tuple(sorted((index[t.p2], index[t.q2]))),
            )
            for t in protocol.transitions
        )
    )
    return (outputs, leaders, inputs, transitions)


def _least_orderings(protocol: PopulationProtocol) -> Optional[Labelling]:
    colors = refined_colors(protocol)
    classes: Dict[int, List[State]] = {}
    for s in protocol.states:
        classes.setdefault(colors[s], []).append(s)
    ordered_classes = [classes[color] for color in sorted(classes)]
    if math.prod(math.factorial(len(c)) for c in ordered_classes) > PERMUTATION_BUDGET:
        return None
    best: Optional[Signature] = None
    orders: List[Tuple[State, ...]] = []
    for combo in itertools.product(*(itertools.permutations(c) for c in ordered_classes)):
        order = tuple(s for group in combo for s in group)
        signature = _signature(protocol, order)
        if best is None or signature < best:
            best, orders = signature, [order]
        elif signature == best:
            orders.append(order)
    return Labelling(best, tuple(orders))


def labelling(protocol: PopulationProtocol) -> Optional[Labelling]:
    """The protocol's :class:`Labelling` (memoised), or ``None`` past
    :data:`PERMUTATION_BUDGET` candidate orderings."""
    if not hasattr(protocol, "_labelling_cache"):
        object.__setattr__(protocol, "_labelling_cache", _least_orderings(protocol))
    return protocol._labelling_cache  # type: ignore[attr-defined]


def _required(protocol: PopulationProtocol) -> Labelling:
    found = labelling(protocol)
    if found is None:
        raise ValueError(
            f"more than {PERMUTATION_BUDGET:,} colour-respecting orderings of "
            f"{protocol.num_states} states: too many to canonicalise"
        )
    return found


def canonical_key(protocol: PopulationProtocol) -> Signature:
    """A hashable canonical form: equal iff protocols are isomorphic.

    Input variable *names* are part of the structure.  Raises
    :class:`ValueError` past :data:`PERMUTATION_BUDGET`.
    """
    return _required(protocol).signature


def are_isomorphic(left: PopulationProtocol, right: PopulationProtocol) -> bool:
    """Is there a state bijection carrying ``left`` onto ``right``?"""
    return canonical_key(left) == canonical_key(right)


def automorphisms(protocol: PopulationProtocol) -> List[Dict[State, State]]:
    """All state permutations mapping the protocol onto itself, the
    identity first.  Raises :class:`ValueError` past
    :data:`PERMUTATION_BUDGET`."""
    orders = _required(protocol).orders
    return [dict(zip(orders[0], order)) for order in orders]
