"""Serialisation: protocols to/from JSON, and Graphviz DOT export.

Protocols are plain data; this module provides a stable interchange
format so constructed protocols can be stored, diffed and shared:

* :func:`protocol_to_dict` / :func:`protocol_from_dict` — round-trip
  through JSON-compatible dictionaries (state names are stringified;
  an explicit name table preserves non-string states);
* :func:`dumps` / :func:`loads` — the JSON text layer;
* :func:`to_dot` — a Graphviz digraph of the interaction structure,
  with doubled output states and leader/input annotations (render with
  ``dot -Tpdf``).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Hashable, List

from .core.errors import ProtocolError
from .core.multiset import Multiset
from .core.protocol import PopulationProtocol, Transition

__all__ = ["protocol_to_dict", "protocol_from_dict", "dumps", "loads", "to_dot"]

FORMAT_VERSION = 1


def protocol_to_dict(protocol: PopulationProtocol) -> Dict[str, Any]:
    """A JSON-compatible dictionary capturing the full protocol.

    States are referenced by index into the ``states`` list, so state
    objects only need to be representable by ``repr``-stable strings.
    """
    index = {state: i for i, state in enumerate(protocol.states)}
    return {
        "format": FORMAT_VERSION,
        "name": protocol.name,
        "states": [str(state) for state in protocol.states],
        "transitions": [
            [index[t.p], index[t.q], index[t.p2], index[t.q2]] for t in protocol.transitions
        ],
        "leaders": {str(index[state]): count for state, count in protocol.leaders.items()},
        "inputs": {str(variable): index[state] for variable, state in protocol.input_mapping.items()},
        "outputs": [protocol.output[state] for state in protocol.states],
    }


def protocol_from_dict(data: Dict[str, Any]) -> PopulationProtocol:
    """Inverse of :func:`protocol_to_dict` (states become strings)."""
    if not isinstance(data, dict):
        raise ProtocolError("a serialised protocol is a JSON object")
    if data.get("format") != FORMAT_VERSION:
        raise ProtocolError(f"unsupported protocol format {data.get('format')!r}")
    try:
        states: List[str] = list(data["states"])
        if len(set(states)) != len(states):
            raise ProtocolError("serialised states are not distinct after stringification")
        transitions = tuple(
            Transition(states[p], states[q], states[p2], states[q2])
            for p, q, p2, q2 in data["transitions"]
        )
        leaders = Multiset({states[int(i)]: count for i, count in data["leaders"].items()})
        inputs = {variable: states[i] for variable, i in data["inputs"].items()}
        outputs = {state: b for state, b in zip(states, data["outputs"])}
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as error:
        raise ProtocolError(f"malformed protocol document: {type(error).__name__}: {error}")
    return PopulationProtocol(
        states=tuple(states),
        transitions=transitions,
        leaders=leaders,
        input_mapping=inputs,
        output=outputs,
        name=data.get("name", "protocol"),
    )


def dumps(protocol: PopulationProtocol, indent: int = 2) -> str:
    """Serialise a protocol to JSON text."""
    return json.dumps(protocol_to_dict(protocol), indent=indent, sort_keys=True)


def loads(text: str) -> PopulationProtocol:
    """Parse a protocol from JSON text produced by :func:`dumps`."""
    return protocol_from_dict(json.loads(text))


def to_dot(protocol: PopulationProtocol) -> str:
    """A Graphviz digraph of the protocol's interaction structure.

    States are nodes (doubled border for output 1, house shape for
    input states, bold for leader states); each non-silent transition
    ``p, q -> p', q'`` becomes two edges ``p -> p'`` and ``q -> q'``
    labelled with the partner, which reads naturally for the
    chemistry-style rules the paper's examples use.
    """
    input_states = set(protocol.input_mapping.values())
    leader_states = set(protocol.leaders.support())
    lines = [f'digraph "{protocol.name}" {{', "  rankdir=LR;"]
    for state in protocol.states:
        attributes = []
        attributes.append("peripheries=2" if protocol.output[state] == 1 else "peripheries=1")
        if state in input_states:
            attributes.append("shape=house")
        if state in leader_states:
            attributes.append("penwidth=2")
        lines.append(f'  "{state}" [{", ".join(attributes)}];')
    for t in protocol.transitions:
        if t.is_silent:
            continue
        lines.append(f'  "{t.p}" -> "{t.p2}" [label="with {t.q}"];')
        if (t.q, t.q2) != (t.p, t.p2):
            lines.append(f'  "{t.q}" -> "{t.q2}" [label="with {t.p}"];')
    lines.append("}")
    return "\n".join(lines)
