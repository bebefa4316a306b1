"""DIMACS min-cost-flow interchange format, plus an incremental extension.

The real Firmament scheduler communicates with its (out-of-process) MCMF
solver through the standard DIMACS minimum-cost-flow text format, extended
with incremental *graph change* messages so that only deltas cross the
process boundary between scheduling runs.  This module reproduces both:

* :func:`write_dimacs` / :func:`read_dimacs` serialize a
  :class:`~repro.flow.graph.FlowNetwork` to and from the standard format
  (``p min`` problem line, ``n`` node-descriptor lines, ``a`` arc lines), and
* :func:`write_incremental` / :func:`read_incremental` serialize a list of
  :mod:`repro.flow.changes` records as one-line-per-change commands
  (mirroring the extension Firmament uses towards its solver process);
  parsed changes are applied with :func:`repro.flow.changes.apply_changes`.

Round-tripping is exact for the fields DIMACS represents (node supplies,
arc endpoints, capacities, costs); node types and names are carried in
comment lines so a round trip through the text format also preserves the
scheduling semantics needed for placement extraction.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.flow.changes import (
    ArcAddition,
    ArcCapacityChange,
    ArcCostChange,
    ArcRemoval,
    GraphChange,
    NodeAddition,
    NodeRemoval,
    SupplyChange,
)
from repro.flow.graph import FlowNetwork, NodeType


class DimacsFormatError(ValueError):
    """Raised when a DIMACS document cannot be parsed."""


#: Comment prefix used to carry node types through the text format.
_TYPE_COMMENT = "c node_type"

#: Mapping between node types and their single-token spelling in comments.
_TYPE_TOKENS = {node_type: node_type.value for node_type in NodeType}
_TOKEN_TYPES = {token: node_type for node_type, token in _TYPE_TOKENS.items()}


# ---------------------------------------------------------------------- #
# Full-graph serialization
# ---------------------------------------------------------------------- #
def write_dimacs(network: FlowNetwork, include_node_types: bool = True) -> str:
    """Serialize a flow network to DIMACS min-cost-flow text.

    Args:
        network: The network to serialize.
        include_node_types: Emit ``c node_type`` comment lines so that
            :func:`read_dimacs` can restore node roles (task, machine, ...).

    Returns:
        The DIMACS document as a string (ending with a newline when
        non-empty).
    """
    lines: List[str] = [
        "c DIMACS min-cost flow problem generated by the Firmament reproduction",
        f"p min {network.num_nodes} {network.num_arcs}",
    ]
    for node in sorted(network.nodes(), key=lambda n: n.node_id):
        if node.supply != 0:
            lines.append(f"n {node.node_id} {node.supply}")
        if include_node_types and node.node_type is not NodeType.OTHER:
            lines.append(
                f"{_TYPE_COMMENT} {node.node_id} {_TYPE_TOKENS[node.node_type]}"
            )
    for arc in sorted(network.arcs(), key=lambda a: a.key()):
        lines.append(
            f"a {arc.src} {arc.dst} {arc.min_flow} {arc.capacity} {arc.cost}"
        )
    return "\n".join(lines) + "\n"


def read_dimacs(text: Union[str, Iterable[str]]) -> FlowNetwork:
    """Parse DIMACS min-cost-flow text into a flow network.

    Nodes referenced only by arcs (no ``n`` line) are created with zero
    supply.  ``c node_type`` comments written by :func:`write_dimacs`
    restore node roles; all other comments are ignored.

    Raises:
        DimacsFormatError: On malformed problem, node, or arc lines.
    """
    if isinstance(text, str):
        lines: Iterable[str] = text.splitlines()
    else:
        lines = text

    network = FlowNetwork()
    node_types: Dict[int, NodeType] = {}
    supplies: Dict[int, int] = {}
    arcs: List[Tuple[int, int, int, int]] = []
    declared_nodes = 0
    declared_arcs = 0
    saw_problem_line = False

    for line_number, raw_line in enumerate(lines, start=1):
        line = raw_line.strip()
        if not line:
            continue
        fields = line.split()
        kind = fields[0]
        if kind == "c":
            if line.startswith(_TYPE_COMMENT) and len(fields) == 4:
                node_id, token = fields[2], fields[3]
                if token in _TOKEN_TYPES:
                    node_types[_parse_int(node_id, line_number)] = _TOKEN_TYPES[token]
            continue
        if kind == "p":
            if len(fields) != 4 or fields[1] != "min":
                raise DimacsFormatError(
                    f"line {line_number}: expected 'p min <nodes> <arcs>', got {line!r}"
                )
            declared_nodes = _parse_int(fields[2], line_number)
            declared_arcs = _parse_int(fields[3], line_number)
            saw_problem_line = True
            continue
        if kind == "n":
            if len(fields) != 3:
                raise DimacsFormatError(
                    f"line {line_number}: expected 'n <id> <supply>', got {line!r}"
                )
            supplies[_parse_int(fields[1], line_number)] = _parse_int(fields[2], line_number)
            continue
        if kind == "a":
            if len(fields) != 6:
                raise DimacsFormatError(
                    f"line {line_number}: expected 'a <src> <dst> <low> <cap> <cost>', got {line!r}"
                )
            src = _parse_int(fields[1], line_number)
            dst = _parse_int(fields[2], line_number)
            low = _parse_int(fields[3], line_number)
            capacity = _parse_int(fields[4], line_number)
            cost = _parse_int(fields[5], line_number)
            if low != 0:
                raise DimacsFormatError(
                    f"line {line_number}: non-zero lower bounds are not supported"
                )
            arcs.append((src, dst, capacity, cost))
            continue
        raise DimacsFormatError(f"line {line_number}: unknown line kind {kind!r}")

    if not saw_problem_line:
        raise DimacsFormatError("missing 'p min' problem line")

    node_ids = set(supplies) | set(node_types)
    for src, dst, _, _ in arcs:
        node_ids.add(src)
        node_ids.add(dst)
    for node_id in sorted(node_ids):
        network.add_node(
            node_type=node_types.get(node_id, NodeType.OTHER),
            supply=supplies.get(node_id, 0),
            node_id=node_id,
        )
    for src, dst, capacity, cost in arcs:
        network.add_arc(src, dst, capacity, cost)

    if declared_nodes and network.num_nodes > declared_nodes:
        raise DimacsFormatError(
            f"document references {network.num_nodes} nodes but declares {declared_nodes}"
        )
    if declared_arcs and network.num_arcs != declared_arcs:
        raise DimacsFormatError(
            f"document contains {network.num_arcs} arcs but declares {declared_arcs}"
        )
    return network


def _parse_int(token: str, line_number: int) -> int:
    try:
        return int(token)
    except ValueError as exc:
        raise DimacsFormatError(
            f"line {line_number}: expected an integer, got {token!r}"
        ) from exc


# ---------------------------------------------------------------------- #
# Incremental-change serialization
# ---------------------------------------------------------------------- #
def write_incremental(
    changes: Sequence[GraphChange],
    base_revision: Optional[int] = None,
    target_revision: Optional[int] = None,
) -> str:
    """Serialize graph changes as one-line-per-change incremental commands.

    When revision identifiers are supplied, the document opens with a
    ``c resync <base> <target>`` comment so an incremental payload on the
    wire is self-describing (the worker protocol carries the revisions in
    the message frame; the comment exists for debugging captured traffic).
    :func:`read_incremental` skips comments, so round-tripping is
    unaffected.

    The grammar mirrors the extension Firmament uses towards its solver:

    * ``d add_node <id> <supply> [<type>]``
    * ``d remove_node <id>``
    * ``d supply <id> <delta>``
    * ``d add_arc <src> <dst> <capacity> <cost>``
    * ``d remove_arc <src> <dst>``
    * ``d capacity <src> <dst> <new_capacity>``
    * ``d cost <src> <dst> <new_cost>``

    A :class:`~repro.flow.changes.NodeAddition` that carries arcs is written
    as an ``add_node`` line followed by one ``add_arc`` line per arc; on
    reading, those come back as separate changes with the same overall
    effect.

    Raises:
        ValueError: If a node addition has no explicit ``node_id`` (the text
            format cannot represent "allocate an id for me").
    """
    lines: List[str] = []
    if base_revision is not None or target_revision is not None:
        lines.append(f"c resync {base_revision} {target_revision}")
    for change in changes:
        if isinstance(change, NodeAddition):
            if change.node_id is None:
                raise ValueError(
                    "NodeAddition must carry an explicit node_id to be serialized"
                )
            token = _TYPE_TOKENS[change.node_type]
            lines.append(f"d add_node {change.node_id} {change.supply} {token}")
            for dst, capacity, cost in change.arcs_out:
                lines.append(f"d add_arc {change.node_id} {dst} {capacity} {cost}")
            for src, capacity, cost in change.arcs_in:
                lines.append(f"d add_arc {src} {change.node_id} {capacity} {cost}")
        elif isinstance(change, NodeRemoval):
            lines.append(f"d remove_node {change.node_id}")
        elif isinstance(change, SupplyChange):
            lines.append(f"d supply {change.node_id} {change.delta}")
        elif isinstance(change, ArcAddition):
            lines.append(f"d add_arc {change.src} {change.dst} {change.capacity} {change.cost}")
        elif isinstance(change, ArcRemoval):
            lines.append(f"d remove_arc {change.src} {change.dst}")
        elif isinstance(change, ArcCapacityChange):
            lines.append(f"d capacity {change.src} {change.dst} {change.new_capacity}")
        elif isinstance(change, ArcCostChange):
            lines.append(f"d cost {change.src} {change.dst} {change.new_cost}")
        else:
            raise TypeError(f"unsupported graph change type: {type(change).__name__}")
    return "\n".join(lines) + ("\n" if lines else "")


def read_incremental(text: Union[str, Iterable[str]]) -> List[GraphChange]:
    """Parse incremental commands produced by :func:`write_incremental`.

    The returned changes are applied with
    :func:`repro.flow.changes.apply_changes`.
    """
    if isinstance(text, str):
        lines: Iterable[str] = text.splitlines()
    else:
        lines = text
    changes: List[GraphChange] = []
    for line_number, raw_line in enumerate(lines, start=1):
        line = raw_line.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] != "d" or len(fields) < 3:
            raise DimacsFormatError(
                f"line {line_number}: expected a 'd <command> ...' change line, got {line!r}"
            )
        command = fields[1]
        if command == "add_node":
            node_type = NodeType.OTHER
            if len(fields) == 5 and fields[4] in _TOKEN_TYPES:
                node_type = _TOKEN_TYPES[fields[4]]
            changes.append(
                NodeAddition(
                    node_id=_parse_int(fields[2], line_number),
                    supply=_parse_int(fields[3], line_number),
                    node_type=node_type,
                )
            )
        elif command == "remove_node":
            changes.append(NodeRemoval(node_id=_parse_int(fields[2], line_number)))
        elif command == "supply":
            changes.append(
                SupplyChange(
                    node_id=_parse_int(fields[2], line_number),
                    delta=_parse_int(fields[3], line_number),
                )
            )
        elif command == "add_arc":
            changes.append(
                ArcAddition(
                    src=_parse_int(fields[2], line_number),
                    dst=_parse_int(fields[3], line_number),
                    capacity=_parse_int(fields[4], line_number),
                    cost=_parse_int(fields[5], line_number),
                )
            )
        elif command == "remove_arc":
            changes.append(
                ArcRemoval(
                    src=_parse_int(fields[2], line_number),
                    dst=_parse_int(fields[3], line_number),
                )
            )
        elif command == "capacity":
            changes.append(
                ArcCapacityChange(
                    src=_parse_int(fields[2], line_number),
                    dst=_parse_int(fields[3], line_number),
                    new_capacity=_parse_int(fields[4], line_number),
                )
            )
        elif command == "cost":
            changes.append(
                ArcCostChange(
                    src=_parse_int(fields[2], line_number),
                    dst=_parse_int(fields[3], line_number),
                    new_cost=_parse_int(fields[4], line_number),
                )
            )
        else:
            raise DimacsFormatError(
                f"line {line_number}: unknown incremental command {command!r}"
            )
    return changes
