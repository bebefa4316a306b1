"""Directed flow-network representation for flow-based scheduling.

The scheduler (Quincy / Firmament) expresses the cluster scheduling problem
as a min-cost max-flow optimization over a directed graph.  Task nodes are
sources of one unit of flow, the single sink node drains all flow, and the
intermediate nodes (cluster/rack/request aggregators, machines, unscheduled
aggregators) shape where that flow may go and at what cost.

The :class:`FlowNetwork` here is a plain adjacency-list graph with explicit
integer node identifiers: the interface of the solvers, the DIMACS codec and
the oracles.  A graph manager keeps its own network in a residual instead
(:class:`~repro.solvers.residual.FlowGraph`) and builds one of these from
it only where one is the interface.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Tuple


class NodeType(enum.Enum):
    """Role of a node in the scheduling flow network.

    The node type is not interpreted by the MCMF solvers (they only see
    supplies, capacities, and costs), but the scheduler uses it to build the
    network and to extract placements.
    """

    TASK = "task"
    UNSCHEDULED_AGGREGATOR = "unscheduled_aggregator"
    CLUSTER_AGGREGATOR = "cluster_aggregator"
    RACK_AGGREGATOR = "rack_aggregator"
    REQUEST_AGGREGATOR = "request_aggregator"
    MACHINE = "machine"
    SINK = "sink"
    OTHER = "other"


@dataclass(slots=True)
class Node:
    """A node of the flow network.

    Attributes:
        node_id: Unique integer identifier within the network.
        node_type: Semantic role (task, machine, aggregator, sink, ...).
        supply: Flow supply. Positive for sources (tasks), negative for the
            sink, zero for pass-through nodes.
        name: Optional human-readable label used in debugging output.
        ref: Optional reference to the scheduler-level entity (task id,
            machine id, job id) this node represents.
    """

    node_id: int
    node_type: NodeType = NodeType.OTHER
    supply: int = 0
    name: str = ""
    ref: Optional[object] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.name or str(self.ref) if (self.name or self.ref) else ""
        return f"Node({self.node_id}, {self.node_type.value}, supply={self.supply}, {label})"


@dataclass(slots=True)
class Arc:
    """A directed arc of the flow network.

    Attributes:
        src: Source node identifier.
        dst: Destination node identifier.
        capacity: Maximum flow the arc may carry (``u_ij`` in the paper).
        cost: Per-unit cost of routing flow over the arc (``c_ij``).
        min_flow: Lower bound on flow (always zero for scheduling graphs but
            kept for generality).
        flow: Flow currently assigned by a solver; zero before solving.
    """

    src: int
    dst: int
    capacity: int
    cost: int
    min_flow: int = 0
    flow: int = 0

    @property
    def residual_capacity(self) -> int:
        """Remaining capacity of the arc given its current flow."""
        return self.capacity - self.flow

    def key(self) -> Tuple[int, int]:
        """Return the ``(src, dst)`` pair identifying this arc."""
        return (self.src, self.dst)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Arc({self.src}->{self.dst}, cap={self.capacity}, "
            f"cost={self.cost}, flow={self.flow})"
        )


class FlowNetwork:
    """Mutable directed graph with supplies, capacities, and costs.

    The network is a multigraph-free directed graph: at most one arc may
    exist between an ordered pair of nodes.  Scheduling policies never need
    parallel arcs, and the restriction keeps incremental change bookkeeping
    simple (an arc is identified by its endpoints).
    """

    def __init__(self) -> None:
        self._nodes: Dict[int, Node] = {}
        self._arcs: Dict[Tuple[int, int], Arc] = {}
        # Adjacency as insertion-ordered dicts keyed by the opposite
        # endpoint, so arc removal is O(1) instead of an O(degree) list scan
        # (change batches drive frequent single-arc removals).
        self._out: Dict[int, Dict[int, Arc]] = {}
        self._in: Dict[int, Dict[int, Arc]] = {}
        self._next_node_id = 0
        #: Monotonic snapshot identifier assigned by the graph manager; lets
        #: consumers of change batches verify a patch applies to the network
        #: revision their derived state mirrors.
        self.revision: int = 0

    # ------------------------------------------------------------------ #
    # Node management
    # ------------------------------------------------------------------ #
    def add_node(
        self,
        node_type: NodeType = NodeType.OTHER,
        supply: int = 0,
        name: str = "",
        ref: Optional[object] = None,
        node_id: Optional[int] = None,
    ) -> Node:
        """Add a node and return it.

        When ``node_id`` is not given, a fresh identifier is allocated.
        """
        if node_id is None:
            node_id = self._next_node_id
        if node_id in self._nodes:
            raise ValueError(f"node {node_id} already exists")
        self._next_node_id = max(self._next_node_id, node_id + 1)
        node = Node(node_id=node_id, node_type=node_type, supply=supply, name=name, ref=ref)
        self._nodes[node_id] = node
        self._out[node_id] = {}
        self._in[node_id] = {}
        return node

    def remove_node(self, node_id: int) -> None:
        """Remove a node and all arcs incident to it."""
        if node_id not in self._nodes:
            raise KeyError(f"node {node_id} does not exist")
        for arc in list(self._out[node_id].values()):
            self.remove_arc(arc.src, arc.dst)
        for arc in list(self._in[node_id].values()):
            self.remove_arc(arc.src, arc.dst)
        del self._nodes[node_id]
        del self._out[node_id]
        del self._in[node_id]

    def node(self, node_id: int) -> Node:
        """Return the node with the given identifier."""
        return self._nodes[node_id]

    def has_node(self, node_id: int) -> bool:
        """Return whether a node with the given identifier exists."""
        return node_id in self._nodes

    def nodes(self) -> Iterator[Node]:
        """Iterate over all nodes."""
        return iter(self._nodes.values())

    def node_ids(self) -> Iterator[int]:
        """Iterate over all node identifiers."""
        return iter(self._nodes.keys())

    def nodes_of_type(self, node_type: NodeType) -> List[Node]:
        """Return all nodes of the requested type."""
        return [n for n in self._nodes.values() if n.node_type is node_type]

    def set_supply(self, node_id: int, supply: int) -> None:
        """Set the supply of a node."""
        self._nodes[node_id].supply = supply

    # ------------------------------------------------------------------ #
    # Arc management
    # ------------------------------------------------------------------ #
    def add_arc(self, src: int, dst: int, capacity: int, cost: int) -> Arc:
        """Add an arc between two existing nodes and return it."""
        if src not in self._nodes or dst not in self._nodes:
            raise KeyError(f"both endpoints of arc {src}->{dst} must exist")
        key = (src, dst)
        if key in self._arcs:
            raise ValueError(f"arc {src}->{dst} already exists")
        if capacity < 0:
            raise ValueError("arc capacity must be non-negative")
        arc = Arc(src=src, dst=dst, capacity=capacity, cost=cost)
        self._arcs[key] = arc
        self._out[src][dst] = arc
        self._in[dst][src] = arc
        return arc

    def remove_arc(self, src: int, dst: int) -> None:
        """Remove the arc between the two nodes (O(1))."""
        self._arcs.pop((src, dst))
        del self._out[src][dst]
        del self._in[dst][src]

    def arc(self, src: int, dst: int) -> Arc:
        """Return the arc between the two nodes."""
        return self._arcs[(src, dst)]

    def has_arc(self, src: int, dst: int) -> bool:
        """Return whether an arc exists between the two nodes."""
        return (src, dst) in self._arcs

    def arcs(self) -> Iterator[Arc]:
        """Iterate over all arcs."""
        return iter(self._arcs.values())

    def outgoing(self, node_id: int) -> List[Arc]:
        """Return the outgoing arcs of a node (in insertion order)."""
        return list(self._out[node_id].values())

    def incoming(self, node_id: int) -> List[Arc]:
        """Return the incoming arcs of a node (in insertion order)."""
        return list(self._in[node_id].values())

    def set_arc_capacity(self, src: int, dst: int, capacity: int) -> None:
        """Update an arc's capacity."""
        if capacity < 0:
            raise ValueError("arc capacity must be non-negative")
        self._arcs[(src, dst)].capacity = capacity

    def set_arc_cost(self, src: int, dst: int, cost: int) -> None:
        """Update an arc's cost."""
        self._arcs[(src, dst)].cost = cost

    # ------------------------------------------------------------------ #
    # Properties and convenience views
    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        """Number of nodes in the network."""
        return len(self._nodes)

    @property
    def num_arcs(self) -> int:
        """Number of arcs in the network."""
        return len(self._arcs)

    def total_supply(self) -> int:
        """Sum of all (positive and negative) node supplies."""
        return sum(n.supply for n in self._nodes.values())

    def clear_flow(self) -> None:
        """Reset the flow on every arc to zero."""
        self.set_flows({})

    def set_flows(self, flows: Mapping[Tuple[int, int], int]) -> None:
        """Assign flow values to arcs from a ``{(src, dst): flow}`` mapping.

        Arcs not present in ``flows`` are reset to zero flow.
        """
        get = flows.get
        for key, arc in self._arcs.items():
            arc.flow = get(key, 0)

    def flows(self) -> Dict[Tuple[int, int], int]:
        """Return a ``{(src, dst): flow}`` mapping of the current flow."""
        return {a.key(): a.flow for a in self._arcs.values() if a.flow != 0}

    def copy(self) -> "FlowNetwork":
        """Return a deep copy of the network (nodes, arcs, flows)."""
        clone = FlowNetwork()
        for node in self._nodes.values():
            clone.add_node(
                node_type=node.node_type,
                supply=node.supply,
                name=node.name,
                ref=node.ref,
                node_id=node.node_id,
            )
        for arc in self._arcs.values():
            new_arc = clone.add_arc(arc.src, arc.dst, arc.capacity, arc.cost)
            new_arc.flow = arc.flow
        clone._next_node_id = self._next_node_id
        clone.revision = self.revision
        return clone

    def structurally_equal(self, other: "FlowNetwork") -> List[str]:
        """Compare two networks structurally, returning the differences.

        Flow values are ignored -- node identity/type/supply and arc
        capacity/cost are what solvers consume.  Returns an empty list when
        the networks are equivalent; otherwise human-readable difference
        descriptions (used by the graph manager's cross-check mode and the
        incremental-construction equivalence tests).
        """
        differences: List[str] = []
        mine = {n.node_id: n for n in self.nodes()}
        theirs = {n.node_id: n for n in other.nodes()}
        for node_id in sorted(mine.keys() - theirs.keys()):
            differences.append(f"node {node_id} only in left network")
        for node_id in sorted(theirs.keys() - mine.keys()):
            differences.append(f"node {node_id} only in right network")
        for node_id in sorted(mine.keys() & theirs.keys()):
            a, b = mine[node_id], theirs[node_id]
            if a.node_type is not b.node_type or a.supply != b.supply:
                differences.append(
                    f"node {node_id}: ({a.node_type.value}, supply={a.supply}) "
                    f"vs ({b.node_type.value}, supply={b.supply})"
                )
        my_arcs = {a.key(): (a.capacity, a.cost) for a in self.arcs()}
        their_arcs = {a.key(): (a.capacity, a.cost) for a in other.arcs()}
        for key in sorted(my_arcs.keys() - their_arcs.keys()):
            differences.append(f"arc {key[0]}->{key[1]} only in left network")
        for key in sorted(their_arcs.keys() - my_arcs.keys()):
            differences.append(f"arc {key[0]}->{key[1]} only in right network")
        for key in sorted(my_arcs.keys() & their_arcs.keys()):
            if my_arcs[key] != their_arcs[key]:
                differences.append(
                    f"arc {key[0]}->{key[1]}: (cap, cost) {my_arcs[key]} "
                    f"vs {their_arcs[key]}"
                )
        return differences

    # ------------------------------------------------------------------ #
    # Interoperability
    # ------------------------------------------------------------------ #
    def to_networkx(self):
        """Convert the network to a :class:`networkx.DiGraph`.

        The produced graph uses the node attribute ``demand`` (negative of
        supply, following networkx's convention) and arc attributes
        ``capacity`` and ``weight`` so that it can be fed directly to
        :func:`networkx.min_cost_flow`.  Used as the correctness oracle in
        tests; the production solvers never go through networkx.
        """
        import networkx as nx

        graph = nx.DiGraph()
        for node in self._nodes.values():
            graph.add_node(node.node_id, demand=-node.supply)
        for arc in self._arcs.values():
            graph.add_edge(arc.src, arc.dst, capacity=arc.capacity, weight=arc.cost)
        return graph

    def validate_structure(self) -> List[str]:
        """Return a list of structural problems (empty when valid).

        Checks that supplies balance, that arcs reference existing nodes, and
        that capacities are non-negative.  Used by the graph manager before
        submitting a network to the solver.
        """
        problems: List[str] = []
        if self.total_supply() != 0:
            problems.append(
                f"total supply is {self.total_supply()}, expected 0 "
                "(sink supply must balance sources)"
            )
        for arc in self._arcs.values():
            if arc.src not in self._nodes or arc.dst not in self._nodes:
                problems.append(f"arc {arc.src}->{arc.dst} references a missing node")
            if arc.capacity < 0:
                problems.append(f"arc {arc.src}->{arc.dst} has negative capacity")
            if arc.src == arc.dst:
                problems.append(f"self-loop arc on node {arc.src}")
        return problems

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FlowNetwork(nodes={self.num_nodes}, arcs={self.num_arcs})"
