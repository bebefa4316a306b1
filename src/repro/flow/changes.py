"""Typed graph changes and their effect on an existing MCMF solution.

All cluster events (task submissions, completions, machine failures, cost
updates from monitoring data) ultimately reduce to three kinds of change to
the flow network (paper, Section 5.2):

1. **Supply changes** at nodes -- task submission adds a source, task
   completion/removal removes one.
2. **Capacity changes** on arcs -- machines failing or (re)joining the
   cluster; arc addition/removal is a capacity change from/to zero.
3. **Cost changes** on arcs -- the desirability of a route changed.

Table 3 of the paper classifies which arc changes invalidate feasibility or
optimality of the previously computed flow.  :func:`classify_arc_change`
implements that classification so the incremental solvers can decide how much
repair work a batch of changes requires.

:class:`ChangeBatch` groups one scheduling round's changes into a typed
batch: the record the graph manager emits from the mutations it applies to
its graph (:class:`ChangeBatchBuilder`; :meth:`ChangeBatch.diff` of two
networks is the tests' and benchmarks' reference).  A consumer that holds
its own copy of the graph -- a worker's shadow, a dual executor's legs --
replays it (:meth:`repro.solvers.residual.ResidualNetwork.apply_changes`)
instead of rebuilding its residual: solver work proportional to the
change, not the graph.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.flow.graph import FlowNetwork, NodeType


class ChangeEffect(enum.Enum):
    """Effect of a graph change on an existing optimal, feasible solution."""

    NONE = "none"
    BREAKS_OPTIMALITY = "breaks_optimality"
    BREAKS_FEASIBILITY = "breaks_feasibility"


@dataclass(slots=True)
class GraphChange:
    """Base class for all graph changes applied between scheduling runs."""

    def apply(self, network: FlowNetwork) -> None:
        """Apply the change to the network in place."""
        raise NotImplementedError


@dataclass(slots=True)
class SupplyChange(GraphChange):
    """Change the supply of an existing node by ``delta``."""

    node_id: int
    delta: int

    def apply(self, network: FlowNetwork) -> None:
        node = network.node(self.node_id)
        network.set_supply(self.node_id, node.supply + self.delta)


@dataclass(slots=True)
class NodeAddition(GraphChange):
    """Add a node (typically a task node with unit supply) and its arcs.

    Attributes:
        node_type: Type of the node to create.
        supply: Supply of the new node.
        name: Human-readable label.
        ref: Scheduler-level entity reference.
        arcs_out: Sequence of ``(dst, capacity, cost)`` tuples.
        arcs_in: Sequence of ``(src, capacity, cost)`` tuples.
        node_id: Optional explicit identifier; allocated if omitted.
    """

    node_type: NodeType
    supply: int = 0
    name: str = ""
    ref: Optional[object] = None
    arcs_out: Sequence[Tuple[int, int, int]] = field(default_factory=tuple)
    arcs_in: Sequence[Tuple[int, int, int]] = field(default_factory=tuple)
    node_id: Optional[int] = None
    created_node_id: Optional[int] = None

    def apply(self, network: FlowNetwork) -> None:
        node = network.add_node(
            node_type=self.node_type,
            supply=self.supply,
            name=self.name,
            ref=self.ref,
            node_id=self.node_id,
        )
        self.created_node_id = node.node_id
        for dst, capacity, cost in self.arcs_out:
            network.add_arc(node.node_id, dst, capacity, cost)
        for src, capacity, cost in self.arcs_in:
            network.add_arc(src, node.node_id, capacity, cost)


@dataclass(slots=True)
class NodeRemoval(GraphChange):
    """Remove a node (typically a completed task or failed machine)."""

    node_id: int

    def apply(self, network: FlowNetwork) -> None:
        network.remove_node(self.node_id)


@dataclass(slots=True)
class ArcCapacityChange(GraphChange):
    """Change the capacity of an arc; capacity zero models arc removal."""

    src: int
    dst: int
    new_capacity: int

    def apply(self, network: FlowNetwork) -> None:
        network.set_arc_capacity(self.src, self.dst, self.new_capacity)


@dataclass(slots=True)
class ArcCostChange(GraphChange):
    """Change the cost of an arc."""

    src: int
    dst: int
    new_cost: int

    def apply(self, network: FlowNetwork) -> None:
        network.set_arc_cost(self.src, self.dst, self.new_cost)


@dataclass(slots=True)
class ArcAddition(GraphChange):
    """Add a new arc between existing nodes."""

    src: int
    dst: int
    capacity: int
    cost: int

    def apply(self, network: FlowNetwork) -> None:
        network.add_arc(self.src, self.dst, self.capacity, self.cost)


@dataclass(slots=True)
class ArcRemoval(GraphChange):
    """Remove an existing arc."""

    src: int
    dst: int

    def apply(self, network: FlowNetwork) -> None:
        network.remove_arc(self.src, self.dst)


def apply_changes(network: FlowNetwork, changes: Sequence[GraphChange]) -> None:
    """Apply a batch of graph changes to the network in order."""
    for change in changes:
        change.apply(network)


@dataclass
class ChangeBatch:
    """A typed batch of graph changes between two scheduling rounds.

    The batch carries the revision identifiers of the networks it connects
    so a consumer holding state for revision ``base_revision`` can verify a
    patch actually applies to what it has (and fall back to a rebuild when
    rounds were skipped).

    The changes are ordered so that applying them sequentially is always
    valid: arc removals first, then node removals, node additions, supply
    changes, arc additions, and finally capacity/cost patches.
    """

    changes: List[GraphChange] = field(default_factory=list)
    base_revision: Optional[int] = None
    target_revision: Optional[int] = None

    def __iter__(self):
        return iter(self.changes)

    def __len__(self) -> int:
        return len(self.changes)

    def __bool__(self) -> bool:
        # An empty batch is still meaningful (nothing changed), so a batch
        # object is always truthy; use len() to test for emptiness.
        return True

    def append(self, change: GraphChange) -> None:
        """Add a change to the batch."""
        self.changes.append(change)

    def apply_to(self, network: FlowNetwork) -> None:
        """Apply the batch to a flow network in order."""
        apply_changes(network, self.changes)

    @classmethod
    def diff(cls, old: FlowNetwork, new: FlowNetwork) -> "ChangeBatch":
        """Compute the typed change batch transforming ``old`` into ``new``.

        Flow values are ignored -- only structure (nodes, supplies, arcs,
        capacities, costs) is compared.  The diff is O(nodes + arcs) of
        dictionary lookups, negligible next to a solver run, and lets every
        consumer patch its own derived state instead of rebuilding it.
        """
        batch = cls(
            base_revision=getattr(old, "revision", None),
            target_revision=getattr(new, "revision", None),
        )
        changes = batch.changes

        old_nodes = {node.node_id: node for node in old.nodes()}
        new_nodes = {node.node_id: node for node in new.nodes()}

        # 1. Arcs that disappeared (including those of removed nodes).
        for arc in old.arcs():
            if not new.has_arc(arc.src, arc.dst):
                changes.append(ArcRemoval(src=arc.src, dst=arc.dst))
        # 2. Nodes that disappeared (their arcs are already removed above).
        for node_id in old_nodes:
            if node_id not in new_nodes:
                changes.append(NodeRemoval(node_id=node_id))
        # 3. New nodes (arcs follow as ArcAddition entries).
        for node_id, node in new_nodes.items():
            if node_id not in old_nodes:
                changes.append(
                    NodeAddition(
                        node_type=node.node_type,
                        supply=node.supply,
                        name=node.name,
                        ref=node.ref,
                        node_id=node_id,
                    )
                )
        # 4. Supply changes on surviving nodes.
        for node_id, node in new_nodes.items():
            old_node = old_nodes.get(node_id)
            if old_node is not None and old_node.supply != node.supply:
                changes.append(
                    SupplyChange(node_id=node_id, delta=node.supply - old_node.supply)
                )
        # 5. New arcs, then capacity/cost patches on surviving arcs.
        for arc in new.arcs():
            if not old.has_arc(arc.src, arc.dst):
                changes.append(
                    ArcAddition(
                        src=arc.src, dst=arc.dst, capacity=arc.capacity, cost=arc.cost
                    )
                )
                continue
            old_arc = old.arc(arc.src, arc.dst)
            if old_arc.capacity != arc.capacity:
                changes.append(
                    ArcCapacityChange(
                        src=arc.src, dst=arc.dst, new_capacity=arc.capacity
                    )
                )
            if old_arc.cost != arc.cost:
                changes.append(
                    ArcCostChange(src=arc.src, dst=arc.dst, new_cost=arc.cost)
                )
        return batch


class ChangeBatchBuilder:
    """Applies a round's mutations to a graph and records them as a
    :class:`ChangeBatch`.

    The graph manager keeps its network in a
    :class:`~repro.solvers.residual.FlowGraph`; routing every mutation
    through this builder both applies it to the graph's residual and
    records the corresponding typed change, so the round's
    :class:`ChangeBatch` is emitted *directly from the mutations* -- no
    second network is built and no diff pass runs.

    The builder coalesces redundant records so the finished batch matches
    what :meth:`ChangeBatch.diff` would have produced against a snapshot:

    * capacity/cost patches keep only the final value, and are dropped when
      the final value equals the round's starting value;
    * supply changes record the net delta against the starting supply;
    * an arc (or node) added and removed within the same round cancels out,
      and patches to same-round-added arcs fold into the addition record.

    :meth:`finish` orders the surviving changes the way :meth:`ChangeBatch.diff`
    does -- arc removals, node removals, node additions, supply changes,
    arc additions, capacity/cost patches -- so applying the batch
    sequentially is always valid.
    """

    def __init__(self, graph, base_revision: Optional[int]) -> None:
        self._residual = graph.residual
        self.base_revision = base_revision
        # Ordered dicts keyed by arc endpoints / node id; values described
        # per mutator below.
        self._removed_arcs: Dict[Tuple[int, int], ArcRemoval] = {}
        self._removed_nodes: Dict[int, NodeRemoval] = {}
        self._added_nodes: Dict[int, NodeAddition] = {}
        self._added_arcs: Dict[Tuple[int, int], ArcAddition] = {}
        # (src, dst) -> (residual position, original capacity, original
        # stored cost) at first touch (positions hold within a round).
        self._patched_arcs: Dict[Tuple[int, int], Tuple[int, int, int]] = {}
        # node_id -> original supply at first touch.
        self._supply_origin: Dict[int, int] = {}
        #: Node ids whose incident arcs were removed this round plus nodes
        #: added this round -- the only candidates that can have become
        #: isolated, consumed by the graph manager's incremental prune.
        self.prune_candidates: set = set()

    # ------------------------------------------------------------------ #
    # Node mutations
    # ------------------------------------------------------------------ #
    def add_node(
        self,
        node_type: NodeType,
        supply: int = 0,
        name: str = "",
        ref: Optional[object] = None,
        node_id: Optional[int] = None,
    ) -> int:
        """Add a node to the graph and record the addition; returns its id."""
        if node_id is None:
            raise ValueError("a graph node needs an explicit node id")
        self._residual.add_node(node_id, supply, node_type, ref)
        self._added_nodes[node_id] = NodeAddition(
            node_type=node_type,
            supply=supply,
            name=name,
            ref=ref,
            node_id=node_id,
        )
        self.prune_candidates.add(node_id)
        return node_id

    def remove_node(self, node_id: int) -> None:
        """Remove a node (recording removals for its live incident arcs)."""
        residual = self._residual
        for key in residual.incident_keys(node_id) + residual.incident_keys(
            node_id, incoming=True
        ):
            self._record_arc_removal(key)
        residual.remove_node(node_id)
        self._supply_origin.pop(node_id, None)
        if node_id in self._added_nodes:
            # Added and removed within the same round: net no-op.
            del self._added_nodes[node_id]
        else:
            self._removed_nodes[node_id] = NodeRemoval(node_id=node_id)
        self.prune_candidates.discard(node_id)

    def set_supply(self, node_id: int, supply: int) -> None:
        """Set a node's supply, recording the net change for the round."""
        current = self._residual.supply_of(node_id)
        if current == supply:
            return
        if node_id in self._added_nodes:
            # Fold into the pending addition record.
            self._added_nodes[node_id].supply = supply
        else:
            self._supply_origin.setdefault(node_id, current)
        self._residual.set_supply(node_id, supply)

    # ------------------------------------------------------------------ #
    # Arc mutations
    # ------------------------------------------------------------------ #
    def add_arc(self, src: int, dst: int, capacity: int, cost: int) -> None:
        """Add an arc and record the addition.

        An arc removed earlier in the same round and re-added stays recorded
        as removal plus addition; removals precede additions in the finished
        batch, so the sequence applies cleanly.
        """
        if capacity < 0:
            raise ValueError("arc capacity must be non-negative")
        self._residual.add_arc(src, dst, capacity, cost)
        self._added_arcs[(src, dst)] = ArcAddition(
            src=src, dst=dst, capacity=capacity, cost=cost
        )

    def remove_arc(self, src: int, dst: int) -> None:
        """Remove an arc and record the removal."""
        self._record_arc_removal((src, dst))
        self._residual.remove_arc(src, dst)

    def set_arc_capacity(self, src: int, dst: int, capacity: int) -> None:
        """Patch an arc's capacity, recording the net change."""
        residual = self._residual
        key = (src, dst)
        position = residual.arc_position[key]
        if residual.arc_capacity(position) == capacity:
            return
        if key in self._added_arcs:
            self._added_arcs[key].capacity = capacity
        elif key not in self._patched_arcs:
            self._patched_arcs[key] = self._origin(residual, position)
        residual.set_arc_capacity(src, dst, capacity)

    def set_arc_cost(self, src: int, dst: int, cost: int) -> None:
        """Patch an arc's cost, recording the net change."""
        key = (src, dst)
        self.patch_known_arc_cost(key, self._residual.arc_position[key], cost)

    def patch_known_arc_cost(self, key: Tuple[int, int], position: int, cost: int) -> None:
        """:meth:`set_arc_cost` of an arc whose residual position the
        caller already resolved (the graph manager's per-round
        waiting-cost refresh, which touches many arcs)."""
        residual = self._residual
        if residual.arc_cost[2 * position] == cost * residual.cost_scale:
            return
        if key in self._added_arcs:
            self._added_arcs[key].cost = cost
        elif key not in self._patched_arcs:
            self._patched_arcs[key] = self._origin(residual, position)
        residual.patch_cost(position, cost)

    @staticmethod
    def _origin(residual, position: int) -> Tuple[int, int, int]:
        forward = 2 * position
        flows = residual.arc_residual
        return position, flows[forward] + flows[forward + 1], residual.arc_cost[forward]

    def _record_arc_removal(self, key: Tuple[int, int]) -> None:
        self._patched_arcs.pop(key, None)
        self.prune_candidates.update(key)
        if key in self._added_arcs:
            # Added and removed within the same round: net no-op.
            del self._added_arcs[key]
            return
        self._removed_arcs[key] = ArcRemoval(src=key[0], dst=key[1])

    # ------------------------------------------------------------------ #
    # Counters and batch assembly
    # ------------------------------------------------------------------ #
    @property
    def nodes_touched(self) -> int:
        """Nodes added, removed, or whose supply changed this round."""
        return (
            len(self._added_nodes)
            + len(self._removed_nodes)
            + len(self._supply_origin)
        )

    @property
    def arcs_patched(self) -> int:
        """Arcs added, removed, or patched (capacity/cost) this round."""
        return (
            len(self._added_arcs) + len(self._removed_arcs) + len(self._patched_arcs)
        )

    def finish(self, target_revision: Optional[int]) -> ChangeBatch:
        """Assemble the recorded mutations into a canonical change batch."""
        batch = ChangeBatch(
            base_revision=self.base_revision, target_revision=target_revision
        )
        residual = self._residual
        changes = batch.changes
        changes.extend(self._removed_arcs.values())
        changes.extend(self._removed_nodes.values())
        changes.extend(self._added_nodes.values())
        for node_id, original in self._supply_origin.items():
            current = residual.supply_of(node_id)
            if current != original:
                changes.append(SupplyChange(node_id=node_id, delta=current - original))
        changes.extend(self._added_arcs.values())
        arc_residual, arc_cost = residual.arc_residual, residual.arc_cost
        for (src, dst), (position, capacity, cost) in self._patched_arcs.items():
            forward = 2 * position
            current = arc_residual[forward] + arc_residual[forward + 1]
            if current != capacity:
                changes.append(
                    ArcCapacityChange(src=src, dst=dst, new_capacity=current)
                )
            if arc_cost[forward] != cost:
                changes.append(
                    ArcCostChange(
                        src=src, dst=dst, new_cost=arc_cost[forward] // residual.cost_scale
                    )
                )
        return batch


def classify_arc_change(
    reduced_cost: int,
    flow: int,
    *,
    new_capacity: Optional[int] = None,
    old_capacity: Optional[int] = None,
    new_reduced_cost: Optional[int] = None,
) -> ChangeEffect:
    """Classify an arc change per Table 3 of the paper.

    Given the reduced cost ``c^pi_ij`` and the flow on the arc under the
    previous (optimal, feasible) solution, determine whether changing the
    arc's capacity or cost preserves optimality and feasibility.

    Exactly one kind of change must be described: either capacity (pass both
    ``old_capacity`` and ``new_capacity``) or cost (pass ``new_reduced_cost``,
    the reduced cost after the change under the old potentials).

    Args:
        reduced_cost: Reduced cost of the arc before the change.
        flow: Flow on the arc in the previous solution.
        new_capacity: New capacity, for a capacity change.
        old_capacity: Previous capacity, for a capacity change.
        new_reduced_cost: Reduced cost after a cost change.

    Returns:
        The :class:`ChangeEffect` of the change.

    Raises:
        ValueError: If neither or both change kinds are described.
    """
    is_capacity_change = new_capacity is not None and old_capacity is not None
    is_cost_change = new_reduced_cost is not None
    if is_capacity_change == is_cost_change:
        raise ValueError("describe exactly one of capacity change or cost change")

    if is_capacity_change:
        if new_capacity > old_capacity:
            # Increasing capacity: under complementary slackness flow on an arc
            # with negative reduced cost must saturate it, so extra capacity on
            # such an arc breaks optimality.  Zero/positive reduced cost arcs
            # are unaffected.
            if reduced_cost < 0:
                return ChangeEffect.BREAKS_OPTIMALITY
            return ChangeEffect.NONE
        if new_capacity < old_capacity:
            # Decreasing capacity below the carried flow breaks feasibility.
            if flow > new_capacity:
                return ChangeEffect.BREAKS_FEASIBILITY
            return ChangeEffect.NONE
        return ChangeEffect.NONE

    # Cost change.
    if new_reduced_cost > reduced_cost:
        # Increasing cost: if the arc carried flow and its reduced cost becomes
        # positive, complementary slackness is violated.
        if flow > 0 and new_reduced_cost > 0:
            return ChangeEffect.BREAKS_OPTIMALITY
        return ChangeEffect.NONE
    if new_reduced_cost < reduced_cost:
        # Decreasing cost: if the reduced cost becomes negative while the arc
        # has residual capacity, a cheaper route exists and optimality breaks.
        if new_reduced_cost < 0:
            return ChangeEffect.BREAKS_OPTIMALITY
        return ChangeEffect.NONE
    return ChangeEffect.NONE
