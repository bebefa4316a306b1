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
batch: the record the graph manager reads off its graph's change journal
(:meth:`ChangeBatch.from_journal`; :meth:`ChangeBatch.diff` of two
networks is the tests' and benchmarks' reference).  A consumer that holds
its own copy of the graph -- a worker's shadow, a dual executor's legs --
replays it (:meth:`repro.solvers.residual.ResidualNetwork.apply_changes`)
instead of rebuilding its residual: solver work proportional to the
change, not the graph.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.flow.graph import FlowNetwork, NodeType

#: Change-journal origins (:attr:`repro.solvers.residual.ResidualNetwork.
#: arc_journal`): the node or arc did not exist when the journal was last
#: taken / did, and was removed since.
ADDED = "added"
REMOVED = "removed"

#: A residual's change journal as :meth:`~repro.solvers.residual.
#: ResidualNetwork.take_journal` hands it over: ``(nodes, arcs)``.
Journal = Tuple[dict, dict]


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

    @classmethod
    def from_journal(
        cls,
        residual,
        base_revision: Optional[int],
        target_revision: Optional[int],
        earlier: Sequence[Journal] = (),
    ) -> "ChangeBatch":
        """Take a residual's change journal
        (:meth:`~repro.solvers.residual.ResidualNetwork.take_journal`) as
        the batch :meth:`diff` would read between the residual then and now.

        ``earlier`` are journals taken off the same residual before this
        one, oldest first (one per graph update nobody read a batch of);
        the batch then starts where the oldest was started.  The journals
        hold each touched entity's first-touch origin, so the records
        coalesce: a patch carries only a final value that differs from its
        origin, a supply change the net delta, an arc (or node) added and
        removed in between leaves nothing, and one removed and re-added
        stays a removal plus an addition with its final values.  Ordered
        as :meth:`diff` orders a batch -- arc removals, node removals, node
        additions, supply changes, arc additions, capacity/cost patches --
        so applying it in order is always valid.
        """
        nodes, arcs = _merge_journals((*earlier, residual.take_journal()))
        removed_arcs: List[GraphChange] = []
        removed_nodes: List[GraphChange] = []
        added_nodes: List[GraphChange] = []
        supplies: List[GraphChange] = []
        added_arcs: List[GraphChange] = []
        patches: List[GraphChange] = []
        index, alive, supply = residual.index, residual.node_alive, residual.supply
        for node_id, origin in nodes.items():
            if origin is REMOVED:
                removed_nodes.append(NodeRemoval(node_id))
            i = index.get(node_id)  # a compaction forgets dead nodes
            if i is None or not alive[i]:
                continue
            if origin is not ADDED and origin is not REMOVED:
                if supply[i] != origin:
                    supplies.append(SupplyChange(node_id, supply[i] - origin))
                continue
            added_nodes.append(
                NodeAddition(
                    node_type=residual.node_types[i],
                    supply=supply[i],
                    ref=residual.node_refs[i],
                    node_id=node_id,
                )
            )
        position_of = residual.arc_position
        flows, costs, scale = residual.arc_residual, residual.arc_cost, residual.cost_scale
        for key, origin in arcs.items():
            if origin is REMOVED:
                removed_arcs.append(ArcRemoval(*key))
            position = position_of.get(key)
            if position is None:
                continue
            forward = 2 * position
            capacity = flows[forward] + flows[forward + 1]
            cost = costs[forward] // scale
            if origin is ADDED or origin is REMOVED:
                added_arcs.append(ArcAddition(*key, capacity, cost))
                continue
            if capacity != origin[0]:
                patches.append(ArcCapacityChange(*key, capacity))
            if cost != origin[1]:
                patches.append(ArcCostChange(*key, cost))
        return cls(
            removed_arcs + removed_nodes + added_nodes + supplies + added_arcs + patches,
            base_revision,
            target_revision,
        )


def _merge_journals(journals: Sequence[Journal]) -> Journal:
    """Consecutive journals, oldest first, as the one journal their
    mutations would have written: an entity keeps its oldest origin,
    except that a removal after an origin value is a removal (re-added or
    not, the batch removes it first), and an addition stays an addition
    (present or not at the end: :meth:`ChangeBatch.from_journal` reads
    whether it survived)."""
    if len(journals) == 1:
        return journals[0]
    nodes, arcs = (dict(part) for part in journals[0])
    for later_nodes, later_arcs in journals[1:]:
        for merged, later in ((nodes, later_nodes), (arcs, later_arcs)):
            for key, origin in later.items():
                kept = merged.get(key)
                if kept is None or (origin is REMOVED and kept is not ADDED):
                    merged[key] = origin
    return nodes, arcs


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
