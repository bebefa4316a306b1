"""Quincy's locality-oriented scheduling policy (Figure 6b of the paper).

Tasks have low-cost *preference arcs* to machines and racks holding a large
fraction of their input data, and fall back to scheduling anywhere via the
cluster aggregator ``X`` at the cost of transferring their entire input
across the core network.  The policy trades off data locality, task waiting
time, and preemption cost -- exactly the policy Quincy proposed for batch
jobs, which the paper reuses for its head-to-head comparison.

The *preference threshold* controls how much local data a machine (or rack)
must hold before the task receives a preference arc to it.  Lowering the
threshold adds many more arcs to the graph: Section 7.2 of the paper shows
Firmament sustains a 2 % threshold (better locality, more arcs) where
Quincy's cost scaling becomes unacceptably slow (Figure 15).
"""

from __future__ import annotations

from repro.cluster.state import ClusterState
from repro.core.policies.base import PolicyNetworkBuilder, SchedulingPolicy
from repro.flow.graph import NodeType


class QuincyPolicy(SchedulingPolicy):
    """Data-locality policy with cluster and rack aggregators."""

    name = "quincy"

    def __init__(
        self,
        machine_preference_threshold: float = 0.14,
        rack_preference_threshold: float = 0.30,
        max_preference_arcs: int = 10,
    ) -> None:
        """Create the policy.

        Args:
            machine_preference_threshold: Minimum fraction of a task's input
                that must live on a machine for the task to get a preference
                arc to it (the paper's default corresponds to ~14 %, at most
                seven arcs; 2 % is the aggressive setting of Figure 15).
            rack_preference_threshold: Same, for rack aggregators.
            max_preference_arcs: Upper bound on preference arcs per task
                (Quincy used a maximum of ten).
        """
        if not 0.0 < machine_preference_threshold <= 1.0:
            raise ValueError("machine preference threshold must be in (0, 1]")
        self.machine_preference_threshold = machine_preference_threshold
        self.rack_preference_threshold = rack_preference_threshold
        self.max_preference_arcs = max_preference_arcs

    # ------------------------------------------------------------------ #
    # Derivation scopes: X -> racks -> machines backbone, preference arcs
    # ------------------------------------------------------------------ #
    def arcs_for_task(
        self, state: ClusterState, builder: PolicyNetworkBuilder, task, now: float
    ) -> None:
        """Emit one task's fallback and preference arcs plus the shared
        task arcs."""
        task_node = builder.task_node(task.task_id)
        # Fallback: schedule anywhere via the cluster aggregator, paying
        # for transferring the entire input across the core.
        builder.add_arc(
            task_node,
            builder.aggregator("X", NodeType.CLUSTER_AGGREGATOR),
            1,
            self.transfer_cost(task, 0.0) + self.placement_base_cost,
        )
        super().arcs_for_task(state, builder, task, now)
        self._add_preference_arcs(state, builder, task, task_node)

    def arcs_for_machine(
        self, state: ClusterState, builder: PolicyNetworkBuilder, machine, now: float
    ) -> None:
        """Emit one healthy machine's backbone arcs (rack in, sink out)."""
        builder.add_arc(
            builder.rack_node(machine.rack_id),
            builder.machine_node(machine.machine_id),
            machine.num_slots,
            0,
        )
        super().arcs_for_machine(state, builder, machine, now)

    def refresh_aggregator(
        self, state: ClusterState, builder: PolicyNetworkBuilder, key, now: float
    ) -> None:
        """Emit a ``("rack", id)`` scope: the cluster aggregator's arc to
        the rack, as wide as the rack's available slots."""
        kind, rack_id = key
        if kind != "rack":
            super().refresh_aggregator(state, builder, key, now)
            return
        topology = state.topology
        rack = topology.racks.get(rack_id)
        if rack is None:
            return
        rack_slots = sum(
            topology.machine(m).num_slots
            for m in rack.machine_ids
            if topology.machine(m).is_available
        )
        if rack_slots > 0:
            cluster_agg = builder.aggregator("X", NodeType.CLUSTER_AGGREGATOR)
            builder.add_arc(cluster_agg, builder.rack_node(rack_id), rack_slots, 0)

    def dirty_aggregators(self, state: ClusterState, dirty, now: float, builder):
        """Racks of availability-dirty machines, plus the shared scopes."""
        topology = state.topology
        racks = set()
        for machine_id in dirty.machines_availability:
            machine = topology.machines.get(machine_id)
            if machine is not None:
                racks.add(machine.rack_id)
            else:
                # The machine left the topology entirely; its old rack is
                # unknown, so refresh every rack (rare).
                racks.update(topology.racks)
        keys = [("rack", rack_id) for rack_id in sorted(racks)]
        return keys + super().dirty_aggregators(state, dirty, now, builder)

    def owned_arcs(self, builder: PolicyNetworkBuilder, key):
        """A machine also owns its arc from the rack; a rack its arc from
        the cluster aggregator."""
        kind, ident = key
        if kind == "rack":
            return builder.incoming(
                builder.peek_rack_node(ident), NodeType.CLUSTER_AGGREGATOR
            )
        owned = super().owned_arcs(builder, key)
        if kind == "machine":
            owned = owned + builder.incoming(
                builder.peek_machine_node(ident), NodeType.RACK_AGGREGATOR
            )
        return owned

    def task_machine_dependencies(self, state: ClusterState, task):
        """Preference-arc machines plus the task's current machine."""
        dependencies = set(task.input_locality)
        if task.machine_id is not None:
            dependencies.add(task.machine_id)
        return dependencies

    # ------------------------------------------------------------------ #
    # Preference arcs
    # ------------------------------------------------------------------ #
    def _add_preference_arcs(
        self,
        state: ClusterState,
        builder: PolicyNetworkBuilder,
        task,
        task_node: int,
    ) -> None:
        """Add machine and rack preference arcs for one task."""
        if not task.input_locality:
            return
        topology = state.topology
        arcs_added = 0

        # Machine preference arcs, best locality first.
        candidates = sorted(
            task.input_locality.items(), key=lambda item: item[1], reverse=True
        )
        preferred_racks = {}
        cheapest_machine_arc = {}
        for machine_id, fraction in candidates:
            if arcs_added >= self.max_preference_arcs:
                break
            if machine_id not in topology.machines:
                continue
            machine = topology.machine(machine_id)
            if not machine.is_available:
                continue
            rack_id = machine.rack_id
            preferred_racks[rack_id] = preferred_racks.get(rack_id, 0.0) + fraction
            if fraction < self.machine_preference_threshold:
                continue
            cost = self.transfer_cost(task, fraction) + self.placement_base_cost
            builder.add_arc(task_node, builder.machine_node(machine_id), 1, cost)
            cheapest_machine_arc[rack_id] = min(
                cheapest_machine_arc.get(rack_id, cost), cost
            )
            arcs_added += 1

        # Rack preference arcs for racks that aggregate enough local data.
        # Quincy keeps the preference order machine < rack < cluster: running
        # "somewhere in the rack" cannot beat the specific machine that holds
        # the data, so the rack arc is never cheaper than the cheapest
        # machine preference arc the task has within that rack.
        for rack_id, fraction in preferred_racks.items():
            if arcs_added >= self.max_preference_arcs:
                break
            if fraction < self.rack_preference_threshold:
                continue
            cost = self.transfer_cost(task, fraction * 0.5) + self.placement_base_cost
            if rack_id in cheapest_machine_arc:
                cost = max(cost, cheapest_machine_arc[rack_id] + 1)
            builder.add_arc(task_node, builder.rack_node(rack_id), 1, cost)
            arcs_added += 1

    def count_preference_arcs(self, state: ClusterState) -> int:
        """Return how many preference arcs the current workload would create.

        Used by the locality-threshold experiment (Figure 15) to report graph
        growth without building the full network.
        """
        count = 0
        for task in state.schedulable_tasks():
            for machine_id, fraction in task.input_locality.items():
                if fraction >= self.machine_preference_threshold:
                    count += 1
        return count
