"""Load-spreading policy (Figure 6a of the paper).

All tasks connect to a single cluster-wide aggregator ``X``; the cost of
scheduling a task on a machine grows with the number of tasks already on
that machine, so machines fill up evenly (the behaviour of Docker SwarmKit's
spread strategy).  The policy neither requires nor uses the full
sophistication of flow-based scheduling -- the paper uses it to expose MCMF
edge cases, because the under-populated machines it prefers become contended
destinations for many tasks' flow (Section 4.3, Figure 9).

Because one MCMF run prices all arcs statically, the per-machine "cost grows
with occupancy" rule is expressed with *slot-level nodes*: the k-th free
slot of a machine is reachable from the aggregator through a unit-capacity
node whose arc costs ``k * cost_per_running_task``.  The solver therefore
fills cheap (low-occupancy) slots across the whole cluster before it starts
doubling up, even within a single batch -- which is also exactly what makes
the cheapest slots contended when a large job arrives (Figure 9).
"""

from __future__ import annotations

from repro.cluster.state import ClusterState
from repro.core.policies.base import PolicyNetworkBuilder, SchedulingPolicy
from repro.flow.graph import NodeType


class LoadSpreadingPolicy(SchedulingPolicy):
    """Balance the number of tasks per machine via a cluster aggregator."""

    name = "load_spreading"

    def __init__(self, cost_per_running_task: int = 10) -> None:
        """Create the policy.

        Args:
            cost_per_running_task: Cost added per task already occupying the
                machine a new task would be placed on.
        """
        self.cost_per_running_task = cost_per_running_task

    # ------------------------------------------------------------------ #
    # Derivation scopes: tasks -> X, ("levels", machine) slot-level chains
    # ------------------------------------------------------------------ #
    def arcs_for_task(
        self, state: ClusterState, builder: PolicyNetworkBuilder, task, now: float
    ) -> None:
        """Emit one task's free arc to the cluster aggregator plus the
        shared task arcs."""
        builder.add_arc(
            builder.task_node(task.task_id),
            builder.aggregator("X", NodeType.CLUSTER_AGGREGATOR),
            1,
            0,
        )
        super().arcs_for_task(state, builder, task, now)

    def _level_node(self, builder: PolicyNetworkBuilder, machine_id: int, level: int) -> int:
        return builder.aggregator(f"L{machine_id}.{level}", NodeType.OTHER)

    def refresh_aggregator(
        self, state: ClusterState, builder: PolicyNetworkBuilder, key, now: float
    ) -> None:
        """Emit a ``("levels", machine_id)`` scope: aggregator -> slot-level
        nodes -> machine, one chain per free slot.

        The k-th task placed on a machine costs ``k *
        cost_per_running_task``, so occupancy only grows once every other
        machine has caught up.  The chains depend on the machine's *load*,
        which is why they are an aggregator scope and not machine arcs.
        """
        kind, machine_id = key
        if kind != "levels":
            super().refresh_aggregator(state, builder, key, now)
            return
        machine = state.topology.machines.get(machine_id)
        if machine is None or not machine.is_available:
            return
        cluster_agg = builder.aggregator("X", NodeType.CLUSTER_AGGREGATOR)
        machine_node = builder.machine_node(machine_id)
        for level in range(state.task_count_on_machine(machine_id), machine.num_slots):
            level_node = self._level_node(builder, machine_id, level)
            builder.add_arc(
                cluster_agg,
                level_node,
                1,
                level * self.cost_per_running_task + self.placement_base_cost,
            )
            builder.add_arc(level_node, machine_node, 1, 0)

    def dirty_aggregators(self, state: ClusterState, dirty, now: float, builder):
        """Slot-level chains of the load-dirty machines, plus the shared
        scopes."""
        keys = [("levels", machine_id) for machine_id in sorted(dirty.machines_load)]
        return keys + super().dirty_aggregators(state, dirty, now, builder)

    def owned_arcs(self, builder: PolicyNetworkBuilder, key):
        """A machine's slot-level chains: both arcs of every level node."""
        kind, machine_id = key
        if kind != "levels":
            return super().owned_arcs(builder, key)
        cluster_agg = builder.find_aggregator("X")
        machine_node = builder.peek_machine_node(machine_id)
        if machine_node is None:
            # The machine's node is retired and took the level -> machine
            # arcs with it; what is left of its chains (or any other retired
            # machine's) are level nodes that lead nowhere.
            return [
                arc
                for arc in builder.outgoing(cluster_agg)
                if not builder.outgoing(arc[1])
            ]
        levels = builder.incoming(machine_node, NodeType.OTHER)
        return levels + [
            arc
            for level, _machine in levels
            for arc in builder.incoming(level, NodeType.CLUSTER_AGGREGATOR)
        ]

    task_machine_dependencies = SchedulingPolicy.current_machine_only
