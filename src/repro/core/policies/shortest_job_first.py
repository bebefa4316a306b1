"""Shortest-job-first scheduling policy driven by the knowledge base.

One of the cost models shipped with the open-source Firmament scheduler is a
shortest-job-first (SJF) model: when slots are scarce, tasks that are
expected to finish quickly should win them, because that minimizes mean
job response time.  Expected runtimes come from the
:class:`~repro.cluster.knowledge_base.KnowledgeBase`, which aggregates the
runtimes of previously completed tasks per resource equivalence class.

The policy is deliberately simple -- a single cluster aggregator like the
load-spreading policy -- so the effect of runtime-aware costs is easy to
isolate in experiments: the *relative* cost of scheduling versus waiting is
what changes, not the network structure.
"""

from __future__ import annotations

from typing import Optional

from repro.cluster.knowledge_base import KnowledgeBase
from repro.cluster.state import ClusterState
from repro.core.policies.base import PolicyNetworkBuilder, SchedulingPolicy
from repro.flow.graph import NodeType


class ShortestJobFirstPolicy(SchedulingPolicy):
    """Prioritize tasks with short expected runtimes when slots are scarce."""

    name = "shortest_job_first"

    #: Cost ceiling applied to the runtime-derived component of an arc cost,
    #: so a single very long task cannot dwarf every other cost in the graph.
    max_runtime_cost: int = 1_000

    #: Cost units per second of expected runtime.
    runtime_cost_per_second: float = 1.0

    def __init__(self, knowledge_base: Optional[KnowledgeBase] = None) -> None:
        """Create the policy.

        Args:
            knowledge_base: Source of runtime estimates.  A fresh, empty
                knowledge base (all tasks estimated at its default runtime)
                is used when omitted, which degrades the policy to plain
                load spreading until observations arrive.
        """
        self.knowledge_base = knowledge_base if knowledge_base is not None else KnowledgeBase()

    # ------------------------------------------------------------------ #
    # Derivation scopes: tasks -> SJF, ("load", machine) aggregator arcs
    # ------------------------------------------------------------------ #
    def arcs_for_task(
        self, state: ClusterState, builder: PolicyNetworkBuilder, task, now: float
    ) -> None:
        """Emit one task's runtime-priced arc to the cluster aggregator
        plus the shared task arcs."""
        builder.add_arc(
            builder.task_node(task.task_id),
            builder.aggregator("SJF", NodeType.CLUSTER_AGGREGATOR),
            1,
            self.scheduling_cost(task),
        )
        super().arcs_for_task(state, builder, task, now)

    def refresh_aggregator(
        self, state: ClusterState, builder: PolicyNetworkBuilder, key, now: float
    ) -> None:
        """Emit a ``("load", machine_id)`` scope: the aggregator's arc to
        the machine, priced by how many tasks already run there."""
        kind, machine_id = key
        if kind != "load":
            super().refresh_aggregator(state, builder, key, now)
            return
        machine = state.topology.machines.get(machine_id)
        if machine is not None and machine.is_available:
            builder.add_arc(
                builder.aggregator("SJF", NodeType.CLUSTER_AGGREGATOR),
                builder.machine_node(machine_id),
                machine.num_slots,
                state.task_count_on_machine(machine_id),
            )

    def dirty_aggregators(self, state: ClusterState, dirty, now: float, builder):
        """Aggregator arcs of the load-dirty machines, plus the shared
        scopes."""
        keys = [("load", machine_id) for machine_id in sorted(dirty.machines_load)]
        return keys + super().dirty_aggregators(state, dirty, now, builder)

    def owned_arcs(self, builder: PolicyNetworkBuilder, key):
        """A load scope owns the aggregator's arc into the machine."""
        kind, machine_id = key
        if kind != "load":
            return super().owned_arcs(builder, key)
        return builder.incoming(
            builder.peek_machine_node(machine_id), NodeType.CLUSTER_AGGREGATOR
        )

    task_machine_dependencies = SchedulingPolicy.current_machine_only

    def pricing_version(self) -> int:
        """Runtime estimates move with every recorded completion, which
        raises no cluster dirty event."""
        return self.knowledge_base.version

    def scheduling_cost(self, task) -> int:
        """Cost of scheduling a task anywhere, growing with expected runtime.

        Shorter tasks get cheaper arcs; when the cluster cannot hold every
        pending task, the min-cost solution therefore schedules the short
        ones and leaves the long ones waiting -- the SJF discipline.
        """
        estimate = self.knowledge_base.estimate_runtime(task)
        runtime_cost = min(
            self.max_runtime_cost,
            int(round(self.runtime_cost_per_second * estimate)),
        )
        return self.placement_base_cost + runtime_cost
