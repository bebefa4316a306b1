"""Random-cost scheduling policy (a deliberately unsophisticated baseline).

The open-source Firmament scheduler ships a "random" cost model that assigns
arbitrary preferences; it exists to provide a floor for placement quality
comparisons (any policy that uses real information should beat it) and to
stress the solver with unstructured graphs.  This reproduction includes it
for the same two purposes: placement-quality experiments can quote it as a
floor, and solver tests can use it to generate irregular cost surfaces that
the structured policies never produce.

The randomness is drawn from a seeded generator keyed by task identifier so
that costs are stable across scheduling runs (a task does not bounce between
machines just because the policy rerolled its preferences).
"""

from __future__ import annotations

import random
from typing import List

from repro.cluster.state import ClusterState
from repro.core.policies.base import PolicyNetworkBuilder, SchedulingPolicy
from repro.flow.graph import NodeType


class RandomPlacementPolicy(SchedulingPolicy):
    """Assign seeded-random placement preferences to a sample of machines."""

    name = "random_placement"

    def __init__(self, seed: int = 0, preference_arcs_per_task: int = 3, max_cost: int = 100) -> None:
        """Create the policy.

        Args:
            seed: Base seed; combined with each task id so per-task
                preferences are stable across scheduling runs.
            preference_arcs_per_task: Number of randomly chosen machines each
                task receives a direct arc to.
            max_cost: Upper bound (exclusive of the placement base cost) on
                the random per-arc cost.
        """
        if preference_arcs_per_task < 1:
            raise ValueError("each task needs at least one preference arc")
        if max_cost < 1:
            raise ValueError("max_cost must be positive")
        self.seed = seed
        self.preference_arcs_per_task = preference_arcs_per_task
        self.max_cost = max_cost

    # ------------------------------------------------------------------ #
    # Derivation scopes: RANDOM -> machine backbone, sampled task arcs
    # ------------------------------------------------------------------ #
    def arcs_for_task(
        self, state: ClusterState, builder: PolicyNetworkBuilder, task, now: float
    ) -> None:
        """Emit one task's random preference arcs and its uniform
        cluster-aggregator fallback, plus the shared task arcs.

        The sample is drawn from the healthy-machine list, so the task
        depends on every machine's availability (the default
        :meth:`task_machine_dependencies`).
        """
        task_node = builder.task_node(task.task_id)
        rng = random.Random(self.seed * 1_000_003 + task.task_id)
        for machine in self._sample_machines(state.topology.healthy_machines(), rng):
            builder.add_arc(
                task_node,
                builder.machine_node(machine.machine_id),
                1,
                self.placement_base_cost + rng.randrange(self.max_cost),
            )
        builder.add_arc(
            task_node,
            builder.aggregator("RANDOM", NodeType.CLUSTER_AGGREGATOR),
            1,
            self.placement_base_cost + self.max_cost,
        )
        super().arcs_for_task(state, builder, task, now)

    def arcs_for_machine(
        self, state: ClusterState, builder: PolicyNetworkBuilder, machine, now: float
    ) -> None:
        """Emit one healthy machine's arc from the cluster aggregator plus
        the shared sink arc."""
        builder.add_arc(
            builder.aggregator("RANDOM", NodeType.CLUSTER_AGGREGATOR),
            builder.machine_node(machine.machine_id),
            machine.num_slots,
            self.max_cost,
        )
        super().arcs_for_machine(state, builder, machine, now)

    def owned_arcs(self, builder: PolicyNetworkBuilder, key):
        """A machine also owns its arc from the cluster aggregator."""
        owned = super().owned_arcs(builder, key)
        if key[0] == "machine":
            owned = owned + builder.incoming(
                builder.peek_machine_node(key[1]), NodeType.CLUSTER_AGGREGATOR
            )
        return owned

    def _sample_machines(self, machines: List, rng: random.Random) -> List:
        """Return the task's random machine preferences (stable per task)."""
        if not machines:
            return []
        count = min(self.preference_arcs_per_task, len(machines))
        return rng.sample(machines, count)
