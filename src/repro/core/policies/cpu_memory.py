"""Multi-dimensional (CPU/RAM) scheduling policy with request aggregators.

Section 3.2 of the paper describes policy-defined aggregators that group
"tasks with similar resource needs"; Section 7.1 notes that Firmament
supports multi-dimensional feasibility checking in the style of Borg even
though the head-to-head comparison with Quincy uses slots.  This policy
exercises that capability:

* tasks are grouped into resource-request *equivalence classes* (rounded
  CPU/RAM buckets) and connect to one request aggregator per class;
* each request aggregator has an arc to every machine on which one more
  task of that class still fits (a Borg-style multi-dimensional feasibility
  check), with a cost that grows with how full the machine already is, so
  utilization stays balanced; and
* every task keeps the usual unscheduled-aggregator arc, and running tasks
  keep a cheap continuation arc to their current machine.

The request aggregators keep the arc count at
``O(num_classes * num_machines)`` instead of ``O(num_tasks * num_machines)``,
which is exactly why the paper introduces aggregators.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.cluster.resources import ResourceVector, equivalence_class
from repro.cluster.state import ClusterState
from repro.core.policies.base import (
    PolicyNetworkBuilder,
    RequestAggregatorPolicy,
    SchedulingPolicy,
)


class CpuMemoryPolicy(RequestAggregatorPolicy):
    """Multi-dimensional CPU/RAM policy using per-class request aggregators."""

    name = "cpu_memory"
    aggregator_arc_cost = SchedulingPolicy.placement_base_cost

    #: Cost units per percentage point of dominant-share load on a machine.
    load_cost_factor: int = 2

    def __init__(
        self,
        cpu_granularity: float = 1.0,
        ram_granularity_gb: float = 2.0,
    ) -> None:
        """Create the policy.

        Args:
            cpu_granularity: Width of the CPU-request buckets (cores) used to
                form task equivalence classes.
            ram_granularity_gb: Width of the RAM-request buckets (GB).
        """
        if cpu_granularity <= 0 or ram_granularity_gb <= 0:
            raise ValueError("equivalence-class granularities must be positive")
        self.cpu_granularity = cpu_granularity
        self.ram_granularity_gb = ram_granularity_gb

    # ------------------------------------------------------------------ #
    # Request classes (the scopes come from RequestAggregatorPolicy)
    # ------------------------------------------------------------------ #
    def request_class(self, task) -> Tuple[int, int]:
        """Rounded CPU/RAM request buckets."""
        return equivalence_class(
            task,
            cpu_granularity=self.cpu_granularity,
            ram_granularity_gb=self.ram_granularity_gb,
        )

    def class_machine_arc(
        self, state: ClusterState, builder: PolicyNetworkBuilder, class_key, num_members, machine
    ) -> Optional[Tuple[int, int]]:
        """As many tasks as fit into the machine's spare resources and free
        slots (never more than the class holds), priced by its load."""
        machine_id = machine.machine_id
        request = self._class_request(class_key)
        spare, load = self._machine_statistics(state, builder)
        capacity = min(
            self._fitting_count(request, spare[machine_id]),
            state.free_slots(machine_id),
            num_members,
        )
        if capacity <= 0:
            return None
        return capacity, self.machine_cost(load[machine_id], request, machine)

    def _machine_statistics(
        self, state: ClusterState, builder: PolicyNetworkBuilder
    ) -> Tuple[Dict[int, ResourceVector], Dict[int, float]]:
        """Spare capacity and dominant-share load per machine, once per
        round."""
        cache = builder.round_cache
        stats = cache.get("cpu_memory_machine_stats")
        if stats is None:
            spare: Dict[int, ResourceVector] = {}
            load: Dict[int, float] = {}
            for machine in state.topology.healthy_machines():
                spare[machine.machine_id] = state.spare_resources(machine.machine_id)
                in_use = state.resources_in_use(machine.machine_id)
                load[machine.machine_id] = in_use.dominant_share(
                    ResourceVector.for_machine(machine)
                )
            stats = (spare, load)
            cache["cpu_memory_machine_stats"] = stats
        return stats

    # ------------------------------------------------------------------ #
    # Cost model
    # ------------------------------------------------------------------ #
    def machine_cost(self, load: float, request: ResourceVector, machine) -> int:
        """Cost of placing one task of the given class on a machine.

        Grows with the machine's current dominant-share load and with how
        large the request is relative to the machine, so small tasks prefer
        lightly loaded machines and big tasks pay for the capacity they
        consume.
        """
        request_share = request.dominant_share(ResourceVector.for_machine(machine))
        return (
            self.placement_base_cost
            + int(round(100 * load)) * self.load_cost_factor
            + int(round(50 * request_share))
        )

    # ------------------------------------------------------------------ #
    # Equivalence classes
    # ------------------------------------------------------------------ #
    def _class_request(self, key: Tuple[int, int]) -> ResourceVector:
        """Return the (conservative) per-task request of an equivalence class."""
        cpu_bucket, ram_bucket = key
        return ResourceVector(
            cpu_cores=cpu_bucket * self.cpu_granularity,
            ram_gb=ram_bucket * self.ram_granularity_gb,
        )

    def _fitting_count(self, request: ResourceVector, spare: ResourceVector) -> int:
        """Return how many tasks of the class fit into the spare capacity."""
        if request.is_zero():
            return 1_000_000
        counts = []
        for dimension in ResourceVector.DIMENSIONS:
            need = getattr(request, dimension)
            if need > 0:
                counts.append(int(getattr(spare, dimension) // need))
        return min(counts) if counts else 0
