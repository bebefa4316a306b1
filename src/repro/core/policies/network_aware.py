"""Network-aware scheduling policy (Figure 6c of the paper).

Each task connects to a *request aggregator* (RA) for its network bandwidth
request; the request aggregator has arcs only to machines with enough spare
bandwidth, and the cost of those arcs is the sum of the request and the
bandwidth already in use on the machine, which steers tasks towards
lightly-loaded network links and balances utilization.  The arcs are
re-derived every scheduling run from the monitor's observed bandwidth use,
so they adapt dynamically as background traffic changes.

The paper uses this policy on the 40-machine testbed (Section 7.5), where
it reduces the tail of short batch tasks' response times by 3.4-6.2x
compared to schedulers that ignore network interference.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.cluster.state import ClusterState
from repro.core.policies.base import PolicyNetworkBuilder, RequestAggregatorPolicy


class NetworkAwarePolicy(RequestAggregatorPolicy):
    """Avoid overcommitting machine network bandwidth."""

    name = "network_aware"

    def __init__(self, bandwidth_bucket_mbps: int = 250, cost_per_mbps: float = 0.01) -> None:
        """Create the policy.

        Args:
            bandwidth_bucket_mbps: Tasks are grouped into request aggregators
                by their bandwidth request rounded up to this bucket size, so
                similar requests share one aggregator node.
            cost_per_mbps: Conversion from Mb/s of (requested + used)
                bandwidth into cost units on the RA->machine arcs.
        """
        if bandwidth_bucket_mbps <= 0:
            raise ValueError("bandwidth bucket must be positive")
        self.bandwidth_bucket_mbps = bandwidth_bucket_mbps
        self.cost_per_mbps = cost_per_mbps

    def request_bucket(self, request_mbps: int) -> int:
        """Return the bucketed bandwidth request used for aggregator identity."""
        if request_mbps <= 0:
            return 0
        buckets = (request_mbps + self.bandwidth_bucket_mbps - 1) // self.bandwidth_bucket_mbps
        return buckets * self.bandwidth_bucket_mbps

    def request_class(self, task) -> int:
        """Tasks with similar bandwidth requests share one aggregator."""
        return self.request_bucket(task.network_request_mbps)

    def class_machine_arc(
        self, state: ClusterState, builder: PolicyNetworkBuilder, class_key, num_members, machine
    ) -> Optional[Tuple[int, int]]:
        """Arc to a machine with sufficient spare bandwidth, priced by
        request size plus current utilization.

        The capacity admits at most one *new* task with this request per
        machine per scheduling run: because arc costs are static within one
        MCMF run, a larger capacity would let the solver stack several
        bandwidth-hungry tasks on one machine at the same cost as spreading
        them; limiting the per-run capacity (the arc is re-derived whenever
        the machine's load moves, so subsequent runs can add more) keeps
        the placement faithful to the policy's intent.
        """
        bucket = class_key
        spare = state.spare_network_bandwidth(machine.machine_id)
        free_slots = state.free_slots(machine.machine_id)
        if bucket > 0:
            if free_slots <= 0 or spare < bucket:
                return None
            capacity = 1
        else:
            capacity = max(1, free_slots)
        used = machine.network_bandwidth_mbps - spare
        cost = int(round((bucket + used) * self.cost_per_mbps)) + self.placement_base_cost
        return capacity, cost
