#!/usr/bin/env python3
"""Writing a custom scheduling policy against Firmament's policy API.

The paper (Section 3.3) emphasizes that Firmament generalizes flow-based
scheduling: cluster administrators express their own policy as a flow
network generator, using policy-defined aggregator nodes to encode
constraints compactly.  This example implements a small *rack anti-affinity*
policy from scratch -- tasks of the same job should spread across racks for
fault tolerance -- and runs it through the unmodified Firmament scheduler.

The encoding shows off what aggregators are for: every (job, rack) pair gets
a quota aggregator whose arc to the rack carries only the job's fair share
of that rack (``ceil(tasks / racks)``).  Routing through the quota node is
cheap; packing more of the job into the same rack is still possible, but
only via a penalized direct arc.  The min-cost solution therefore spreads
each job across racks whenever capacity allows -- within a single scheduling
run, not just across runs.

Run with::

    python examples/custom_policy.py
"""

from __future__ import annotations

import math
from collections import defaultdict

from repro.cluster import ClusterState, Job, JobType, Task, build_topology
from repro.core import FirmamentScheduler
from repro.core.policies import SchedulingPolicy
from repro.core.policies.base import PolicyNetworkBuilder
from repro.flow.graph import NodeType


class RackAntiAffinityPolicy(SchedulingPolicy):
    """Spread each job's tasks across racks using per-(job, rack) quotas."""

    name = "rack_anti_affinity"

    #: Extra cost for exceeding a job's fair share of a rack.
    colocation_penalty: int = 40

    # A policy describes its network one scope at a time; the base class
    # already derives what every policy has (each task's unscheduled and
    # continuation arcs, machine -> sink, unscheduled aggregator -> sink),
    # so only the rack backbone and the quota encoding are written here.

    def arcs_for_machine(self, state, builder: PolicyNetworkBuilder, machine, now) -> None:
        """Backbone: rack aggregator -> machine (-> sink, shared)."""
        builder.add_arc(
            builder.rack_node(machine.rack_id),
            builder.machine_node(machine.machine_id),
            machine.num_slots,
            0,
        )
        super().arcs_for_machine(state, builder, machine, now)

    def arcs_for_task(self, state, builder: PolicyNetworkBuilder, task, now) -> None:
        """Per rack: a cheap arc through the job's quota node and a
        penalized overflow arc straight to the rack."""
        task_node = builder.task_node(task.task_id)
        for rack_id in state.topology.racks:
            builder.add_arc(
                task_node, self._quota_node(builder, task.job_id, rack_id), 1,
                self.placement_base_cost,
            )
            builder.add_arc(
                task_node, builder.rack_node(rack_id), 1,
                self.placement_base_cost + self.colocation_penalty,
            )
        super().arcs_for_task(state, builder, task, now)

    def refresh_aggregator(self, state, builder: PolicyNetworkBuilder, key, now) -> None:
        """``("quota", job_id)``: each quota node's arc to its rack, capped
        at the job's fair share of the rack."""
        kind, job_id = key
        if kind != "quota":
            super().refresh_aggregator(state, builder, key, now)
            return
        racks = state.topology.racks
        live = sum(1 for t in state.schedulable_tasks() if t.job_id == job_id)
        fair_share = math.ceil(live / max(1, len(racks)))
        for rack_id in racks:
            builder.add_arc(
                self._quota_node(builder, job_id, rack_id),
                builder.rack_node(rack_id),
                fair_share,
                0,
            )

    def dirty_aggregators(self, state, dirty, now, builder: PolicyNetworkBuilder):
        """A job's quotas move whenever one of its tasks arrives or leaves."""
        jobs = set(dirty.jobs)
        jobs.update(
            state.tasks[task_id].job_id for task_id in dirty.tasks if task_id in state.tasks
        )
        keys = [("quota", job_id) for job_id in sorted(jobs)]
        return keys + super().dirty_aggregators(state, dirty, now, builder)

    def owned_arcs(self, builder: PolicyNetworkBuilder, key):
        """Ownership is read off the network: a machine also owns its arc
        from the rack, a quota scope the arcs out of the job's quota nodes."""
        kind, ident = key
        if kind == "quota":
            return [
                arc
                for rack_id in builder.peek_rack_ids()
                for arc in builder.outgoing(
                    builder.find_aggregator(f"quota-j{ident}-r{rack_id}")
                )
            ]
        owned = super().owned_arcs(builder, key)
        if kind == "machine":
            owned = owned + builder.incoming(
                builder.peek_machine_node(ident), NodeType.RACK_AGGREGATOR
            )
        return owned

    def _quota_node(self, builder: PolicyNetworkBuilder, job_id: int, rack_id: int) -> int:
        return builder.aggregator(f"quota-j{job_id}-r{rack_id}", NodeType.OTHER)


def main() -> None:
    topology = build_topology(num_machines=12, machines_per_rack=3, slots_per_machine=4)
    state = ClusterState(topology)

    # One service job with eight replicas that should spread across racks.
    job = Job(job_id=1, job_type=JobType.SERVICE, submit_time=0.0)
    for index in range(8):
        job.add_task(Task(task_id=index, job_id=1, duration=None))
    state.submit_job(job)

    scheduler = FirmamentScheduler(RackAntiAffinityPolicy())
    decision = scheduler.schedule_and_apply(state, now=0.0)

    print("=== Custom policy: rack anti-affinity ===")
    print(f"tasks placed: {len(decision.placements)} / {job.num_tasks}")
    racks = defaultdict(list)
    for task_id, machine_id in sorted(decision.placements.items()):
        rack_id = topology.machine(machine_id).rack_id
        racks[rack_id].append(task_id)
    for rack_id in sorted(racks):
        print(f"  rack {rack_id}: tasks {racks[rack_id]}")
    print(f"job spread across {len(racks)} of {topology.num_racks} racks "
          f"(fair share: {math.ceil(job.num_tasks / topology.num_racks)} tasks/rack)")


if __name__ == "__main__":
    main()
