"""Golden pins for the six policies' flow networks.

Two fixed, seeded cluster states -- one with running and pending tasks, one
after churn (completions, a preemption, a migration, a machine failure, a
monitoring refresh, a new job, a job removal) -- pin each policy's node
count, arc count and min-cost optimum.  The numbers were recorded from the
per-policy ``build()`` bodies before every policy was ported to per-entity
derivation, so they guard the port (and any later refactor of the shared
scopes) against silently changing what a policy describes.
"""

from __future__ import annotations

import random

import pytest

from repro.cluster.knowledge_base import KnowledgeBase
from repro.core import GraphManager
from repro.core.policies import (
    CpuMemoryPolicy,
    LoadSpreadingPolicy,
    NetworkAwarePolicy,
    QuincyPolicy,
    RandomPlacementPolicy,
    ShortestJobFirstPolicy,
)
from repro.solvers import CostScalingSolver
from tests.conftest import make_cluster_state, make_job

#: policy name -> ((nodes, arcs, optimum) steady, (nodes, arcs, optimum) churned)
GOLDEN = {
    "cpu_memory": ((37, 81, 522), (34, 79, 581)),
    "load_spreading": ((41, 75, 486), (41, 71, 513)),
    "network_aware": ((37, 84, 619), (34, 76, 775)),
    "quincy": ((36, 144, 634), (33, 109, 653)),
    "random_placement": ((34, 124, 610), (31, 109, 645)),
    "shortest_job_first": ((34, 69, 763), (31, 58, 851)),
}


def _seeded_knowledge_base() -> KnowledgeBase:
    knowledge_base = KnowledgeBase()
    probe = make_job(job_id=900, num_tasks=2)
    probe.tasks[0].cpu_request = 0.5
    probe.tasks[1].cpu_request = 2.0
    knowledge_base.record_completion(probe.tasks[0], 12.0)
    knowledge_base.record_completion(probe.tasks[1], 140.0)
    return knowledge_base


POLICIES = {
    "quincy": QuincyPolicy,
    "cpu_memory": CpuMemoryPolicy,
    "load_spreading": LoadSpreadingPolicy,
    "network_aware": NetworkAwarePolicy,
    "random_placement": lambda: RandomPlacementPolicy(seed=7),
    "shortest_job_first": lambda: ShortestJobFirstPolicy(_seeded_knowledge_base()),
}


def _steady_state():
    """8 machines in 2 racks; 4 jobs, 9 of 20 tasks running."""
    rng = random.Random(2016)
    state = make_cluster_state(num_machines=8, machines_per_rack=4, slots_per_machine=2)
    for job_id in range(1, 5):
        locality = {
            machine_id: round(rng.uniform(0.1, 0.6), 2)
            for machine_id in rng.sample(range(8), 3)
        }
        job = make_job(
            job_id=job_id,
            num_tasks=5,
            submit_time=float(job_id),
            input_size_gb=round(rng.uniform(1.0, 8.0), 2),
            input_locality=locality,
        )
        for task in job.tasks:
            task.priority = rng.choice((0, 1, 10))
            task.cpu_request = rng.choice((0.5, 1.0, 2.0))
            task.ram_request_gb = rng.choice((1.0, 2.0, 4.0))
            task.network_request_mbps = rng.choice((0, 200, 600, 3000))
        state.submit_job(job)
    for task in rng.sample(state.pending_tasks(), 9):
        candidates = [m for m in state.topology.machines if state.free_slots(m) > 0]
        state.place_task(task.task_id, rng.choice(candidates), 5.0)
    state.monitor.record_network_use(3, 7000, 5.0)
    return state


def _churn(state) -> None:
    """Deterministic churn applied on top of :func:`_steady_state`."""
    running = sorted(state.running_tasks(), key=lambda t: t.task_id)
    state.complete_task(running[0].task_id, 20.0)
    state.complete_task(running[1].task_id, 21.0)
    state.preempt_task(running[2].task_id, 22.0)
    target = next(
        m
        for m in state.topology.machines
        if state.free_slots(m) > 0 and m != running[3].machine_id
    )
    state.migrate_task(running[3].task_id, target, 23.0)
    state.fail_machine(running[4].machine_id, 24.0)
    state.monitor.record_network_use(5, 9900, 25.0)
    state.submit_job(
        make_job(job_id=5, num_tasks=3, submit_time=26.0, network_request_mbps=200)
    )
    # Finish job 1 entirely and drop it.
    for task in state.jobs[1].tasks:
        if task.is_pending:
            candidates = [m for m in state.topology.machines if state.free_slots(m) > 0]
            state.place_task(task.task_id, candidates[0], 27.0)
        if task.is_running:
            state.complete_task(task.task_id, 28.0)
    state.remove_job(1)


def _measure(network):
    result = CostScalingSolver().solve(network.copy())
    return network.num_nodes, network.num_arcs, result.total_cost


@pytest.mark.parametrize("name", sorted(POLICIES))
def test_policy_network_matches_golden_pins(name):
    steady_pin, churned_pin = GOLDEN[name]
    state = _steady_state()
    manager = GraphManager(POLICIES[name]())
    assert _measure(manager.update(state, now=10.0)) == steady_pin
    _churn(state)
    # The same manager carries the network across the churn (whatever path
    # it takes); a fresh manager builds the churned state from scratch.
    assert _measure(manager.update(state, now=30.0)) == churned_pin
    fresh = GraphManager(POLICIES[name]())
    assert _measure(fresh.update(state, now=30.0)) == churned_pin
