"""Tests for the CPU/memory, shortest-job-first, and random policies."""

from __future__ import annotations

import pytest

from repro.cluster.knowledge_base import KnowledgeBase
from repro.cluster.resources import ResourceVector
from repro.core import FirmamentScheduler, GraphManager
from repro.core.policies import (
    CpuMemoryPolicy,
    RandomPlacementPolicy,
    ShortestJobFirstPolicy,
)
from repro.flow.graph import NodeType
from repro.flow.validation import check_feasibility
from repro.solvers import RelaxationSolver

from tests.conftest import make_cluster_state, make_job


def solve_with_policy(policy, state, now=0.0):
    """Build the policy's network, solve it, and return (network, result)."""
    manager = GraphManager(policy)
    network = manager.update(state, now=now).copy()
    result = RelaxationSolver().solve(network)
    return network, result


class TestCpuMemoryPolicy:
    def test_rejects_bad_granularity(self):
        with pytest.raises(ValueError):
            CpuMemoryPolicy(cpu_granularity=0)

    def test_network_is_feasible_and_uses_request_aggregators(self):
        state = make_cluster_state(num_machines=4)
        state.submit_job(make_job(job_id=1, num_tasks=6))
        network, _ = solve_with_policy(CpuMemoryPolicy(), state)
        assert not check_feasibility(network)
        assert network.nodes_of_type(NodeType.REQUEST_AGGREGATOR)

    def test_tasks_with_same_request_share_one_aggregator(self):
        state = make_cluster_state(num_machines=4)
        state.submit_job(make_job(job_id=1, num_tasks=8))
        network, _ = solve_with_policy(CpuMemoryPolicy(), state)
        assert len(network.nodes_of_type(NodeType.REQUEST_AGGREGATOR)) == 1

    def test_distinct_requests_get_distinct_aggregators(self):
        state = make_cluster_state(num_machines=4)
        job = make_job(job_id=1, num_tasks=4)
        for task in job.tasks[:2]:
            task.cpu_request = 8.0
            task.ram_request_gb = 32.0
        state.submit_job(job)
        network, _ = solve_with_policy(CpuMemoryPolicy(), state)
        assert len(network.nodes_of_type(NodeType.REQUEST_AGGREGATOR)) == 2

    def test_scheduler_places_tasks_that_fit(self):
        state = make_cluster_state(num_machines=4, slots_per_machine=2)
        state.submit_job(make_job(job_id=1, num_tasks=4))
        scheduler = FirmamentScheduler(CpuMemoryPolicy())
        decision = scheduler.schedule_and_apply(state, now=0.0)
        assert len(decision.placements) == 4

    def test_oversized_tasks_stay_unscheduled(self):
        state = make_cluster_state(num_machines=2)
        job = make_job(job_id=1, num_tasks=2)
        for task in job.tasks:
            task.cpu_request = 10_000.0
        state.submit_job(job)
        scheduler = FirmamentScheduler(CpuMemoryPolicy())
        decision = scheduler.schedule_and_apply(state, now=0.0)
        assert not decision.placements
        assert len(decision.unscheduled) == 2

    def test_placements_never_overcommit_machines(self):
        state = make_cluster_state(num_machines=2, slots_per_machine=8)
        machine_cpu = state.topology.machine(0).cpu_cores
        job = make_job(job_id=1, num_tasks=6)
        for task in job.tasks:
            task.cpu_request = machine_cpu / 2.0  # only two fit per machine
        state.submit_job(job)
        scheduler = FirmamentScheduler(CpuMemoryPolicy())
        scheduler.schedule_and_apply(state, now=0.0)
        for machine_id in state.topology.machines:
            in_use = state.resources_in_use(machine_id)
            capacity = ResourceVector.for_machine(state.topology.machine(machine_id))
            assert in_use.cpu_cores <= capacity.cpu_cores + 1e-9

    def test_running_tasks_keep_continuation_arcs(self):
        state = make_cluster_state(num_machines=2)
        job = make_job(job_id=1, num_tasks=1)
        state.submit_job(job)
        state.place_task(job.tasks[0].task_id, 0, now=0.0)
        manager = GraphManager(CpuMemoryPolicy())
        network = manager.update(state, now=1.0).copy()
        task_node = manager.task_nodes[job.tasks[0].task_id]
        machine_node = manager.machine_nodes[0]
        assert network.has_arc(task_node, machine_node)


class TestShortestJobFirstPolicy:
    def test_short_tasks_win_scarce_slots(self):
        state = make_cluster_state(num_machines=1, slots_per_machine=2)
        kb = KnowledgeBase()
        short_job = make_job(job_id=1, num_tasks=2, duration=5.0)
        long_job = make_job(job_id=2, num_tasks=2, duration=500.0)
        # Give the two jobs distinguishable resource classes and seed the
        # knowledge base with their historical runtimes.
        for task in short_job.tasks:
            task.cpu_request = 1.0
        for task in long_job.tasks:
            task.cpu_request = 2.0
        for _ in range(5):
            kb.record_completion(short_job.tasks[0], runtime=5.0)
            kb.record_completion(long_job.tasks[0], runtime=500.0)
        state.submit_job(short_job)
        state.submit_job(long_job)

        scheduler = FirmamentScheduler(ShortestJobFirstPolicy(knowledge_base=kb))
        decision = scheduler.schedule_and_apply(state, now=0.0)
        placed = set(decision.placements)
        assert placed == {task.task_id for task in short_job.tasks}

    def test_network_is_feasible(self):
        state = make_cluster_state(num_machines=2)
        state.submit_job(make_job(job_id=1, num_tasks=3))
        network, _ = solve_with_policy(ShortestJobFirstPolicy(), state)
        assert not check_feasibility(network)

    def test_runtime_cost_is_capped(self):
        kb = KnowledgeBase(default_runtime=1e9)
        policy = ShortestJobFirstPolicy(knowledge_base=kb)
        job = make_job(job_id=1, num_tasks=1)
        assert policy.scheduling_cost(job.tasks[0]) <= (
            policy.max_runtime_cost + policy.placement_base_cost
        )

    def test_default_knowledge_base_is_created(self):
        assert ShortestJobFirstPolicy().knowledge_base is not None


class TestRandomPlacementPolicy:
    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            RandomPlacementPolicy(preference_arcs_per_task=0)
        with pytest.raises(ValueError):
            RandomPlacementPolicy(max_cost=0)

    def test_network_is_feasible_and_all_tasks_place(self):
        state = make_cluster_state(num_machines=4)
        state.submit_job(make_job(job_id=1, num_tasks=6))
        network, _ = solve_with_policy(RandomPlacementPolicy(seed=3), state)
        assert not check_feasibility(network)
        scheduler = FirmamentScheduler(RandomPlacementPolicy(seed=3))
        decision = scheduler.schedule_and_apply(state, now=0.0)
        assert len(decision.placements) == 6

    def test_preferences_are_stable_across_runs(self):
        state = make_cluster_state(num_machines=6)
        state.submit_job(make_job(job_id=1, num_tasks=4))
        policy = RandomPlacementPolicy(seed=9)
        manager = GraphManager(policy)
        first = manager.update(state, now=0.0).copy()
        second = manager.update(state, now=1.0).copy()
        task_arcs_first = {
            arc.key(): arc.cost
            for arc in first.arcs()
            if first.node(arc.src).node_type is NodeType.TASK
            and first.node(arc.dst).node_type is NodeType.MACHINE
        }
        task_arcs_second = {
            arc.key(): arc.cost
            for arc in second.arcs()
            if second.node(arc.src).node_type is NodeType.TASK
            and second.node(arc.dst).node_type is NodeType.MACHINE
        }
        assert task_arcs_first == task_arcs_second

    def test_different_seeds_give_different_preferences(self):
        state = make_cluster_state(num_machines=8)
        state.submit_job(make_job(job_id=1, num_tasks=6))
        arcs = []
        for seed in (1, 2):
            manager = GraphManager(RandomPlacementPolicy(seed=seed))
            network = manager.update(state, now=0.0).copy()
            arcs.append(
                {
                    arc.key()
                    for arc in network.arcs()
                    if network.node(arc.src).node_type is NodeType.TASK
                    and network.node(arc.dst).node_type is NodeType.MACHINE
                }
            )
        assert arcs[0] != arcs[1]
