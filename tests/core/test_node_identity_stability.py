"""Node-identity stability across scheduling runs (warm-start prerequisite).

The incremental solvers key the previous solution by node-id pairs, so the
graph manager must hand out the *same* node id for the same task, machine,
rack, job, and policy aggregator on every run for as long as the entity
exists -- and must never reuse a retired id for a different entity.
"""

from __future__ import annotations

import pytest

from repro.core import GraphManager
from repro.core.policies import CpuMemoryPolicy, QuincyPolicy
from repro.flow.graph import NodeType

from tests.conftest import make_cluster_state, make_job


@pytest.mark.parametrize("policy_factory", [QuincyPolicy, CpuMemoryPolicy])
class TestNodeIdentityStability:
    def test_entity_nodes_keep_their_ids_across_runs(self, policy_factory):
        state = make_cluster_state(num_machines=4)
        state.submit_job(make_job(job_id=1, num_tasks=4))
        manager = GraphManager(policy_factory())

        manager.update(state, now=0.0)
        first_tasks = dict(manager.task_nodes)
        first_machines = dict(manager.machine_nodes)
        first_sink = manager.sink_node

        manager.update(state, now=5.0)
        assert manager.task_nodes == first_tasks
        assert manager.machine_nodes == first_machines
        assert manager.sink_node == first_sink

    def test_policy_aggregators_keep_their_ids_across_runs(self, policy_factory):
        state = make_cluster_state(num_machines=4)
        state.submit_job(make_job(job_id=1, num_tasks=4))
        manager = GraphManager(policy_factory())

        first = manager.update(state, now=0.0).copy()
        second = manager.update(state, now=5.0).copy()

        def aggregator_ids(network):
            return {
                node.name: node.node_id
                for node in network.nodes()
                if node.node_type
                in (NodeType.CLUSTER_AGGREGATOR, NodeType.REQUEST_AGGREGATOR)
            }

        assert aggregator_ids(first) == aggregator_ids(second)

    def test_new_tasks_get_fresh_ids_and_old_ids_are_never_reused(self, policy_factory):
        state = make_cluster_state(num_machines=4)
        first_job = make_job(job_id=1, num_tasks=3)
        state.submit_job(first_job)
        manager = GraphManager(policy_factory())
        manager.update(state, now=0.0)
        retired_ids = set(manager.task_nodes.values())

        # First job's tasks run and complete; a new job arrives.
        for index, task in enumerate(first_job.tasks):
            state.place_task(task.task_id, index % 4, now=0.0)
            state.complete_task(task.task_id, now=1.0)
        second_job = make_job(job_id=2, num_tasks=3)
        state.submit_job(second_job)
        manager.update(state, now=2.0)

        new_ids = set(manager.task_nodes.values())
        assert not new_ids & retired_ids
        assert set(manager.task_nodes) == {t.task_id for t in second_job.tasks}

    def test_failed_machine_node_is_retired(self, policy_factory):
        state = make_cluster_state(num_machines=4)
        state.submit_job(make_job(job_id=1, num_tasks=2))
        manager = GraphManager(policy_factory())
        manager.update(state, now=0.0)
        assert 0 in manager.machine_nodes

        state.fail_machine(0, now=1.0)
        network = manager.update(state, now=2.0).copy()
        assert 0 not in manager.machine_nodes
        machine_refs = {
            node.ref for node in network.nodes() if node.node_type is NodeType.MACHINE
        }
        assert 0 not in machine_refs
