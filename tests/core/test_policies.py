"""Unit tests for the three scheduling policies."""

import pytest

from repro.core.graph_manager import GraphManager
from repro.core.policies import (
    LoadSpreadingPolicy,
    NetworkAwarePolicy,
    QuincyPolicy,
)
from repro.core.scheduler import FirmamentScheduler
from repro.flow.graph import NodeType
from repro.solvers import CostScalingSolver
from tests.conftest import make_cluster_state, make_job


def build_network(state, policy, now=0.0):
    manager = GraphManager(policy)
    network = manager.update(state, now).copy()
    return manager, network


class TestLoadSpreadingPolicy:
    def test_structure(self, small_state):
        small_state.submit_job(make_job(job_id=1, num_tasks=3))
        _, network = build_network(small_state, LoadSpreadingPolicy())
        aggs = network.nodes_of_type(NodeType.CLUSTER_AGGREGATOR)
        assert len(aggs) == 1
        # Every free slot in the cluster is reachable from the aggregator via
        # its own unit-capacity slot-level node.
        assert len(network.outgoing(aggs[0].node_id)) == small_state.total_free_slots()

    def test_cost_grows_with_machine_population(self, small_state):
        job = make_job(job_id=1, num_tasks=2)
        small_state.submit_job(job)
        small_state.place_task(job.tasks[0].task_id, 0, 0.0)
        policy = LoadSpreadingPolicy(cost_per_running_task=10)
        manager, network = build_network(small_state, policy)
        agg = network.nodes_of_type(NodeType.CLUSTER_AGGREGATOR)[0]

        def cheapest_route_to(machine_id):
            machine_node = manager.machine_nodes[machine_id]
            return min(
                arc.cost
                for arc in network.outgoing(agg.node_id)
                if any(a.dst == machine_node for a in network.outgoing(arc.dst))
            )

        # Machine 0 already runs a task, so its cheapest remaining slot costs
        # one occupancy increment more than an empty machine's.
        assert cheapest_route_to(0) == cheapest_route_to(1) + 10

    def test_spreads_tasks_evenly(self):
        state = make_cluster_state(num_machines=4, slots_per_machine=4)
        state.submit_job(make_job(job_id=1, num_tasks=8))
        scheduler = FirmamentScheduler(LoadSpreadingPolicy(), solver=CostScalingSolver())
        decision = scheduler.schedule_and_apply(state, now=0.0)
        assert len(decision.placements) == 8
        counts = [state.task_count_on_machine(m) for m in range(4)]
        assert max(counts) - min(counts) <= 1

    def test_running_task_prefers_to_stay(self):
        state = make_cluster_state(num_machines=4, slots_per_machine=4)
        job = make_job(job_id=1, num_tasks=2)
        state.submit_job(job)
        state.place_task(job.tasks[0].task_id, 2, 0.0)
        state.place_task(job.tasks[1].task_id, 3, 0.0)
        scheduler = FirmamentScheduler(LoadSpreadingPolicy(), solver=CostScalingSolver())
        decision = scheduler.schedule(state, now=1.0)
        assert decision.migrations == {}
        assert decision.preemptions == []


class TestQuincyPolicy:
    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            QuincyPolicy(machine_preference_threshold=0.0)
        with pytest.raises(ValueError):
            QuincyPolicy(machine_preference_threshold=1.5)

    def test_backbone_structure(self, small_state):
        small_state.submit_job(make_job(job_id=1, num_tasks=2))
        _, network = build_network(small_state, QuincyPolicy())
        assert len(network.nodes_of_type(NodeType.CLUSTER_AGGREGATOR)) == 1
        assert len(network.nodes_of_type(NodeType.RACK_AGGREGATOR)) == small_state.topology.num_racks
        assert len(network.nodes_of_type(NodeType.UNSCHEDULED_AGGREGATOR)) == 1

    def test_preference_arcs_respect_threshold(self, small_state):
        locality = {0: 0.6, 1: 0.1, 2: 0.02}
        job = make_job(job_id=1, num_tasks=1, input_size_gb=10.0, input_locality=locality)
        small_state.submit_job(job)
        policy = QuincyPolicy(machine_preference_threshold=0.14)
        manager, network = build_network(small_state, policy)
        task_node = manager.task_nodes[job.tasks[0].task_id]
        machine_targets = {
            arc.dst for arc in network.outgoing(task_node)
            if network.node(arc.dst).node_type is NodeType.MACHINE
        }
        assert manager.machine_nodes[0] in machine_targets
        assert manager.machine_nodes[1] not in machine_targets
        assert manager.machine_nodes[2] not in machine_targets

    def test_lower_threshold_creates_more_arcs(self, small_state):
        locality = {m: 0.12 for m in range(8)}
        job = make_job(job_id=1, num_tasks=1, input_size_gb=8.0, input_locality=locality)
        small_state.submit_job(job)
        _, strict = build_network(small_state, QuincyPolicy(machine_preference_threshold=0.14))
        _, loose = build_network(small_state, QuincyPolicy(machine_preference_threshold=0.02))
        assert loose.num_arcs > strict.num_arcs

    def test_preference_arc_cheaper_than_fallback(self, small_state):
        locality = {0: 0.9}
        job = make_job(job_id=1, num_tasks=1, input_size_gb=10.0, input_locality=locality)
        small_state.submit_job(job)
        policy = QuincyPolicy()
        manager, network = build_network(small_state, policy)
        task_node = manager.task_nodes[job.tasks[0].task_id]
        agg = network.nodes_of_type(NodeType.CLUSTER_AGGREGATOR)[0]
        pref_cost = network.arc(task_node, manager.machine_nodes[0]).cost
        fallback_cost = network.arc(task_node, agg.node_id).cost
        assert pref_cost < fallback_cost

    def test_scheduler_exploits_locality(self):
        state = make_cluster_state(num_machines=8, slots_per_machine=2)
        job = make_job(
            job_id=1, num_tasks=1, input_size_gb=10.0, input_locality={5: 0.8}
        )
        state.submit_job(job)
        scheduler = FirmamentScheduler(QuincyPolicy(), solver=CostScalingSolver())
        decision = scheduler.schedule_and_apply(state, now=0.0)
        assert decision.placements[job.tasks[0].task_id] == 5

    def test_unscheduled_cost_grows_with_wait_time(self):
        policy = QuincyPolicy()
        task = make_job(job_id=1, num_tasks=1).tasks[0]
        early = policy.unscheduled_cost(task, now=1.0)
        late = policy.unscheduled_cost(task, now=500.0)
        assert late > early

    def test_count_preference_arcs(self, small_state):
        locality = {0: 0.5, 1: 0.2, 2: 0.01}
        small_state.submit_job(
            make_job(job_id=1, num_tasks=1, input_size_gb=5.0, input_locality=locality)
        )
        policy = QuincyPolicy(machine_preference_threshold=0.14)
        assert policy.count_preference_arcs(small_state) == 2


class TestNetworkAwarePolicy:
    def test_bucket_rounding(self):
        policy = NetworkAwarePolicy(bandwidth_bucket_mbps=250)
        assert policy.request_bucket(0) == 0
        assert policy.request_bucket(1) == 250
        assert policy.request_bucket(250) == 250
        assert policy.request_bucket(251) == 500

    def test_bucket_validation(self):
        with pytest.raises(ValueError):
            NetworkAwarePolicy(bandwidth_bucket_mbps=0)

    def test_loaded_machines_excluded(self, small_state):
        capacity = small_state.topology.machine(0).network_bandwidth_mbps
        # Machine 0's NIC is almost entirely busy with background traffic.
        small_state.monitor.record_network_use(0, capacity - 100)
        job = make_job(job_id=1, num_tasks=1, network_request_mbps=500)
        small_state.submit_job(job)
        manager, network = build_network(small_state, NetworkAwarePolicy())
        aggs = network.nodes_of_type(NodeType.REQUEST_AGGREGATOR)
        assert len(aggs) == 1
        targets = {arc.dst for arc in network.outgoing(aggs[0].node_id)}
        assert manager.machine_nodes[0] not in targets
        assert manager.machine_nodes[1] in targets

    def test_cost_reflects_current_utilization(self, small_state):
        small_state.monitor.record_network_use(1, 4_000)
        job = make_job(job_id=1, num_tasks=1, network_request_mbps=500)
        small_state.submit_job(job)
        manager, network = build_network(small_state, NetworkAwarePolicy())
        agg = network.nodes_of_type(NodeType.REQUEST_AGGREGATOR)[0]
        idle_cost = network.arc(agg.node_id, manager.machine_nodes[0]).cost
        busy_cost = network.arc(agg.node_id, manager.machine_nodes[1]).cost
        assert busy_cost > idle_cost

    def test_scheduler_avoids_saturated_machines(self):
        state = make_cluster_state(num_machines=4, slots_per_machine=4)
        capacity = state.topology.machine(0).network_bandwidth_mbps
        state.monitor.record_network_use(0, capacity)
        state.monitor.record_network_use(1, capacity)
        job = make_job(job_id=1, num_tasks=4, network_request_mbps=2_000)
        state.submit_job(job)
        scheduler = FirmamentScheduler(NetworkAwarePolicy(), solver=CostScalingSolver())
        decision = scheduler.schedule_and_apply(state, now=0.0)
        used_machines = set(decision.placements.values())
        assert used_machines.issubset({2, 3})

    def test_zero_request_tasks_get_a_dedicated_aggregator(self, small_state):
        job = make_job(job_id=1, num_tasks=2, network_request_mbps=0)
        small_state.submit_job(job)
        _, network = build_network(small_state, NetworkAwarePolicy())
        aggs = network.nodes_of_type(NodeType.REQUEST_AGGREGATOR)
        assert len(aggs) == 1
        assert aggs[0].ref == "RA0"
