"""Unit tests for task placement extraction (Listing 1)."""

import pytest

from repro.core.placement import extract_placements
from repro.flow.graph import FlowNetwork, NodeType


def solved_direct_network():
    """Two tasks scheduled directly on machines, one unscheduled."""
    net = FlowNetwork()
    sink = net.add_node(NodeType.SINK, supply=-3, name="S")
    m0 = net.add_node(NodeType.MACHINE, name="M0")
    m1 = net.add_node(NodeType.MACHINE, name="M1")
    u = net.add_node(NodeType.UNSCHEDULED_AGGREGATOR, name="U")
    t0 = net.add_node(NodeType.TASK, supply=1, name="T0")
    t1 = net.add_node(NodeType.TASK, supply=1, name="T1")
    t2 = net.add_node(NodeType.TASK, supply=1, name="T2")
    net.add_arc(m0.node_id, sink.node_id, 1, 0).flow = 1
    net.add_arc(m1.node_id, sink.node_id, 1, 0).flow = 1
    net.add_arc(u.node_id, sink.node_id, 3, 0).flow = 1
    net.add_arc(t0.node_id, m0.node_id, 1, 1).flow = 1
    net.add_arc(t1.node_id, m1.node_id, 1, 1).flow = 1
    net.add_arc(t2.node_id, u.node_id, 1, 5).flow = 1
    task_nodes = {0: t0.node_id, 1: t1.node_id, 2: t2.node_id}
    machine_nodes = {0: m0.node_id, 1: m1.node_id}
    return net, task_nodes, machine_nodes, sink.node_id


def solved_aggregated_network():
    """Tasks whose flow traverses a cluster aggregator before the machines."""
    net = FlowNetwork()
    sink = net.add_node(NodeType.SINK, supply=-3, name="S")
    agg = net.add_node(NodeType.CLUSTER_AGGREGATOR, name="X")
    m0 = net.add_node(NodeType.MACHINE, name="M0")
    m1 = net.add_node(NodeType.MACHINE, name="M1")
    tasks = [net.add_node(NodeType.TASK, supply=1, name=f"T{i}") for i in range(3)]
    net.add_arc(m0.node_id, sink.node_id, 2, 0).flow = 2
    net.add_arc(m1.node_id, sink.node_id, 1, 0).flow = 1
    net.add_arc(agg.node_id, m0.node_id, 2, 0).flow = 2
    net.add_arc(agg.node_id, m1.node_id, 1, 0).flow = 1
    for task in tasks:
        net.add_arc(task.node_id, agg.node_id, 1, 0).flow = 1
    task_nodes = {i: t.node_id for i, t in enumerate(tasks)}
    machine_nodes = {0: m0.node_id, 1: m1.node_id}
    return net, task_nodes, machine_nodes, sink.node_id


class TestExtraction:
    def test_direct_arcs(self):
        net, task_nodes, machine_nodes, sink = solved_direct_network()
        placements = extract_placements(net, task_nodes, machine_nodes, sink)
        assert placements == {0: 0, 1: 1}

    def test_flow_through_aggregators(self):
        net, task_nodes, machine_nodes, sink = solved_aggregated_network()
        placements = extract_placements(net, task_nodes, machine_nodes, sink)
        assert len(placements) == 3
        # Machine capacities respected: two tasks on M0, one on M1.
        assert sorted(placements.values()) == [0, 0, 1]

    def test_zero_flow_produces_no_placements(self):
        net, task_nodes, machine_nodes, sink = solved_direct_network()
        net.clear_flow()
        placements = extract_placements(net, task_nodes, machine_nodes, sink)
        assert placements == {}

    def test_extraction_from_real_solver_output(self):
        """End-to-end: solve a policy-built network and check the placements
        against an independently computed flow decomposition."""
        from repro.core import GraphManager, QuincyPolicy
        from repro.solvers import CostScalingSolver
        from tests.conftest import make_cluster_state, make_job

        state = make_cluster_state(num_machines=6, slots_per_machine=2)
        state.submit_job(make_job(job_id=1, num_tasks=8))
        manager = GraphManager(QuincyPolicy())
        network = manager.update(state, now=0.0).copy()
        CostScalingSolver().solve(network)
        placements = extract_placements(
            network, manager.task_nodes, manager.machine_nodes, manager.sink_node
        )
        # Every placement must respect machine slot capacity.
        per_machine = {}
        for machine_id in placements.values():
            per_machine[machine_id] = per_machine.get(machine_id, 0) + 1
        for machine_id, count in per_machine.items():
            assert count <= state.topology.machine(machine_id).num_slots
        # The number of placements equals the flow into machine nodes.
        machine_inflow = sum(
            arc.flow
            for machine_node in manager.machine_nodes.values()
            for arc in network.incoming(machine_node)
        )
        assert len(placements) == machine_inflow

    def test_rack_aggregator_paths(self):
        """Tokens propagate through multi-level aggregation (X -> rack -> machine)."""
        net = FlowNetwork()
        sink = net.add_node(NodeType.SINK, supply=-1)
        rack = net.add_node(NodeType.RACK_AGGREGATOR, name="R0")
        machine = net.add_node(NodeType.MACHINE, name="M0")
        task = net.add_node(NodeType.TASK, supply=1, name="T0")
        net.add_arc(machine.node_id, sink.node_id, 1, 0).flow = 1
        net.add_arc(rack.node_id, machine.node_id, 1, 0).flow = 1
        net.add_arc(task.node_id, rack.node_id, 1, 0).flow = 1
        placements = extract_placements(
            net, {7: task.node_id}, {3: machine.node_id}, sink.node_id
        )
        assert placements == {7: 3}
