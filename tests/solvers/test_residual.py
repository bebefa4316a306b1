"""Unit tests for the array-based residual network representation."""

import pytest

from repro.flow.graph import FlowNetwork, NodeType
from repro.solvers.residual import ResidualNetwork


def small_network(flow_on_first_arc: int = 0):
    net = FlowNetwork()
    task = net.add_node(NodeType.TASK, supply=1)
    machine = net.add_node(NodeType.MACHINE)
    sink = net.add_node(NodeType.SINK, supply=-1)
    first = net.add_arc(task.node_id, machine.node_id, 2, 5)
    net.add_arc(machine.node_id, sink.node_id, 2, 0)
    first.flow = flow_on_first_arc
    return net, task, machine, sink


class TestConstruction:
    def test_arc_pairing(self):
        net, *_ = small_network()
        residual = ResidualNetwork(net)
        assert residual.num_nodes == 3
        assert residual.num_arcs == 4  # two original arcs, each paired
        for arc_index in range(0, residual.num_arcs, 2):
            assert residual.reverse(arc_index) == arc_index + 1
            assert residual.is_forward(arc_index)
            assert not residual.is_forward(arc_index + 1)

    def test_supplies_become_excesses(self):
        net, task, _, sink = small_network()
        residual = ResidualNetwork(net)
        assert residual.excess[residual.index[task.node_id]] == 1
        assert residual.excess[residual.index[sink.node_id]] == -1
        assert residual.total_excess() == 1
        assert residual.source_indices() == [residual.index[task.node_id]]

    def test_warm_start_loads_existing_flow(self):
        net, task, machine, _ = small_network(flow_on_first_arc=1)
        residual = ResidualNetwork(net, flows=net.flows())
        task_index = residual.index[task.node_id]
        machine_index = residual.index[machine.node_id]
        # The task's supply has already been pushed one hop.
        assert residual.excess[task_index] == 0
        assert residual.excess[machine_index] == 1
        # One of the arc's two units is used: one left forward, one back.
        assert (residual.arc_residual[0], residual.arc_residual[1]) == (1, 1)

    def test_warm_start_clamps_flow_to_capacity(self):
        net, task, machine, sink = small_network()
        residual = ResidualNetwork(net, flows={(task.node_id, machine.node_id): 5})
        # Clamped to the arc's capacity of 2: both units pushed one hop.
        assert (residual.arc_residual[0], residual.arc_residual[1]) == (0, 2)
        assert residual.excess[residual.index[task.node_id]] == -1
        assert residual.excess[residual.index[machine.node_id]] == 2
        assert net.flows() == {}  # the network itself is only read

    def test_warm_start_rejects_invalid_flow(self):
        net, task, machine, _ = small_network()
        with pytest.raises(ValueError):
            ResidualNetwork(net, flows={(task.node_id, machine.node_id): -1})


class TestOperations:
    def test_push_updates_residuals_and_excesses(self):
        net, task, machine, _ = small_network()
        residual = ResidualNetwork(net)
        residual.push(0, 1)
        assert residual.arc_residual[0] == 1
        assert residual.arc_residual[1] == 1
        assert residual.excess[residual.index[task.node_id]] == 0
        assert residual.excess[residual.index[machine.node_id]] == 1

    def test_push_rejects_overcapacity(self):
        net, *_ = small_network()
        residual = ResidualNetwork(net)
        with pytest.raises(ValueError):
            residual.push(0, 3)

    def test_push_rejects_negative_amount(self):
        net, *_ = small_network()
        residual = ResidualNetwork(net)
        with pytest.raises(ValueError):
            residual.push(0, -1)

    def test_reduced_cost_uses_potentials(self):
        net, task, machine, _ = small_network()
        residual = ResidualNetwork(net)
        assert residual.reduced_cost(0) == 5
        residual.potential[residual.index[task.node_id]] = 5
        assert residual.reduced_cost(0) == 0

    def test_potential_round_trip(self):
        net, task, machine, sink = small_network()
        residual = ResidualNetwork(net)
        residual.load_potentials({task.node_id: 7, machine.node_id: 2})
        exported = residual.export_potentials()
        assert exported[task.node_id] == 7
        assert exported[machine.node_id] == 2
        assert exported[sink.node_id] == 0

    def test_load_potentials_ignores_unknown_nodes(self):
        net, *_ = small_network()
        residual = ResidualNetwork(net)
        residual.load_potentials({999: 5})
        assert all(p == 0 for p in residual.potential)

    def test_write_flow_back_and_cost(self):
        net, task, machine, sink = small_network()
        residual = ResidualNetwork(net)
        residual.push(0, 1)
        residual.push(2, 1)
        residual.write_flow_back(net)
        assert net.arc(task.node_id, machine.node_id).flow == 1
        assert net.arc(machine.node_id, sink.node_id).flow == 1
        assert residual.total_cost() == 5
        assert residual.flows() == {
            (task.node_id, machine.node_id): 1,
            (machine.node_id, sink.node_id): 1,
        }

    def test_max_cost(self):
        net, *_ = small_network()
        residual = ResidualNetwork(net)
        assert residual.max_cost() == 5
