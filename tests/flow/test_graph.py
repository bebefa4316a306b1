"""Unit tests for the flow-network data structure."""

import pytest

from repro.flow.graph import Arc, FlowNetwork, Node, NodeType


class TestNodeManagement:
    def test_add_node_allocates_sequential_ids(self):
        net = FlowNetwork()
        first = net.add_node(NodeType.TASK, supply=1)
        second = net.add_node(NodeType.MACHINE)
        assert first.node_id == 0
        assert second.node_id == 1
        assert net.num_nodes == 2

    def test_add_node_with_explicit_id(self):
        net = FlowNetwork()
        node = net.add_node(NodeType.SINK, node_id=42)
        assert node.node_id == 42
        assert net.has_node(42)
        # The allocator continues past the explicit id.
        assert net.add_node(NodeType.TASK).node_id == 43

    def test_add_duplicate_node_id_rejected(self):
        net = FlowNetwork()
        net.add_node(NodeType.TASK, node_id=1)
        with pytest.raises(ValueError):
            net.add_node(NodeType.TASK, node_id=1)

    def test_remove_node_removes_incident_arcs(self):
        net = FlowNetwork()
        a = net.add_node(NodeType.TASK, supply=1)
        b = net.add_node(NodeType.MACHINE)
        c = net.add_node(NodeType.SINK, supply=-1)
        net.add_arc(a.node_id, b.node_id, 1, 5)
        net.add_arc(b.node_id, c.node_id, 1, 0)
        net.remove_node(b.node_id)
        assert net.num_arcs == 0
        assert not net.has_node(b.node_id)

    def test_remove_missing_node_raises(self):
        net = FlowNetwork()
        with pytest.raises(KeyError):
            net.remove_node(7)

    def test_nodes_of_type(self):
        net = FlowNetwork()
        net.add_node(NodeType.TASK, supply=1)
        net.add_node(NodeType.TASK, supply=1)
        net.add_node(NodeType.MACHINE)
        assert len(net.nodes_of_type(NodeType.TASK)) == 2
        assert len(net.nodes_of_type(NodeType.MACHINE)) == 1
        assert net.nodes_of_type(NodeType.SINK) == []

    def test_set_supply(self):
        net = FlowNetwork()
        node = net.add_node(NodeType.TASK, supply=1)
        net.set_supply(node.node_id, 3)
        assert net.node(node.node_id).supply == 3


class TestArcManagement:
    def _two_nodes(self):
        net = FlowNetwork()
        a = net.add_node(NodeType.TASK, supply=1)
        b = net.add_node(NodeType.SINK, supply=-1)
        return net, a, b

    def test_add_arc(self):
        net, a, b = self._two_nodes()
        arc = net.add_arc(a.node_id, b.node_id, capacity=3, cost=7)
        assert arc.capacity == 3
        assert arc.cost == 7
        assert arc.flow == 0
        assert arc.residual_capacity == 3
        assert net.has_arc(a.node_id, b.node_id)
        assert net.num_arcs == 1

    def test_add_arc_missing_endpoint_rejected(self):
        net, a, _ = self._two_nodes()
        with pytest.raises(KeyError):
            net.add_arc(a.node_id, 99, 1, 1)

    def test_add_duplicate_arc_rejected(self):
        net, a, b = self._two_nodes()
        net.add_arc(a.node_id, b.node_id, 1, 1)
        with pytest.raises(ValueError):
            net.add_arc(a.node_id, b.node_id, 2, 2)

    def test_negative_capacity_rejected(self):
        net, a, b = self._two_nodes()
        with pytest.raises(ValueError):
            net.add_arc(a.node_id, b.node_id, -1, 0)

    def test_remove_arc(self):
        net, a, b = self._two_nodes()
        net.add_arc(a.node_id, b.node_id, 1, 1)
        net.remove_arc(a.node_id, b.node_id)
        assert not net.has_arc(a.node_id, b.node_id)
        assert net.outgoing(a.node_id) == []
        assert net.incoming(b.node_id) == []

    def test_update_capacity_and_cost(self):
        net, a, b = self._two_nodes()
        net.add_arc(a.node_id, b.node_id, 1, 1)
        net.set_arc_capacity(a.node_id, b.node_id, 5)
        net.set_arc_cost(a.node_id, b.node_id, 9)
        arc = net.arc(a.node_id, b.node_id)
        assert arc.capacity == 5
        assert arc.cost == 9

    def test_set_negative_capacity_rejected(self):
        net, a, b = self._two_nodes()
        net.add_arc(a.node_id, b.node_id, 1, 1)
        with pytest.raises(ValueError):
            net.set_arc_capacity(a.node_id, b.node_id, -2)

    def test_adjacency_lists(self):
        net = FlowNetwork()
        a = net.add_node(NodeType.TASK, supply=1)
        b = net.add_node(NodeType.MACHINE)
        c = net.add_node(NodeType.SINK, supply=-1)
        ab = net.add_arc(a.node_id, b.node_id, 1, 1)
        bc = net.add_arc(b.node_id, c.node_id, 1, 0)
        assert net.outgoing(a.node_id) == [ab]
        assert net.incoming(b.node_id) == [ab]
        assert net.outgoing(b.node_id) == [bc]
        assert net.incoming(c.node_id) == [bc]


class TestViewsAndProperties:
    def test_supply_queries(self):
        net = FlowNetwork()
        net.add_node(NodeType.TASK, supply=2)
        net.add_node(NodeType.SINK, supply=-2)
        net.add_node(NodeType.MACHINE)
        assert net.total_supply() == 0

    def test_flow_assignment_helpers(self):
        net = FlowNetwork()
        a = net.add_node(NodeType.TASK, supply=1)
        b = net.add_node(NodeType.SINK, supply=-1)
        net.add_arc(a.node_id, b.node_id, 2, 1)
        net.set_flows({(a.node_id, b.node_id): 2})
        assert net.flows() == {(a.node_id, b.node_id): 2}
        net.clear_flow()
        assert net.flows() == {}

    def test_copy_is_deep(self):
        net = FlowNetwork()
        a = net.add_node(NodeType.TASK, supply=1, name="t")
        b = net.add_node(NodeType.SINK, supply=-1)
        net.add_arc(a.node_id, b.node_id, 2, 3)
        net.arc(a.node_id, b.node_id).flow = 1
        clone = net.copy()
        clone.arc(a.node_id, b.node_id).flow = 2
        clone.node(a.node_id).supply = 5
        assert net.arc(a.node_id, b.node_id).flow == 1
        assert net.node(a.node_id).supply == 1
        assert clone.num_nodes == net.num_nodes
        assert clone.num_arcs == net.num_arcs

    def test_validate_structure_detects_imbalance(self):
        net = FlowNetwork()
        net.add_node(NodeType.TASK, supply=1)
        problems = net.validate_structure()
        assert any("total supply" in p for p in problems)

    def test_validate_structure_ok(self):
        net = FlowNetwork()
        a = net.add_node(NodeType.TASK, supply=1)
        b = net.add_node(NodeType.SINK, supply=-1)
        net.add_arc(a.node_id, b.node_id, 1, 0)
        assert net.validate_structure() == []

    def test_to_networkx_round_trip(self):
        import networkx as nx

        net = FlowNetwork()
        a = net.add_node(NodeType.TASK, supply=1)
        b = net.add_node(NodeType.SINK, supply=-1)
        net.add_arc(a.node_id, b.node_id, 1, 5)
        graph = net.to_networkx()
        assert graph.nodes[a.node_id]["demand"] == -1
        assert graph.nodes[b.node_id]["demand"] == 1
        assert graph[a.node_id][b.node_id]["capacity"] == 1
        assert graph[a.node_id][b.node_id]["weight"] == 5
        flow = nx.min_cost_flow(graph)
        assert flow[a.node_id][b.node_id] == 1
