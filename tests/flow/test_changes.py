"""Unit tests for graph changes and the Table-3 classification."""

import pytest

from repro.flow.changes import (
    ArcAddition,
    ArcCapacityChange,
    ArcCostChange,
    ArcRemoval,
    ChangeEffect,
    NodeAddition,
    NodeRemoval,
    SupplyChange,
    ChangeBatch,
    apply_changes,
    classify_arc_change,
)
from repro.flow.graph import FlowNetwork, NodeType
from repro.solvers.residual import FlowGraph, ResidualNetwork


def simple_network():
    net = FlowNetwork()
    task = net.add_node(NodeType.TASK, supply=1, name="T")
    machine = net.add_node(NodeType.MACHINE, name="M")
    sink = net.add_node(NodeType.SINK, supply=-1, name="S")
    net.add_arc(task.node_id, machine.node_id, 1, 3)
    net.add_arc(machine.node_id, sink.node_id, 1, 0)
    return net, task, machine, sink


class TestChangeApplication:
    def test_supply_change(self):
        net, task, _, _ = simple_network()
        SupplyChange(node_id=task.node_id, delta=2).apply(net)
        assert net.node(task.node_id).supply == 3

    def test_node_addition_with_arcs(self):
        net, _, machine, sink = simple_network()
        change = NodeAddition(
            node_type=NodeType.TASK,
            supply=1,
            name="T2",
            arcs_out=[(machine.node_id, 1, 4)],
        )
        change.apply(net)
        assert change.created_node_id is not None
        assert net.has_arc(change.created_node_id, machine.node_id)
        assert net.node(change.created_node_id).supply == 1

    def test_node_removal(self):
        net, task, _, _ = simple_network()
        NodeRemoval(node_id=task.node_id).apply(net)
        assert not net.has_node(task.node_id)

    def test_arc_capacity_and_cost_changes(self):
        net, task, machine, _ = simple_network()
        ArcCapacityChange(task.node_id, machine.node_id, 5).apply(net)
        ArcCostChange(task.node_id, machine.node_id, 9).apply(net)
        arc = net.arc(task.node_id, machine.node_id)
        assert arc.capacity == 5
        assert arc.cost == 9

    def test_arc_addition_and_removal(self):
        net, task, _, sink = simple_network()
        ArcAddition(task.node_id, sink.node_id, 1, 7).apply(net)
        assert net.has_arc(task.node_id, sink.node_id)
        ArcRemoval(task.node_id, sink.node_id).apply(net)
        assert not net.has_arc(task.node_id, sink.node_id)

    def test_apply_changes_in_order(self):
        net, task, machine, sink = simple_network()
        apply_changes(
            net,
            [
                ArcRemoval(task.node_id, machine.node_id),
                ArcAddition(task.node_id, sink.node_id, 1, 2),
            ],
        )
        assert not net.has_arc(task.node_id, machine.node_id)
        assert net.has_arc(task.node_id, sink.node_id)


class TestTable3Classification:
    """The classification mirrors Table 3 of the paper."""

    def test_increasing_capacity_on_negative_reduced_cost_breaks_optimality(self):
        effect = classify_arc_change(
            reduced_cost=-2, flow=1, old_capacity=1, new_capacity=3
        )
        assert effect is ChangeEffect.BREAKS_OPTIMALITY

    def test_increasing_capacity_on_nonnegative_reduced_cost_is_safe(self):
        for rc in (0, 4):
            effect = classify_arc_change(
                reduced_cost=rc, flow=0, old_capacity=1, new_capacity=3
            )
            assert effect is ChangeEffect.NONE

    def test_decreasing_capacity_below_flow_breaks_feasibility(self):
        effect = classify_arc_change(
            reduced_cost=0, flow=3, old_capacity=4, new_capacity=2
        )
        assert effect is ChangeEffect.BREAKS_FEASIBILITY

    def test_decreasing_capacity_above_flow_is_safe(self):
        effect = classify_arc_change(
            reduced_cost=0, flow=1, old_capacity=4, new_capacity=2
        )
        assert effect is ChangeEffect.NONE

    def test_unchanged_capacity_is_safe(self):
        effect = classify_arc_change(
            reduced_cost=-1, flow=1, old_capacity=2, new_capacity=2
        )
        assert effect is ChangeEffect.NONE

    def test_increasing_cost_on_flow_carrying_arc_breaks_optimality(self):
        effect = classify_arc_change(reduced_cost=-1, flow=1, new_reduced_cost=2)
        assert effect is ChangeEffect.BREAKS_OPTIMALITY

    def test_increasing_cost_without_flow_is_safe(self):
        effect = classify_arc_change(reduced_cost=0, flow=0, new_reduced_cost=3)
        assert effect is ChangeEffect.NONE

    def test_decreasing_cost_below_zero_breaks_optimality(self):
        effect = classify_arc_change(reduced_cost=1, flow=0, new_reduced_cost=-2)
        assert effect is ChangeEffect.BREAKS_OPTIMALITY

    def test_decreasing_cost_staying_nonnegative_is_safe(self):
        effect = classify_arc_change(reduced_cost=5, flow=0, new_reduced_cost=1)
        assert effect is ChangeEffect.NONE

    def test_must_describe_exactly_one_change(self):
        with pytest.raises(ValueError):
            classify_arc_change(reduced_cost=0, flow=0)
        with pytest.raises(ValueError):
            classify_arc_change(
                reduced_cost=0,
                flow=0,
                old_capacity=1,
                new_capacity=2,
                new_reduced_cost=1,
            )


class TestChangeBatchDiff:
    """ChangeBatch.diff must produce a batch that replays old -> new."""

    def network_signature(self, net):
        return (
            {n.node_id: (n.node_type, n.supply) for n in net.nodes()},
            {a.key(): (a.capacity, a.cost) for a in net.arcs()},
        )

    def test_diff_replays_structural_changes(self):
        from repro.flow.changes import ChangeBatch

        old, task, machine, sink = simple_network()
        new = old.copy()
        new.remove_node(task.node_id)
        new.set_supply(sink.node_id, 0)
        added = new.add_node(NodeType.TASK, supply=1, name="T2")
        new.add_arc(added.node_id, machine.node_id, 2, 7)
        new.set_supply(sink.node_id, -1)
        new.set_arc_cost(machine.node_id, sink.node_id, 4)
        new.set_arc_capacity(machine.node_id, sink.node_id, 3)

        batch = ChangeBatch.diff(old, new)
        replayed = old.copy()
        batch.apply_to(replayed)
        assert self.network_signature(replayed) == self.network_signature(new)

    def test_diff_of_identical_networks_is_empty(self):
        from repro.flow.changes import ChangeBatch

        old, *_ = simple_network()
        batch = ChangeBatch.diff(old, old.copy())
        assert len(batch) == 0
        assert batch  # an empty batch is still a meaningful "nothing changed"

    def test_diff_records_revisions(self):
        from repro.flow.changes import ChangeBatch

        old, *_ = simple_network()
        new = old.copy()
        old.revision = 4
        new.revision = 5
        batch = ChangeBatch.diff(old, new)
        assert batch.base_revision == 4
        assert batch.target_revision == 5

    def test_diff_ignores_flow_values(self):
        from repro.flow.changes import ChangeBatch

        old, task, machine, _ = simple_network()
        new = old.copy()
        new.arc(task.node_id, machine.node_id).flow = 1
        assert len(ChangeBatch.diff(old, new)) == 0


def simple_graph():
    """:func:`simple_network` held in a :class:`FlowGraph` (its journal
    taken, so it starts empty), plus the network itself (the graph's
    starting point) and the three node ids."""
    net, task, machine, sink = simple_network()
    graph = FlowGraph()
    for node in net.nodes():
        graph.residual.add_node(node.node_id, node.supply, node.node_type, node.ref)
    for arc in net.arcs():
        graph.residual.add_arc(arc.src, arc.dst, arc.capacity, arc.cost)
    graph.residual.take_journal()
    return graph, net, task.node_id, machine.node_id, sink.node_id


class TestChangeJournal:
    """A graph's mutators journal themselves; the batch read off the
    journal is the one the mutations amount to."""

    def _replay_matches(self, before, graph, batch):
        replayed = before.copy()
        batch.apply_to(replayed)
        assert replayed.structurally_equal(graph.copy()) == []

    @staticmethod
    def _set_arc_cost(residual, src, dst, cost):
        residual.patch_cost(residual.arc_position[(src, dst)], cost)

    def test_mutations_round_trip_through_the_emitted_batch(self):
        graph, before, task, machine, sink = simple_graph()
        residual = graph.residual

        residual.add_node(7, 1, NodeType.TASK)
        residual.add_arc(7, machine, 1, 7)
        residual.set_supply(sink, -2)
        self._set_arc_cost(residual, task, machine, 9)
        residual.set_arc_capacity(machine, sink, 2)

        batch = ChangeBatch.from_journal(residual, 1, 2)
        assert batch.base_revision == 1 and batch.target_revision == 2
        self._replay_matches(before, graph, batch)
        assert residual.node_journal == {} and residual.arc_journal == {}

    def test_node_removal_records_incident_arc_removals_first(self):
        graph, before, task, machine, sink = simple_graph()
        graph.residual.set_supply(sink, 0)
        graph.residual.remove_node(task)
        batch = ChangeBatch.from_journal(graph.residual, 1, 2)

        kinds = [type(c).__name__ for c in batch]
        assert kinds.index("ArcRemoval") < kinds.index("NodeRemoval")
        self._replay_matches(before, graph, batch)

    def test_same_round_add_and_remove_cancels(self):
        graph, before, task, machine, sink = simple_graph()
        residual = graph.residual
        residual.add_node(7, 0, NodeType.OTHER)
        residual.add_arc(machine, 7, 1, 0)
        residual.remove_arc(machine, 7)
        residual.remove_node(7)
        batch = ChangeBatch.from_journal(residual, 1, 2)
        assert len(batch) == 0
        self._replay_matches(before, graph, batch)

    def test_node_added_and_removed_with_its_arcs_leaves_nothing(self):
        graph, before, task, machine, sink = simple_graph()
        residual = graph.residual
        residual.add_node(7, 0, NodeType.OTHER)
        residual.add_arc(machine, 7, 1, 0)
        residual.add_arc(7, sink, 1, 0)
        residual.remove_node(7)
        batch = ChangeBatch.from_journal(residual, 1, 2)
        assert len(batch) == 0
        self._replay_matches(before, graph, batch)

    def test_patch_back_to_original_value_is_dropped(self):
        graph, _, task, machine, _ = simple_graph()
        self._set_arc_cost(graph.residual, task, machine, 11)
        self._set_arc_cost(graph.residual, task, machine, 3)  # original
        batch = ChangeBatch.from_journal(graph.residual, 1, 2)
        assert len(batch) == 0

    def test_patches_keep_only_the_final_value(self):
        graph, before, task, machine, sink = simple_graph()
        residual = graph.residual
        residual.set_arc_capacity(machine, sink, 4)
        residual.set_arc_capacity(machine, sink, 2)
        self._set_arc_cost(residual, machine, sink, 6)
        batch = ChangeBatch.from_journal(residual, 1, 2)
        assert [(type(c).__name__, c.src, c.dst) for c in batch] == [
            ("ArcCapacityChange", machine, sink),
            ("ArcCostChange", machine, sink),
        ]
        assert batch.changes[0].new_capacity == 2 and batch.changes[1].new_cost == 6
        self._replay_matches(before, graph, batch)

    def test_supply_patch_folds_into_same_round_node_addition(self):
        graph, _, _, _, _ = simple_graph()
        graph.residual.add_node(7, 1, NodeType.TASK)
        graph.residual.set_supply(7, 3)
        batch = ChangeBatch.from_journal(graph.residual, 1, 2)
        additions = [c for c in batch if isinstance(c, NodeAddition)]
        assert len(additions) == 1 and additions[0].supply == 3
        assert not [c for c in batch if isinstance(c, SupplyChange)]

    def test_arc_patch_folds_into_same_round_arc_addition(self):
        graph, before, task, machine, sink = simple_graph()
        residual = graph.residual
        residual.add_arc(task, sink, 1, 5)
        residual.set_arc_capacity(task, sink, 2)
        self._set_arc_cost(residual, task, sink, 8)
        batch = ChangeBatch.from_journal(residual, 1, 2)
        assert [type(c).__name__ for c in batch] == ["ArcAddition"]
        assert (batch.changes[0].capacity, batch.changes[0].cost) == (2, 8)
        self._replay_matches(before, graph, batch)

    def test_supply_records_the_net_delta(self):
        graph, before, task, machine, sink = simple_graph()
        residual = graph.residual
        residual.set_supply(sink, -3)
        residual.set_supply(sink, -2)
        residual.set_supply(task, 1)  # unchanged: not recorded
        batch = ChangeBatch.from_journal(residual, 1, 2)
        assert [(type(c).__name__, c.node_id, c.delta) for c in batch] == [
            ("SupplyChange", sink, -1)
        ]
        residual.set_supply(sink, -4)
        residual.set_supply(sink, -2)  # back to the journal's origin
        assert len(ChangeBatch.from_journal(residual, 2, 3)) == 0

    def test_arc_removed_then_readded_stays_removal_plus_addition(self):
        graph, before, task, machine, sink = simple_graph()
        residual = graph.residual
        residual.remove_arc(task, machine)
        residual.add_arc(task, machine, 1, 4)
        batch = ChangeBatch.from_journal(residual, 1, 2)
        assert [(type(c).__name__, c.src, c.dst) for c in batch] == [
            ("ArcRemoval", task, machine),
            ("ArcAddition", task, machine),
        ]
        assert batch.changes[1].cost == 4
        self._replay_matches(before, graph, batch)

    def test_prune_candidates_track_removed_arc_endpoints(self):
        graph, _, task, machine, sink = simple_graph()
        graph.residual.remove_arc(machine, sink)
        assert machine in graph.residual.prune_candidates()
        assert sink in graph.residual.prune_candidates()

    def test_replay_residuals_keep_no_journal(self):
        net, task, machine, sink = simple_network()
        residual = ResidualNetwork(net)
        residual.apply_changes([ArcCostChange(task.node_id, machine.node_id, 5)])
        assert residual.node_journal is None and residual.arc_journal is None
