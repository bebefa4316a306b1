"""Dirty-flow journal: O(changed) extraction must equal full extraction."""

from __future__ import annotations

import random

import pytest

from repro.flow.changes import ArcCapacityChange, ArcRemoval, ChangeBatch
from repro.flow.graph import FlowNetwork, NodeType
from repro.solvers import CostScalingSolver
from repro.solvers.incremental import IncrementalCostScalingSolver
from repro.solvers.residual import ResidualNetwork
from tests.conftest import build_scheduling_network, reference_min_cost
from tests.solvers.equivalence_harness import generate_network, perturb_network


def build_small_network() -> FlowNetwork:
    network = FlowNetwork()
    source = network.add_node(NodeType.TASK, supply=3)
    middle = network.add_node(NodeType.OTHER)
    sink = network.add_node(NodeType.SINK, supply=-3)
    network.add_arc(source.node_id, middle.node_id, 3, 1)
    network.add_arc(middle.node_id, sink.node_id, 3, 1)
    network.add_arc(source.node_id, sink.node_id, 2, 5)
    return network


class TestJournalBookkeeping:
    def test_extraction_primes_journal_and_pushes_maintain_it(self):
        residual = ResidualNetwork(build_small_network())
        assert not residual.flow_journal_active
        assert residual.flows() == {}
        assert residual.flow_journal_active

        # Route two units source -> middle -> sink through journaled pushes.
        position = residual.arc_position[(0, 1)]
        residual.push(2 * position, 2)
        position = residual.arc_position[(1, 2)]
        residual.push(2 * position, 2)
        assert residual.flows() == {(0, 1): 2, (1, 2): 2}
        assert residual.flows() == residual.full_flows()

    def test_zero_flow_entries_are_dropped(self):
        residual = ResidualNetwork(build_small_network())
        residual.flows()
        position = residual.arc_position[(0, 2)]
        residual.push(2 * position, 2)
        assert residual.flows() == {(0, 2): 2}
        # Push back along the reverse residual arc: flow returns to zero and
        # the journaled extraction must drop the entry.
        residual.push(2 * position + 1, 2)
        assert residual.flows() == {}
        assert residual.full_flows() == {}

    def test_invalidation_falls_back_to_full_extraction(self):
        residual = ResidualNetwork(build_small_network())
        residual.flows()
        position = residual.arc_position[(0, 1)]
        residual.push(2 * position, 1)
        residual.invalidate_flow_journal()
        assert not residual.flow_journal_active
        assert residual.flows() == {(0, 1): 1}
        assert residual.flow_journal_active  # re-primed by the full scan

    def test_capacity_clamp_and_arc_removal_update_journal(self):
        network = build_small_network()
        residual = ResidualNetwork(network)
        residual.flows()
        direct = residual.arc_position[(0, 2)]
        residual.push(2 * direct, 2)
        assert residual.flows() == {(0, 2): 2}

        # Clamping capacity below the carried flow must journal the arc.
        residual.apply_changes([ArcCapacityChange(src=0, dst=2, new_capacity=1)])
        assert residual.flows() == {(0, 2): 1}
        assert residual.flows() == residual.full_flows()

        # Removing the arc purges the cached entry.
        residual.apply_changes([ArcRemoval(src=0, dst=2)])
        assert residual.flows() == {}
        assert residual.flows() == residual.full_flows()

    def test_write_flow_back_journal_path_matches_full_path(self):
        network = build_small_network()
        residual = ResidualNetwork(network)
        residual.flows()
        residual.push(2 * residual.arc_position[(0, 1)], 2)
        residual.push(2 * residual.arc_position[(1, 2)], 2)
        residual.write_flow_back(network)  # the first write visits every arc
        residual.push(2 * residual.arc_position[(0, 2)], 1)
        residual.push(2 * residual.arc_position[(0, 1)] + 1, 1)

        assert residual.flow_journal_active
        residual.write_flow_back(network)  # the second, the journaled two

        full = network.copy()
        full.clear_flow()
        residual.invalidate_flow_journal()
        residual.write_flow_back(full)

        assert network.flows() == full.flows() == {(0, 1): 1, (1, 2): 2, (0, 2): 1}


class TestLastWriter:
    """``write_flow_back`` writes only its journaled arcs iff the residual
    is provably the network's last writer and has folded no journal entry
    away unwritten; either way it reports exactly the flows that moved."""

    def solved(self):
        network = build_small_network()
        residual = ResidualNetwork(network)
        residual.flows()
        residual.push(2 * residual.arc_position[(0, 1)], 2)
        residual.push(2 * residual.arc_position[(1, 2)], 2)
        residual.write_flow_back(network)
        return network, residual

    def test_first_write_reports_every_arc_it_moved(self):
        network, residual = self.solved()
        assert network.flows() == {(0, 1): 2, (1, 2): 2}
        assert network.flow_changes == {(0, 1), (1, 2)}

    def test_steady_write_reports_exactly_the_flows_that_moved(self):
        network, residual = self.solved()
        network.take_flow_changes()
        # One arc gains flow; another is pushed and pushed back (journaled,
        # but its value did not move).
        residual.push(2 * residual.arc_position[(0, 2)], 1)
        residual.push(2 * residual.arc_position[(0, 1)], 1)
        residual.push(2 * residual.arc_position[(0, 1)] + 1, 1)
        residual.write_flow_back(network)
        assert network.take_flow_changes() == {(0, 2)}
        assert network.flows() == residual.full_flows()

    def test_another_writer_in_between_forces_a_full_write(self):
        network, residual = self.solved()
        network.take_flow_changes()
        network.set_flows({(0, 2): 2})  # e.g. the other leg won a round
        assert network.take_flow_changes() == {(0, 1), (1, 2), (0, 2)}
        residual.push(2 * residual.arc_position[(0, 2)], 1)
        residual.write_flow_back(network)
        # Not just the journaled arc: the other writer's flows are gone.
        assert network.flows() == residual.full_flows()
        assert network.flow_changes == {(0, 1), (1, 2), (0, 2)}

    def test_entries_folded_away_unwritten_force_a_full_write(self):
        network, residual = self.solved()
        network.take_flow_changes()
        residual.push(2 * residual.arc_position[(0, 2)], 1)
        residual.flows()  # a solve(write_back=False) extracts its result
        residual.push(2 * residual.arc_position[(0, 1)] + 1, 1)
        residual.write_flow_back(network)
        assert network.flows() == residual.full_flows()
        assert network.flow_changes == {(0, 1), (0, 2)}


class TestWarmStartsLeaveTheNetworkAlone:
    """A warm start hands its stale flow to the residual it builds: with
    ``write_back=False`` the network is not written at all."""

    def test_incremental_cost_scaling_warm_rebuild(self):
        network = build_scheduling_network(seed=21, num_tasks=8)
        current = dict(CostScalingSolver().solve(network).flows)
        network.take_flow_changes()
        # Every arc one unit off the current flow: some above capacity.
        stale = {key: flow + 1 for key, flow in current.items()}
        solver = IncrementalCostScalingSolver()
        solver.seed(stale, {})
        result = solver.solve(network, None, write_back=False)
        assert result.statistics.warm_start
        assert result.total_cost == reference_min_cost(network)
        assert network.flows() == current
        assert network.flow_changes == set()


class TestJournalOnDeltaRounds:
    """The journal-vs-full equivalence guard on the real delta path."""

    def test_incremental_rounds_extract_equivalently(self):
        rng = random.Random(7)
        network = generate_network(rng)
        solver = IncrementalCostScalingSolver()
        changes = None
        for round_index in range(6):
            result = solver.solve(network, changes=changes)
            assert result.total_cost == reference_min_cost(network)
            residual = solver.last_residual
            assert residual is not None
            # The journal-served extraction must match a journal-bypassing
            # full scan of the same residual, arc for arc.
            assert residual.flows() == residual.full_flows()
            network, changes = perturb_network(rng, network)

    def test_delta_round_is_served_from_journal(self):
        previous = build_scheduling_network(seed=13, num_tasks=8)
        solver = IncrementalCostScalingSolver()
        solver.solve(previous)
        residual = solver.last_residual
        assert residual is not None and residual.flow_journal_active

        network = previous.copy()
        arc = next(a for a in network.arcs() if a.cost > 0)
        network.set_arc_cost(arc.src, arc.dst, arc.cost + 3)
        network.revision = previous.revision + 1
        changes = ChangeBatch.diff(previous, network)

        result = solver.solve(network, changes=changes)
        assert solver.delta_solves == 1
        # The delta round kept the journal alive (no full-scan fallback) and
        # its extraction equals both the full scan and the oracle.
        residual = solver.last_residual
        assert residual.flow_journal_active
        assert residual.flows() == residual.full_flows()
        assert result.total_cost == reference_min_cost(network)


class TestStateKeptBesideTheJournal:
    """What rides on the journal besides the flows: their total cost, and
    both across a compaction."""

    @staticmethod
    def recomputed_cost(residual, network) -> int:
        return sum(
            flow * network.arc(*key).cost for key, flow in residual.full_flows().items()
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_total_cost_is_maintained_not_recomputed(self, seed):
        """Pushes, cost patches on flow-carrying arcs, clamps, removals and
        a mid-run compaction all keep ``total_cost()`` equal to the sum
        over the arcs -- which it no longer visits."""
        rng = random.Random(seed)
        network = generate_network(rng)
        solver = IncrementalCostScalingSolver()
        changes = None
        for round_index in range(8):
            result = solver.solve(network, changes=changes)
            residual = solver.last_residual
            assert residual.flow_journal_active
            assert result.total_cost == self.recomputed_cost(residual, network)
            assert result.total_cost == reference_min_cost(network)
            if round_index == 4:
                residual.compact()
                assert residual.flow_journal_active
                assert residual.total_cost() == result.total_cost
            network, changes = perturb_network(rng, network)
        assert solver.delta_solves >= 5

    def test_compaction_carries_the_pending_journal_over(self):
        """Positions are renumbered; the entries follow their arcs, so the
        next write-back still touches only what moved."""
        network = build_small_network()
        residual = ResidualNetwork(network)
        residual.flows()
        residual.write_flow_back(network)
        network.take_flow_changes()
        # Kill the first slot so every later position shifts down by one.
        residual.apply_changes(ChangeBatch(changes=[ArcRemoval(src=0, dst=1)]))
        network.remove_arc(0, 1)
        position = residual.arc_position[(0, 2)]
        residual.push(2 * position, 2)
        residual.compact()
        assert residual.arc_position[(0, 2)] == position - 1
        assert residual.flow_journal_active
        residual.write_flow_back(network)
        assert network.take_flow_changes() == {(0, 2)}
        assert network.arc(0, 2).flow == 2
        assert residual.flows() == residual.full_flows() == {(0, 2): 2}
        assert residual.total_cost() == 10

    def test_flows_is_a_read_only_view_of_the_latest_extraction(self):
        residual = ResidualNetwork(build_small_network())
        flows = residual.flows()
        with pytest.raises(TypeError):
            flows[(0, 1)] = 1
        residual.push(2 * residual.arc_position[(0, 2)], 1)
        residual.flows()
        assert flows == {(0, 2): 1}
