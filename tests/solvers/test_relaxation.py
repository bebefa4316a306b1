"""Unit tests for the relaxation solver and the arc-prioritization heuristic."""

import pytest

from repro.flow.graph import FlowNetwork, NodeType
from repro.flow.validation import assert_optimal, check_feasibility
from repro.solvers.base import InfeasibleProblemError
from repro.solvers import relaxation
from repro.solvers.relaxation import RelaxationSolver
from tests.conftest import (
    build_contended_network,
    build_scheduling_network,
    reference_min_cost,
)


class TestBasicSolving:
    def test_optimal_on_small_graph(self):
        network = build_scheduling_network(seed=1)
        expected = reference_min_cost(network)
        result = RelaxationSolver().solve(network)
        assert result.total_cost == expected
        assert_optimal(network, result.potentials)

    def test_uncontested_graph_needs_no_augment_per_conflict(self):
        """With one slot per task and distinct preferences, every task is
        routed with a single augmentation (the common case the paper relies
        on for relaxation's speed)."""
        network = FlowNetwork()
        sink = network.add_node(NodeType.SINK, supply=-4)
        unsched = network.add_node(NodeType.UNSCHEDULED_AGGREGATOR)
        network.add_arc(unsched.node_id, sink.node_id, 4, 0)
        for index in range(4):
            machine = network.add_node(NodeType.MACHINE, name=f"M{index}")
            network.add_arc(machine.node_id, sink.node_id, 1, 0)
            task = network.add_node(NodeType.TASK, supply=1, name=f"T{index}")
            network.add_arc(task.node_id, machine.node_id, 1, 1)
            network.add_arc(task.node_id, unsched.node_id, 1, 20)
        result = RelaxationSolver().solve(network)
        assert result.total_cost == 4
        assert result.statistics.augmentations == 4

    def test_contended_graph_still_optimal(self):
        network = build_contended_network(num_tasks=25)
        expected = reference_min_cost(network)
        result = RelaxationSolver().solve(network)
        assert result.total_cost == expected

    def test_contention_increases_dual_ascent_work(self):
        """Contention forces extra dual-ascent steps per routed task -- the
        mechanism behind the slowdowns of Figures 8 and 9.

        In the uncontested graph every task has a dedicated machine one
        zero-reduced-cost hop behind a single ascent, so ascents per
        augmentation equal one.  In the contended graph most tasks find their
        preferred destinations saturated and need further ascents before the
        expensive unscheduled route opens up.
        """
        uncontended = FlowNetwork()
        sink = uncontended.add_node(NodeType.SINK, supply=-10)
        unsched = uncontended.add_node(NodeType.UNSCHEDULED_AGGREGATOR)
        uncontended.add_arc(unsched.node_id, sink.node_id, 10, 0)
        for index in range(10):
            machine = uncontended.add_node(NodeType.MACHINE)
            uncontended.add_arc(machine.node_id, sink.node_id, 1, 0)
            task = uncontended.add_node(NodeType.TASK, supply=1)
            uncontended.add_arc(task.node_id, machine.node_id, 1, 1)
            uncontended.add_arc(task.node_id, unsched.node_id, 1, 50)

        contended = build_contended_network(num_tasks=30, num_machines=2,
                                            slots_per_machine=2)
        easy = RelaxationSolver().solve(uncontended)
        hard = RelaxationSolver().solve(contended)
        easy_ascents = easy.statistics.potential_updates / max(1, easy.statistics.augmentations)
        hard_ascents = hard.statistics.potential_updates / max(1, hard.statistics.augmentations)
        assert hard_ascents > easy_ascents

    def test_infeasible_problem_raises(self):
        network = FlowNetwork()
        task = network.add_node(NodeType.TASK, supply=1)
        sink = network.add_node(NodeType.SINK, supply=-1)
        network.add_arc(task.node_id, sink.node_id, 0, 1)
        with pytest.raises(InfeasibleProblemError):
            RelaxationSolver().solve(network)

    def test_negative_cost_arcs_handled(self):
        """Initial saturation restores reduced-cost optimality for graphs
        with negative costs (not produced by our policies, but allowed)."""
        network = FlowNetwork()
        task = network.add_node(NodeType.TASK, supply=1)
        machine = network.add_node(NodeType.MACHINE)
        sink = network.add_node(NodeType.SINK, supply=-1)
        network.add_arc(task.node_id, machine.node_id, 1, -5)
        network.add_arc(machine.node_id, sink.node_id, 1, 0)
        result = RelaxationSolver().solve(network)
        assert result.total_cost == -5
        assert check_feasibility(network) == []


class TestArcPrioritization:
    def test_heuristic_preserves_optimality(self):
        network = build_contended_network(num_tasks=30)
        expected = reference_min_cost(network)
        for enabled in (True, False):
            result = RelaxationSolver(arc_prioritization=enabled).solve(network.copy())
            assert result.total_cost == expected

    def test_heuristic_does_not_inflate_scanning_on_contended_graphs(self):
        """The probe must not materially increase scanning work.

        The typed-array rewrite scans each tree node's adjacency exactly
        once and extends trees from the candidate heap, which eliminated
        the post-ascent re-traversals the Section 5.3.1 probe used to
        save; its remaining effect is frontier *order* (finding a demand
        node before more of the tree is scanned), so the two modes now
        sit within a few arcs of each other instead of the old wide gap.
        The guard pins that the probe's bookkeeping never becomes a
        scanning regression.
        """
        network = build_contended_network(num_tasks=60, num_machines=6, slots_per_machine=3)
        with_heuristic = RelaxationSolver(arc_prioritization=True).solve(network.copy())
        without_heuristic = RelaxationSolver(arc_prioritization=False).solve(network.copy())
        assert (
            with_heuristic.statistics.arcs_scanned
            <= without_heuristic.statistics.arcs_scanned * 1.05
        )

    def test_probe_limit_caps_lookahead(self, monkeypatch):
        monkeypatch.setattr(relaxation, "PRIORITY_PROBE_LIMIT", 1)
        solver = RelaxationSolver(arc_prioritization=True)
        network = build_scheduling_network(seed=12, num_tasks=10)
        expected = reference_min_cost(network)
        assert solver.solve(network).total_cost == expected


class TestPersistentResidual:
    def test_unchained_solves_rebuild(self):
        solver = RelaxationSolver()
        network = build_scheduling_network(seed=21, num_tasks=8)
        solver.solve(network.copy())
        solver.solve(network.copy())
        assert solver.residual_rebuilds == 2
        assert solver.residual_reuses == 0

    def test_chained_batch_patches_instead_of_rebuilding(self):
        from repro.flow.changes import ChangeBatch

        solver = RelaxationSolver()
        previous = build_scheduling_network(seed=22, num_tasks=8)
        solver.solve(previous.copy())
        network = previous.copy()
        arc = next(a for a in network.arcs() if a.cost > 0)
        network.set_arc_cost(arc.src, arc.dst, arc.cost + 9)
        network.revision = previous.revision + 1
        changes = ChangeBatch.diff(previous, network)
        result = solver.solve(network.copy(), changes=changes)
        assert result.total_cost == reference_min_cost(network)
        assert solver.residual_reuses == 1
        assert result.statistics.arcs_patched >= 1
        # The patched residual mirrors the updated network exactly.
        assert solver.last_residual.consistency_errors(network) == []

    def test_mismatched_revision_falls_back_to_rebuild(self):
        from repro.flow.changes import ChangeBatch

        solver = RelaxationSolver()
        network = build_scheduling_network(seed=23, num_tasks=8)
        solver.solve(network.copy())
        stale = ChangeBatch(base_revision=999, target_revision=1000)
        result = solver.solve(network.copy(), changes=stale)
        assert result.total_cost == reference_min_cost(network)
        assert solver.residual_reuses == 0
        assert solver.residual_rebuilds == 2

    def test_invalidate_residual_forces_rebuild(self):
        solver = RelaxationSolver()
        network = build_scheduling_network(seed=24, num_tasks=8)
        solver.solve(network.copy())
        assert solver.last_residual is not None
        solver.invalidate_residual()
        assert solver.last_residual is None

    def test_observability_counters_populated(self):
        network = build_contended_network(num_tasks=25)
        result = RelaxationSolver().solve(network)
        assert result.statistics.relaxation_tree_nodes > 0
        assert result.statistics.dual_ascents > 0
        assert result.statistics.dual_ascents == result.statistics.potential_updates


class TestWarmStart:
    def test_warm_start_reaches_optimum_after_change(self):
        network = build_scheduling_network(seed=13, num_tasks=8)
        solver = RelaxationSolver()
        first = solver.solve(network.copy())
        changed = network.copy()
        arc = next(a for a in changed.arcs() if changed.node(a.src).node_type is NodeType.TASK)
        changed.set_arc_cost(arc.src, arc.dst, arc.cost + 15)
        expected = reference_min_cost(changed)
        warm = solver.solve_warm(changed, first.flows, first.potentials)
        assert warm.total_cost == expected
        assert warm.statistics.warm_start

    def test_warm_start_identical_graph_does_no_augmentation(self):
        network = build_scheduling_network(seed=14, num_tasks=8)
        solver = RelaxationSolver()
        first = solver.solve(network.copy())
        warm = solver.solve_warm(network.copy(), first.flows, first.potentials)
        assert warm.total_cost == first.total_cost
        assert warm.statistics.augmentations == 0
