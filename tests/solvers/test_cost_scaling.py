"""Unit tests for the cost scaling solver, price refine, and warm starts."""

import pytest

from repro.flow.validation import check_feasibility
from repro.solvers.base import InfeasibleProblemError
from repro.solvers.cost_scaling import (
    DEFAULT_ALPHA,
    TUNED_ALPHA,
    CostScalingSolver,
    price_refine,
)
from repro.solvers.relaxation import RelaxationSolver
from repro.solvers.residual import ResidualNetwork
from repro.flow.graph import FlowNetwork, NodeType
from tests.conftest import build_scheduling_network, reference_min_cost


class TestBasicSolving:
    def test_optimal_on_small_graph(self):
        network = build_scheduling_network(seed=5)
        expected = reference_min_cost(network)
        result = CostScalingSolver().solve(network)
        assert result.total_cost == expected
        assert result.optimal
        assert result.statistics.epsilon_phases >= 1

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            CostScalingSolver(alpha=1)

    @pytest.mark.parametrize("alpha", [DEFAULT_ALPHA, 4, TUNED_ALPHA])
    def test_alpha_variants_reach_same_cost(self, alpha):
        network = build_scheduling_network(seed=9, num_tasks=12)
        expected = reference_min_cost(network)
        result = CostScalingSolver(alpha=alpha).solve(network)
        assert result.total_cost == expected

    def test_larger_alpha_uses_fewer_phases(self):
        network = build_scheduling_network(seed=11, num_tasks=12, max_cost=200)
        few = CostScalingSolver(alpha=TUNED_ALPHA).solve(network.copy())
        many = CostScalingSolver(alpha=2).solve(network.copy())
        assert few.statistics.epsilon_phases <= many.statistics.epsilon_phases

    def test_infeasible_problem_raises(self):
        network = FlowNetwork()
        task = network.add_node(NodeType.TASK, supply=1)
        sink = network.add_node(NodeType.SINK, supply=-1)
        # Zero-capacity arc: the supply cannot reach the sink.
        network.add_arc(task.node_id, sink.node_id, 0, 1)
        with pytest.raises(InfeasibleProblemError):
            CostScalingSolver().solve(network)

    def test_early_termination_marks_result_non_optimal(self):
        network = build_scheduling_network(seed=2, num_tasks=12, max_cost=500)
        result = CostScalingSolver(max_phases=1).solve(network)
        assert not result.optimal
        # Even a truncated run must leave a feasible flow behind.
        assert check_feasibility(network) == []


class TestPriceRefine:
    def test_price_refine_on_optimal_flow_installs_valid_potentials(self):
        network = build_scheduling_network(seed=4, num_tasks=10)
        RelaxationSolver().solve(network)
        residual = ResidualNetwork(network, flows=network.flows())
        assert price_refine(residual)
        # No residual arc may have negative reduced cost afterwards.
        for arc_index in range(residual.num_arcs):
            if residual.arc_residual[arc_index] > 0:
                assert residual.reduced_cost(arc_index) >= 0

    def test_price_refine_detects_non_optimal_flow(self):
        network = FlowNetwork()
        task = network.add_node(NodeType.TASK, supply=1)
        good = network.add_node(NodeType.MACHINE)
        bad = network.add_node(NodeType.MACHINE)
        sink = network.add_node(NodeType.SINK, supply=-1)
        network.add_arc(task.node_id, good.node_id, 1, 1)
        network.add_arc(task.node_id, bad.node_id, 1, 50)
        network.add_arc(good.node_id, sink.node_id, 1, 0)
        network.add_arc(bad.node_id, sink.node_id, 1, 0)
        # Deliberately non-optimal flow through the expensive machine.
        network.arc(task.node_id, bad.node_id).flow = 1
        network.arc(bad.node_id, sink.node_id).flow = 1
        residual = ResidualNetwork(network, flows=network.flows())
        assert not price_refine(residual)

    def test_price_refine_empty_network(self):
        residual = ResidualNetwork(FlowNetwork())
        assert price_refine(residual)


class TestWarmStart:
    def test_warm_start_from_own_solution_is_immediate(self):
        network = build_scheduling_network(seed=7, num_tasks=10)
        solver = CostScalingSolver()
        first = solver.solve(network)
        warm = solver.solve_warm(network.copy(), first.flows, first.potentials)
        assert warm.total_cost == first.total_cost
        # Nothing changed, so no scaling phase should have been needed.
        assert warm.statistics.epsilon_phases == 0

    def test_warm_start_after_cost_change_reoptimizes(self):
        network = build_scheduling_network(seed=8, num_tasks=8)
        solver = CostScalingSolver()
        first = solver.solve(network.copy())
        changed = network.copy()
        # Make one previously attractive task->machine arc very expensive.
        task_arc = next(
            arc for arc in changed.arcs()
            if changed.node(arc.src).node_type.value == "task" and arc.cost <= 2
        )
        changed.set_arc_cost(task_arc.src, task_arc.dst, 90)
        expected = reference_min_cost(changed)
        warm = solver.solve_warm(changed, first.flows, first.potentials)
        assert warm.total_cost == expected
        assert check_feasibility(changed) == []

    def test_warm_start_with_new_task(self):
        from repro.flow.graph import NodeType

        network = build_scheduling_network(seed=10, num_tasks=6)
        solver = CostScalingSolver()
        first = solver.solve(network.copy())

        grown = network.copy()
        machine = grown.nodes_of_type(NodeType.MACHINE)[0]
        unscheduled = grown.nodes_of_type(NodeType.UNSCHEDULED_AGGREGATOR)[0]
        sink = grown.nodes_of_type(NodeType.SINK)[0]
        new_task = grown.add_node(NodeType.TASK, supply=1, name="new")
        grown.add_arc(new_task.node_id, machine.node_id, 1, 1)
        grown.add_arc(new_task.node_id, unscheduled.node_id, 1, 30)
        grown.set_supply(sink.node_id, sink.supply - 1)
        grown.set_arc_capacity(unscheduled.node_id, sink.node_id, 7)

        expected = reference_min_cost(grown)
        warm = solver.solve_warm(grown, first.flows, first.potentials)
        assert warm.total_cost == expected
        assert check_feasibility(grown) == []
