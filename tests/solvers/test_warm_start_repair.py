"""Edge-case tests for cost scaling's warm-start repair path (Section 5.2).

The incremental cost scaling solver hands ``CostScalingSolver.solve_warm`` a
previous solution plus an updated graph; the repair must restore feasibility
and optimality for every kind of change Table 3 enumerates -- new supply
(task submission), removed supply (task completion/removal), capacity
reductions below the carried flow (machine failure), and cost changes in
either direction.
"""

from __future__ import annotations

import pytest

from repro.flow.graph import NodeType
from repro.flow.validation import check_feasibility
from repro.solvers import CostScalingSolver, IncrementalCostScalingSolver

from tests.conftest import build_scheduling_network, reference_min_cost


def warm_resolve(before, after, **solver_kwargs):
    """Solve ``before`` from scratch, then ``after`` via the warm-start path."""
    solver = IncrementalCostScalingSolver(**solver_kwargs)
    solver.solve(before)
    return solver.solve(after)


class TestWarmStartRepair:
    def test_unchanged_problem_returns_same_cost(self):
        network = build_scheduling_network(seed=21)
        result = warm_resolve(network.copy(), network.copy())
        assert result.statistics.warm_start
        assert result.total_cost == reference_min_cost(network)

    def test_new_task_supply_is_routed(self):
        before = build_scheduling_network(seed=22)
        after = before.copy()
        sink = after.nodes_of_type(NodeType.SINK)[0]
        unscheduled = after.nodes_of_type(NodeType.UNSCHEDULED_AGGREGATOR)[0]
        machine = after.nodes_of_type(NodeType.MACHINE)[0]
        new_task = after.add_node(NodeType.TASK, supply=1, name="Tnew")
        after.add_arc(new_task.node_id, machine.node_id, 1, 1)
        after.add_arc(new_task.node_id, unscheduled.node_id, 1, 50)
        after.set_supply(sink.node_id, sink.supply - 1)

        result = warm_resolve(before, after)
        assert result.total_cost == reference_min_cost(after)
        assert not check_feasibility(after)

    def test_task_removal_is_drained(self):
        before = build_scheduling_network(seed=23)
        after = before.copy()
        sink = after.nodes_of_type(NodeType.SINK)[0]
        task = after.nodes_of_type(NodeType.TASK)[0]
        after.remove_node(task.node_id)
        after.set_supply(sink.node_id, sink.supply + 1)

        result = warm_resolve(before, after)
        assert result.total_cost == reference_min_cost(after)
        assert not check_feasibility(after)

    def test_last_task_removal_is_repaired(self):
        before = build_scheduling_network(seed=24)
        after = before.copy()
        sink = after.nodes_of_type(NodeType.SINK)[0]
        task = after.nodes_of_type(NodeType.TASK)[-1]
        after.remove_node(task.node_id)
        after.set_supply(sink.node_id, sink.supply + 1)

        result = warm_resolve(before, after)
        assert result.total_cost == reference_min_cost(after)
        assert not check_feasibility(after)

    def test_capacity_reduction_below_carried_flow(self):
        before = build_scheduling_network(seed=25, num_tasks=8, num_machines=3)
        solver = IncrementalCostScalingSolver()
        first = solver.solve(before)

        after = before.copy()
        # Find a machine arc that carried flow and halve its capacity to
        # below the carried amount (machine shrank / partially failed).
        reduced = False
        for (src, dst), flow in sorted(first.flows.items()):
            if not after.has_arc(src, dst):
                continue
            arc = after.arc(src, dst)
            if after.node(dst).node_type is NodeType.SINK and flow >= 2:
                after.set_arc_capacity(src, dst, flow - 1)
                reduced = True
                break
        if not reduced:
            pytest.skip("no machine arc carried at least two units of flow")

        result = solver.solve(after)
        assert result.statistics.warm_start
        assert result.total_cost == reference_min_cost(after)
        assert not check_feasibility(after)

    def test_cost_increase_and_decrease_reoptimize(self):
        before = build_scheduling_network(seed=26)
        solver = IncrementalCostScalingSolver()
        solver.solve(before)

        after = before.copy()
        task_arcs = [
            arc for arc in after.arcs()
            if after.node(arc.src).node_type is NodeType.TASK
            and after.node(arc.dst).node_type is NodeType.MACHINE
        ]
        after.set_arc_cost(task_arcs[0].src, task_arcs[0].dst, 0)
        after.set_arc_cost(task_arcs[-1].src, task_arcs[-1].dst, task_arcs[-1].cost + 40)

        result = solver.solve(after)
        assert result.total_cost == reference_min_cost(after)

    def test_price_refine_disabled_still_correct(self):
        network = build_scheduling_network(seed=27)
        solver = IncrementalCostScalingSolver(apply_price_refine=False)
        solver.solve(network.copy())
        result = solver.solve(network.copy())
        assert result.total_cost == reference_min_cost(network)

    def test_repeated_warm_solves_stay_optimal(self):
        solver = IncrementalCostScalingSolver()
        scratch = CostScalingSolver()
        for round_index in range(4):
            network = build_scheduling_network(seed=30 + round_index)
            warm = solver.solve(network.copy())
            reference = scratch.solve(network.copy())
            assert warm.total_cost == reference.total_cost
