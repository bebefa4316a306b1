"""Unit tests for incremental cost scaling (warm rebuild and task removal)."""

import pytest

from repro.flow.graph import FlowNetwork, NodeType
from repro.flow.validation import check_feasibility
from repro.solvers.base import SolveAborted
from repro.solvers.incremental import IncrementalCostScalingSolver
from tests.conftest import build_scheduling_network, reference_min_cost
from tests.solvers.round_helpers import perturbed_rounds


def quincy_like_network(num_tasks=6, num_machines=3):
    """Scheduling network with an explicit cluster aggregator layer."""
    net = FlowNetwork()
    sink = net.add_node(NodeType.SINK, supply=-num_tasks, name="S")
    aggregator = net.add_node(NodeType.CLUSTER_AGGREGATOR, name="X")
    machines = []
    for index in range(num_machines):
        machine = net.add_node(NodeType.MACHINE, name=f"M{index}", ref=index)
        machines.append(machine)
        net.add_arc(machine.node_id, sink.node_id, 2, 0)
        net.add_arc(aggregator.node_id, machine.node_id, 2, index + 1)
    unsched = net.add_node(NodeType.UNSCHEDULED_AGGREGATOR, name="U0")
    net.add_arc(unsched.node_id, sink.node_id, num_tasks, 0)
    tasks = []
    for index in range(num_tasks):
        task = net.add_node(NodeType.TASK, supply=1, name=f"T{index}", ref=index)
        tasks.append(task)
        net.add_arc(task.node_id, aggregator.node_id, 1, 0)
        net.add_arc(task.node_id, unsched.node_id, 1, 40)
    return net, tasks, machines, aggregator, unsched, sink


class TestStatefulSolving:
    def test_first_solve_runs_from_scratch(self):
        solver = IncrementalCostScalingSolver()
        network = build_scheduling_network(seed=31)
        expected = reference_min_cost(network)
        assert not solver.has_state
        result = solver.solve(network)
        assert result.total_cost == expected
        assert solver.has_state
        assert not result.statistics.warm_start

    def test_second_solve_warm_starts(self):
        solver = IncrementalCostScalingSolver()
        network = build_scheduling_network(seed=32)
        solver.solve(network.copy())
        second = solver.solve(network.copy())
        assert second.statistics.warm_start
        assert second.total_cost == reference_min_cost(network)

    def test_reset_discards_state(self):
        solver = IncrementalCostScalingSolver()
        solver.solve(build_scheduling_network(seed=33))
        solver.reset()
        assert not solver.has_state

    def test_seed_installs_external_solution(self):
        from repro.solvers.relaxation import RelaxationSolver

        network = build_scheduling_network(seed=34)
        relaxation = RelaxationSolver().solve(network.copy())
        solver = IncrementalCostScalingSolver()
        solver.seed(relaxation.flows, relaxation.potentials)
        assert solver.has_state
        result = solver.solve(network.copy())
        assert result.statistics.warm_start
        assert result.total_cost == relaxation.total_cost

    def test_reoptimizes_after_cost_changes(self):
        solver = IncrementalCostScalingSolver()
        network, tasks, machines, aggregator, unsched, sink = quincy_like_network()
        solver.solve(network)
        # Make machine 0 very expensive; the optimum must shift away from it.
        changed = network.copy()
        changed.set_arc_cost(aggregator.node_id, machines[0].node_id, 99)
        changed.clear_flow()
        expected = reference_min_cost(changed)
        result = solver.solve(changed)
        assert result.total_cost == expected
        assert check_feasibility(changed) == []

    def test_handles_task_arrivals_and_departures(self):
        solver = IncrementalCostScalingSolver()
        network, tasks, machines, aggregator, unsched, sink = quincy_like_network(num_tasks=4)
        solver.solve(network)

        # One task finishes (node removed), one new task arrives.
        evolved = network.copy()
        evolved.remove_node(tasks[0].node_id)
        new_task = evolved.add_node(NodeType.TASK, supply=1, name="Tnew")
        evolved.add_arc(new_task.node_id, aggregator.node_id, 1, 0)
        evolved.add_arc(new_task.node_id, unsched.node_id, 1, 40)
        evolved.set_supply(sink.node_id, -4)
        evolved.clear_flow()
        expected = reference_min_cost(evolved)
        result = solver.solve(evolved)
        assert result.total_cost == expected
        assert check_feasibility(evolved) == []


class TestWarmRebuildOptions:
    def test_task_removal_on_warm_rebuild_is_optimal(self):
        """Section 5.3.2's change type: the plain repair drains a removed
        task's stale flow (the pre-pass that used to do it is a
        benchmark-local ablation in bench_fig12_heuristics.py)."""
        solver = IncrementalCostScalingSolver()
        network, tasks, machines, aggregator, unsched, sink = quincy_like_network()
        solver.solve(network)
        evolved = network.copy()
        evolved.remove_node(tasks[0].node_id)
        evolved.set_supply(sink.node_id, sink.supply + 1)
        evolved.clear_flow()
        expected = reference_min_cost(evolved)
        result = solver.solve(evolved)
        assert result.statistics.warm_start
        assert result.total_cost == expected
        assert check_feasibility(evolved) == []

    def test_price_refine_toggle_produces_same_cost(self):
        for enabled in (True, False):
            solver = IncrementalCostScalingSolver(apply_price_refine=enabled)
            network = build_scheduling_network(seed=36, num_tasks=10)
            solver.solve(network.copy())
            changed = network.copy()
            arc = next(a for a in changed.arcs() if a.cost > 0)
            changed.set_arc_cost(arc.src, arc.dst, arc.cost + 7)
            expected = reference_min_cost(changed)
            assert solver.solve(changed).total_cost == expected


class TestAbortedDeltaRepair:
    def test_an_aborted_delta_repair_releases_the_residual(self):
        rounds = list(perturbed_rounds(seed=73, rounds=3))
        solver = IncrementalCostScalingSolver()
        solver.solve(rounds[0][0])
        network, changes, _ = rounds[1]
        assert solver.can_solve_delta(changes)
        solver.abort_check = lambda: True
        with pytest.raises(SolveAborted):
            solver.solve(network, changes)
        solver.abort_check = None
        # The half-repaired residual is gone: the round is solved again by
        # a warm rebuild, and the next batch chains onto the rebuilt one.
        assert solver.last_residual is None
        assert not solver.can_solve_delta(changes)
        result = solver.solve(network, changes)
        assert result.statistics.delta_solve == 0
        assert result.total_cost == rounds[1][2]
        network, changes, expected = rounds[2]
        result = solver.solve(network, changes)
        assert result.statistics.delta_solve == 1
        assert result.total_cost == expected
        assert solver.delta_solves == 1
